"""Fixed-length binary words as packed integers.

A word of length d >= 1 keeps its bits in a plain Python int with
position 1 = leftmost character = most significant bit, so the integer value
of a word equals the binary reading of its text and doubles as a dense array
index for length-d tables.  `Word.parse` accepts at most MAX_LENGTH
characters; words built from parsed ones, such as the length-(2|f|-1)
witnesses of a bad f, may be longer.  All values are immutable; all
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_LENGTH = 63


class WordError(ValueError):
    """Invalid word construction or mismatched operands."""


@dataclass(frozen=True, order=True)
class Word:
    length: int
    bits: int

    def __post_init__(self):
        if not isinstance(self.length, int) or self.length < 1:
            raise WordError(f"word length must be at least 1, got {self.length!r}")
        if not isinstance(self.bits, int) or not 0 <= self.bits < (1 << self.length):
            raise WordError(f"bits {self.bits!r} out of range for length {self.length}")

    @classmethod
    def parse(cls, text: str) -> "Word":
        if len(text) > MAX_LENGTH:
            raise WordError(f"word longer than {MAX_LENGTH}: {len(text)} characters")
        return _parse_any_length(text)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")

    def bit(self, i: int) -> int:
        """Bit at 1-based position i (position 1 = leftmost)."""
        if not 1 <= i <= self.length:
            raise WordError(f"position {i} out of range 1..{self.length}")
        return (self.bits >> (self.length - i)) & 1

    def flip(self, i: int) -> "Word":
        """Complement the bit at 1-based position i."""
        if not 1 <= i <= self.length:
            raise WordError(f"position {i} out of range 1..{self.length}")
        return Word(self.length, self.bits ^ (1 << (self.length - i)))

    def reverse(self) -> "Word":
        v = self.bits
        out = 0
        for _ in range(self.length):
            out = (out << 1) | (v & 1)
            v >>= 1
        return Word(self.length, out)

    def complement(self) -> "Word":
        return Word(self.length, self.bits ^ ((1 << self.length) - 1))

    def concat(self, other: "Word") -> "Word":
        return Word(self.length + other.length, (self.bits << other.length) | other.bits)


# A forbidden factor is just a nonempty word; no extra structure is needed.
Pattern = Word


def _parse_any_length(text: str) -> Word:
    """Word.parse without the length limit, for words built from parsed ones."""
    if not text:
        raise WordError("empty word")
    bad = set(text) - {"0", "1"}
    if bad:
        raise WordError(f"invalid characters {sorted(bad)} in word {text!r}")
    return Word(len(text), int(text, 2))


def _contains_bits(ubits: int, ulen: int, fbits: int, flen: int) -> bool:
    """Factor test on raw packed bits; the hot path for enumeration loops."""
    if flen > ulen:
        return False
    mask = (1 << flen) - 1
    for shift in range(ulen - flen + 1):
        if (ubits >> shift) & mask == fbits:
            return True
    return False


def contains_factor(u: Word, f: Pattern) -> bool:
    """True iff f occurs as consecutive bits of u; False when f is longer."""
    return _contains_bits(u.bits, u.length, f.bits, f.length)


def factor_offsets(u: Word, f: Pattern) -> list[int]:
    """All 1-based offsets where f occurs in u, ascending (may overlap)."""
    if f.length > u.length:
        return []
    mask = (1 << f.length) - 1
    out = []
    for o in range(1, u.length - f.length + 2):
        shift = u.length - (o + f.length - 1)
        if (u.bits >> shift) & mask == f.bits:
            out.append(o)
    return out


def hamming(a: Word, b: Word) -> int:
    if a.length != b.length:
        raise WordError(f"length mismatch: {a.length} vs {b.length}")
    return (a.bits ^ b.bits).bit_count()


def differing_positions(a: Word, b: Word) -> list[int]:
    """Ascending 1-based positions where a and b differ."""
    if a.length != b.length:
        raise WordError(f"length mismatch: {a.length} vs {b.length}")
    x = a.bits ^ b.bits
    n = a.length
    return [i for i in range(1, n + 1) if (x >> (n - i)) & 1]
