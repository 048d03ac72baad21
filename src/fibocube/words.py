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

from functools import total_ordering
from operator import attrgetter

MAX_LENGTH = 63


class WordError(ValueError):
    """Invalid word construction or mismatched operands."""


class _Record:
    """Base of the immutable records on the command-line path.

    Fields are the subclass's __slots__, set once by its __init__.  Records
    compare equal only to records of the same type with equal fields, hash
    as the tuple of their fields, print as Name(field=value, ...) and pickle
    through their constructor.  Plain classes rather than dataclasses, so
    that importing the CLI loads neither dataclasses nor inspect.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(attrgetter(*cls.__slots__))  # the field values, as a tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields


@total_ordering
class Word(_Record):
    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int):
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)
        self.__post_init__()  # looked up by name, so a wrapper on the class sees each build

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

    def __lt__(self, other):  # Words order by (length, bits), only among themselves
        if other.__class__ is self.__class__:
            return self._fields < other._fields
        return NotImplemented

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


def overlap_masks(f: Pattern) -> list[int]:
    """mask_r = f[r+1..n] XOR f[1..n-r] as an (n-r)-bit int, for r = 0..n-1.

    mask_r is 0 exactly when f overlaps itself at shift r (always at r = 0).
    """
    n = f.length
    return [(f.bits & ((1 << (n - r)) - 1)) ^ (f.bits >> r) for r in range(n)]


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
