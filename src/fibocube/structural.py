"""Structural good/bad classification with explicit certificates.

A factor f is bad exactly when some dimension d admits two f-avoiding words
at Hamming distance p >= 2 such that every interval flip on one side contains
f.  At the smallest such d only two rigid layouts of the flips and of the
copies of f are possible (two flips over two overlapping copies, or three
equally spaced flips over three copies, the latter also in mirror image).
Each enumerator lists its layouts, each unordered pair once, as (flip,
copy offset) pairs; `_witnesses` alone places every copy window in the word,
drops layouts whose windows disagree on an overlap and keeps those whose
endpoints both avoid f, so emitted certificates are sound by construction and
the smallest surviving dimension is the exact index.
"""

from __future__ import annotations

from .words import (
    Pattern,
    Word,
    _Record,
    _contains_bits,
    _parse_any_length,
    contains_factor,
    differing_positions,
    factor_offsets,
    hamming,
)


class MalformedWitnessError(ValueError):
    """Witness fields are structurally inconsistent (not merely invalid)."""


class CriticalWitness(_Record):
    """Certificate that (alpha, beta) is a blocked pair at this dimension.

    offsets pairs each flip, a position where alpha and beta differ, with the
    start of the copy of f made by complementing that bit of alpha, in
    ascending flip order.  p, flips and shift are read from it; shift, the
    least gap between copy starts, is the layout's r or r' and lifting keeps it.
    """

    __slots__ = ("pattern", "dimension", "offsets", "alpha", "beta")

    def __init__(self, pattern: Word, dimension: int, offsets: tuple[tuple[int, int], ...],
                 alpha: Word, beta: Word):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def _replace(self, **changes) -> "CriticalWitness":
        """A copy with the named fields changed; any other name, p, flips
        and shift included, raises TypeError."""
        return CriticalWitness(**dict(zip(self.__slots__, self._fields)) | changes)

    @property
    def p(self) -> int:
        return len(self.offsets)

    @property
    def flips(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.offsets)

    @property
    def shift(self) -> int:
        starts = sorted(u for _, u in self.offsets)
        return min(b - a for a, b in zip(starts, starts[1:]))


class Classification(_Record):
    __slots__ = ("pattern", "witnesses")

    def __init__(self, pattern: Word, witnesses: tuple[CriticalWitness, ...]):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "witnesses", witnesses)  # all at the index B(f); none when good

    @property
    def index(self) -> int | None:
        return self.witnesses[0].dimension if self.witnesses else None

    @property
    def good(self) -> bool:
        return self.index is None

    @property
    def verdict(self) -> str:
        return "good" if self.good else "bad"


def _witness_sort_key(w: CriticalWitness):
    return (w.dimension, w.alpha.bits, w.beta.bits)


def _witnesses(f: Pattern, layouts) -> list[CriticalWitness]:
    """Witnesses from copy layouts, sorted by (d, alpha, beta).

    Each layout is (d, ((flip i, copy offset u), ...)): complementing
    bit i of alpha must leave a copy of f at offset u, so alpha holds the
    window (f.bits << s) ^ (1 << (d - i)) with s = d - (u + |f| - 1).  A
    layout whose windows disagree on an overlap is dropped; the windows of
    every layout must cover 1..d.  Beta is alpha with every flip complemented.
    A layout survives when alpha and beta both avoid f.  Duplicates are not
    dropped here: no enumerator lists an unordered pair twice.
    """
    n = f.length
    fmask = (1 << n) - 1
    out: list[CriticalWitness] = []
    for d, copies in layouts:
        alpha = known = flipped = 0
        for i, u in copies:
            s = d - (u + n - 1)
            flip = 1 << (d - i)
            window = (f.bits << s) ^ flip
            wmask = fmask << s
            if (alpha ^ window) & known & wmask:
                break  # two copies disagree on an overlap
            alpha |= window
            known |= wmask
            flipped |= flip
        else:
            if known != (1 << d) - 1:
                raise RuntimeError("window layout does not cover the word")
            beta = alpha ^ flipped
            if _contains_bits(alpha, d, f.bits, n) or _contains_bits(beta, d, f.bits, n):
                continue
            out.append(CriticalWitness(f, d, tuple(sorted(copies)), Word(d, alpha), Word(d, beta)))
    out.sort(key=_witness_sort_key)
    return out


def two_flip_candidates(f: Pattern) -> list[CriticalWitness]:
    """All valid two-flip layouts: copies of f at offsets 1 and r+1 for
    r = 1..|f|-2, one flip inside each copy, both flips in [r+1, |f|].

    Each flip pair pa < pb is tried once, with pa's copy at offset 1 (layout
    A); the swapped assignment B, pb's copy at 1 and pa's at r+1, gives the
    same unordered pair.  Both windows of either layout reduce, on the
    overlap [r+1, |f|], to f[k] ^ f[k-r] = [k = pa] ^ [k = pb], so B is
    consistent exactly when A is; and B's alpha is A's alpha ^ e_pa ^ e_pb,
    which is A's beta, so B survives exactly when A does and yields A's pair
    read from its other end.  Candidates survive only if the two windows
    agree on their overlap and both alpha and beta avoid f.
    """
    n = f.length
    layouts = (
        (n + r, ((pa, 1), (pb, r + 1)))
        for r in range(1, n - 1)
        for pa in range(r + 1, n + 1)
        for pb in range(pa + 1, n + 1)
    )
    return _witnesses(f, layouts)


def three_flip_candidates(f: Pattern) -> list[CriticalWitness]:
    """All valid three-flip layouts: copies of f at offsets 1, 2r'+1, 3r'+1,
    flips i_1 < i_1+r' < i_1+2r' with i_1 in [2r'+1, 3r'], for 3r'+1 <= |f|.

    The smallest flip sits in the middle copy, the middle flip in the first
    copy (hence the extra i_1+r' <= |f| requirement), the largest in the last.
    Candidates survive only if all pairwise window overlaps agree and both
    alpha and beta avoid f.
    """
    n = f.length
    layouts = (
        (n + 3 * rp, ((i, 2 * rp + 1), (i + rp, 1), (i + 2 * rp, 3 * rp + 1)))
        for rp in range(1, (n - 1) // 3 + 1)
        for i in range(2 * rp + 1, min(3 * rp, n - rp) + 1)
    )
    return _witnesses(f, layouts)


def mirrored_three_flip_candidates(f: Pattern) -> list[CriticalWitness]:
    """The direct three-flip layout read end-for-end: copies at offsets 1,
    r'+1, 3r'+1 holding flips i_1, i_1+2r', i_1+r', where
    max(2r'+1, |f|-2r'+1) <= i_1 <= |f|-r'.

    Needed for completeness: a pattern can have minimal blocked pairs only
    of this orientation while its reverse has only the direct one.
    """
    n = f.length
    layouts = (
        (n + 3 * rp, ((i, 1), (i + rp, 3 * rp + 1), (i + 2 * rp, rp + 1)))
        for rp in range(1, (n - 1) // 3 + 1)
        for i in range(max(2 * rp + 1, n - 2 * rp + 1), n - rp + 1)
    )
    return _witnesses(f, layouts)


def classify(f: Pattern) -> Classification:
    """Good/bad verdict with the exact index and all minimal-dimension witnesses.

    Any candidate is a genuine blocked pair at its dimension, so the index can
    never come out below the true value; at the true index the enumerated
    layouts are exhaustive, so it cannot come out above either.
    """
    merged: list[CriticalWitness] = []
    seen: set[tuple[int, int, int]] = set()  # direct and mirrored three-flip pairs can coincide
    for w in (
        two_flip_candidates(f)
        + three_flip_candidates(f)
        + mirrored_three_flip_candidates(f)
    ):
        key = (w.dimension, min(w.alpha.bits, w.beta.bits), max(w.alpha.bits, w.beta.bits))
        if key not in seen:
            seen.add(key)
            merged.append(w)
    index = min((w.dimension for w in merged), default=None)
    winners = sorted((w for w in merged if w.dimension == index), key=_witness_sort_key)
    return Classification(f, tuple(winners))


def verify_witness(w: CriticalWitness) -> str | None:
    """Re-check a certificate from scratch, independent of how it was made.

    Structurally malformed witnesses raise MalformedWitnessError; witnesses
    that are well-formed but wrong return a reason code, and valid ones None.
    """
    f = w.pattern
    d = w.dimension
    flips = w.flips
    if not 2 <= len(flips) <= 3:
        raise MalformedWitnessError(f"p must be 2 or 3, got {len(flips)}")
    if any(flips[k] >= flips[k + 1] for k in range(len(flips) - 1)):
        raise MalformedWitnessError(f"flips not strictly ascending: {flips}")
    if flips[0] < 1 or flips[-1] > d:
        raise MalformedWitnessError(f"flip outside 1..{d}: {flips}")
    for _, u in w.offsets:
        if u < 1 or u + f.length - 1 > d:
            raise MalformedWitnessError(f"copy window at offset {u} outside word")

    if w.alpha.length != d:
        return "alpha-length"
    if w.beta.length != d:
        return "beta-length"
    if contains_factor(w.alpha, f):
        return "alpha-contains-factor"
    if contains_factor(w.beta, f):
        return "beta-contains-factor"
    if hamming(w.alpha, w.beta) != len(flips):
        return "hamming-mismatch"
    if tuple(differing_positions(w.alpha, w.beta)) != flips:
        return "flips-mismatch"
    if not all(contains_factor(w.alpha.flip(i), f) for i in flips):
        return "interval-not-blocked"
    for i, u in w.offsets:
        if u not in factor_offsets(w.alpha.flip(i), f):
            return "copy-offset"
    return None


def lift_witness(w: CriticalWitness, d: int) -> CriticalWitness:
    """Extend a witness to a higher dimension by prepending a constant block.

    The block repeats the complement of the pattern's first bit, so no new
    copy of the pattern can start inside or across it; flips and offsets
    shift accordingly and the result still verifies.
    """
    if d < w.dimension:
        raise ValueError(f"cannot lift witness from dimension {w.dimension} down to {d}")
    k = d - w.dimension
    if k == 0:
        return w
    c = 1 - w.pattern.bit(1)
    prefix = Word(k, (1 << k) - 1 if c else 0)
    return w._replace(
        dimension=d,
        offsets=tuple((i + k, u + k) for i, u in w.offsets),
        alpha=prefix.concat(w.alpha),
        beta=prefix.concat(w.beta),
    )


def witness_to_json_dict(w: CriticalWitness) -> dict:
    return {
        "pattern": str(w.pattern),
        "dimension": w.dimension,
        "p": w.p,
        "flips": list(w.flips),
        "offsets": {str(i): u for i, u in w.offsets},
        "shift": w.shift,
        "alpha": str(w.alpha),
        "beta": str(w.beta),
    }


def _json_int(value) -> int:
    """A JSON integer as it stands; int() would read 4.9 as 4 and true as 1."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def witness_from_json_dict(data: dict) -> CriticalWitness:
    """Read a witness of any length; p, flips and shift are rebuilt from its
    offsets.  JSON that cannot be read, states other p, flips or shift, or
    has fewer than two offsets raises MalformedWitnessError."""
    try:
        for i in data["offsets"]:  # int() alone would also read "+2", " 2" or "02" as 2
            if i != str(int(i)):
                raise ValueError(f"offset key {i!r} is not a plain decimal integer")
        w = CriticalWitness(
            pattern=_parse_any_length(data["pattern"]),
            dimension=_json_int(data["dimension"]),
            offsets=tuple(sorted((int(i), _json_int(u)) for i, u in data["offsets"].items())),
            alpha=_parse_any_length(data["alpha"]),
            beta=_parse_any_length(data["beta"]),
        )
        stated = [(key, data[key]) for key in ("p", "flips", "shift")]
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise MalformedWitnessError(f"unreadable witness JSON: {exc!r}") from exc
    if w.p < 2:
        raise MalformedWitnessError(f"need at least 2 offsets, got {w.p}")
    for (key, value), rebuilt in zip(stated, (w.p, list(w.flips), w.shift)):
        if value != rebuilt:
            raise MalformedWitnessError(f"{key} {value!r} does not match offsets: {rebuilt!r}")
    return w
