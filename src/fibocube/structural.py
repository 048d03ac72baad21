"""Structural good/bad classification with explicit certificates.

A factor f is bad exactly when some dimension d admits two f-avoiding words
at Hamming distance p >= 2 such that every interval flip on one side contains
f.  At the smallest such d only two rigid layouts of the flips and of the
copies of f are possible (two flips over two overlapping copies, or three
equally spaced flips over three copies, the latter also in mirror image).
Each enumerator lists its layout over the full parameter range as (flip,
copy offset) pairs; `_witnesses` alone places every copy window in the word,
drops layouts whose windows disagree on an overlap and keeps those whose
endpoints both avoid f, so emitted certificates are sound by construction and
the smallest surviving dimension is the exact index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .words import (
    Pattern,
    Word,
    _contains_bits,
    contains_factor,
    differing_positions,
    factor_offsets,
    hamming,
)


class MalformedWitnessError(ValueError):
    """Witness fields are structurally inconsistent (not merely invalid)."""


@dataclass(frozen=True)
class CriticalWitness:
    """Certificate that (alpha, beta) is a blocked pair at this dimension.

    flips are the ascending positions where alpha and beta differ; offsets
    maps each flip position to the start of the copy of the pattern that
    appears when that single bit of alpha is complemented; shift is the
    layout parameter (copy spacing) used by the constructor.
    """

    pattern: Word
    dimension: int
    p: int
    flips: tuple[int, ...]
    offsets: tuple[tuple[int, int], ...]
    shift: int
    alpha: Word
    beta: Word

    @property
    def offset_map(self) -> dict[int, int]:
        return dict(self.offsets)


@dataclass(frozen=True)
class Classification:
    pattern: Word
    good: bool
    index: int | None
    witnesses: tuple[CriticalWitness, ...]

    @property
    def verdict(self) -> str:
        return "good" if self.good else "bad"


@dataclass(frozen=True)
class WitnessCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _witness_sort_key(w: CriticalWitness):
    return (w.dimension, w.alpha.bits, w.beta.bits)


def _witnesses(f: Pattern, layouts) -> list[CriticalWitness]:
    """Witnesses from copy layouts, sorted by (d, alpha, beta).

    Each layout is (d, shift, ((flip i, copy offset u), ...)): complementing
    bit i of alpha must leave a copy of f at offset u, so alpha holds the
    window (f.bits << s) ^ (1 << (d - i)) with s = d - (u + |f| - 1).  A
    layout whose windows disagree on an overlap is dropped; the windows of
    every layout must cover 1..d.  Beta is alpha with every flip complemented.
    A layout survives when alpha and beta both avoid f; the first layout of
    each unordered pair is kept.
    """
    n = f.length
    fmask = (1 << n) - 1
    out: list[CriticalWitness] = []
    seen: set[tuple[int, int, int]] = set()
    for d, shift, copies in layouts:
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
            key = (d, min(alpha, beta), max(alpha, beta))
            if key in seen:
                continue
            seen.add(key)
            offsets = tuple(sorted(copies))
            out.append(
                CriticalWitness(
                    pattern=f,
                    dimension=d,
                    p=len(copies),
                    flips=tuple(i for i, _ in offsets),
                    offsets=offsets,
                    shift=shift,
                    alpha=Word(d, alpha),
                    beta=Word(d, beta),
                )
            )
    out.sort(key=_witness_sort_key)
    return out


def two_flip_candidates(f: Pattern) -> list[CriticalWitness]:
    """All valid two-flip layouts: copies of f at offsets 1 and r+1 for
    r = 1..|f|-2, one flip inside each copy, both flips in [r+1, |f|].

    Both flip-to-copy assignments are tried; candidates survive only if the
    two constraint windows agree on their overlap and both alpha and beta
    avoid f.  Duplicate unordered pairs are dropped, keeping enumeration
    order (r, then flips ascending).
    """
    n = f.length
    layouts = (
        (n + r, r, ((pa, 1), (pb, r + 1)))
        for r in range(1, n - 1)
        for pa in range(r + 1, n + 1)
        for pb in range(r + 1, n + 1)
        if pb != pa
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
        (n + 3 * rp, rp, ((i, 2 * rp + 1), (i + rp, 1), (i + 2 * rp, 3 * rp + 1)))
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
        (n + 3 * rp, rp, ((i, 1), (i + rp, 3 * rp + 1), (i + 2 * rp, rp + 1)))
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
    seen: set[tuple[int, int, int]] = set()
    for w in (
        two_flip_candidates(f)
        + three_flip_candidates(f)
        + mirrored_three_flip_candidates(f)
    ):
        key = (w.dimension, min(w.alpha.bits, w.beta.bits), max(w.alpha.bits, w.beta.bits))
        if key not in seen:
            seen.add(key)
            merged.append(w)
    if not merged:
        return Classification(f, True, None, ())
    index = min(w.dimension for w in merged)
    winners = sorted((w for w in merged if w.dimension == index), key=_witness_sort_key)
    return Classification(f, False, index, tuple(winners))


def verify_witness(w: CriticalWitness) -> WitnessCheck:
    """Re-check a certificate from scratch, independent of how it was made.

    Structurally malformed witnesses raise MalformedWitnessError; witnesses
    that are well-formed but wrong return a failed check with a reason code.
    """
    f = w.pattern
    d = w.dimension
    if w.p < 2 or w.p > 3:
        raise MalformedWitnessError(f"p must be 2 or 3, got {w.p}")
    if len(w.flips) != w.p:
        raise MalformedWitnessError(f"{len(w.flips)} flips declared for p={w.p}")
    if any(w.flips[k] >= w.flips[k + 1] for k in range(len(w.flips) - 1)):
        raise MalformedWitnessError(f"flips not strictly ascending: {w.flips}")
    if w.flips[0] < 1 or w.flips[-1] > d:
        raise MalformedWitnessError(f"flip outside 1..{d}: {w.flips}")
    if set(w.offset_map) != set(w.flips):
        raise MalformedWitnessError("offset keys do not match flips")
    for u in w.offset_map.values():
        if u < 1 or u + f.length - 1 > d:
            raise MalformedWitnessError(f"copy window at offset {u} outside word")

    if w.alpha.length != d:
        return WitnessCheck(False, "alpha-length")
    if w.beta.length != d:
        return WitnessCheck(False, "beta-length")
    if contains_factor(w.alpha, f):
        return WitnessCheck(False, "alpha-contains-factor")
    if contains_factor(w.beta, f):
        return WitnessCheck(False, "beta-contains-factor")
    if hamming(w.alpha, w.beta) != w.p:
        return WitnessCheck(False, "hamming-mismatch")
    if tuple(differing_positions(w.alpha, w.beta)) != w.flips:
        return WitnessCheck(False, "flips-mismatch")
    if not all(contains_factor(w.alpha.flip(i), f) for i in w.flips):
        return WitnessCheck(False, "interval-not-blocked")
    for i, u in w.offsets:
        if u not in factor_offsets(w.alpha.flip(i), f):
            return WitnessCheck(False, "copy-offset")
    return WitnessCheck(True)


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
    return replace(
        w,
        dimension=d,
        flips=tuple(i + k for i in w.flips),
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


def witness_from_json_dict(data: dict) -> CriticalWitness:
    return CriticalWitness(
        pattern=Word.parse(data["pattern"]),
        dimension=int(data["dimension"]),
        p=int(data["p"]),
        flips=tuple(int(i) for i in data["flips"]),
        offsets=tuple(sorted((int(i), int(u)) for i, u in data["offsets"].items())),
        shift=int(data["shift"]),
        alpha=Word.parse(data["alpha"]),
        beta=Word.parse(data["beta"]),
    )
