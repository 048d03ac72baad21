"""Desk-scale verification sweeps and the good-string census.

Each suite checks every pattern of a length range, in lexicographic order,
against the brute-force oracle (or re-derives an invariant from definitions)
and reports the first counterexample if any.  One table lists the suites;
one pass checks each orbit of patterns under reversal and complement against
all selected suites.  Each pattern is classified once, and each graph is
built once per orbit: reversal and complement are automorphisms of Q_d, so
every oracle answer is the same on the whole orbit, and the checks of every
member ask the oracle directly about its first member's graphs, which cache
their critical-pair scan and BFS.  Each member keeps its own record, so the
checked counts are per pattern.  The pass may be split over worker
processes; records are merged in input order, so output is identical for
any worker count.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import product

from . import oracle, structural
from .words import Word, overlap_masks

MAX_SWEEP_LENGTH = 14  # longest pattern a census or verification sweep enumerates
OVERLAP_PERIOD_LIMIT = 12  # check_overlap_machinery sweeps period pairs up to it


def _report(name: str, swept: str, checked: int, counterexample: dict | None) -> dict:
    """One suite's JSON record; passed when counterexample, the first failing record, is None."""
    return {"name": name, "swept": swept, "passed": counterexample is None,
            "checked": checked, "counterexample": counterexample, "notes": ""}


def census_csv(row: dict) -> str:
    """A census row as one CSV line, dicts as JSON, under its keys with the
    suffix _count dropped."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(key.removesuffix("_count") for key in row)
    w.writerow(json.dumps(v) if isinstance(v, dict) else v for v in row.values())
    return buf.getvalue()


def all_patterns(n: int) -> list[str]:
    return ["".join(p) for p in product("01", repeat=n)]


def patterns_up_to(max_len: int) -> list[str]:
    out: list[str] = []
    for n in range(1, max_len + 1):
        out.extend(all_patterns(n))
    return out


def _pmap(fn, items, workers: int | None):
    items = list(items)
    # A forking pool forks all its processes at the first submit: no more than the CPUs.
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        chunk = max(1, len(items) // (workers * 4))
        return list(ex.map(fn, items, chunksize=chunk))


# ---------------------------------------------------------------------------
# per-pattern checks (module level so the pass pickles for process pools)

_COMPLEMENT = str.maketrans("01", "10")
# The maps other than the identity that reversal and complement generate.
_CARRIES = (Word.reverse, Word.complement, lambda w: w.reverse().complement())


def _orbits(texts) -> list[list[str]]:
    """texts grouped into orbits under reversal and complement, members in
    input order, orbits in the input order of their first members."""
    orbits: dict[str, list[str]] = {}
    for text in texts:
        c = text.translate(_COMPLEMENT)
        orbits.setdefault(min(text, text[::-1], c, c[::-1]), []).append(text)
    return list(orbits.values())


class _Pattern:
    """One swept pattern f, with its own classification cache (each word is
    classified once) and the graphs whose oracle answers are f's: Q_d(word),
    where word is f or, for a member of another pattern rep's orbit, rep.f.
    The reversal or complement that maps rep.f onto f carries Q_d(rep.f)
    onto Q_d(f), so every oracle answer a check reads is the same on both,
    and carry maps the critical pairs.  A member shares rep's graphs, so each
    graph is built or grown once per orbit and freed with its patterns."""

    def __init__(self, text: str):
        self.text = text
        self.f = Word.parse(text)
        self.classify = cache(lambda w: structural.classify(w))
        self.rep = None
        self.own_graphs()

    def member(self, text: str) -> _Pattern:
        """Another member of f's orbit, answered by this pattern's graphs."""
        p = _Pattern(text)
        p.rep, p.word, p.graphs = self, self.f, self.graphs
        p.carry = next(c for c in _CARRIES if c(self.f) == p.f)  # maps Q_d(f) onto Q_d(p.f)
        return p

    def own_graphs(self) -> None:
        """Answer every later check from f's own graphs."""
        self.word, self.graphs, self.carry = self.f, {}, None

    def graph(self, w: Word, d: int) -> oracle.AvoidanceGraph:
        """Q_d(w), built at most once, or grown from a held Q_{d-1}(w) when d > |w|."""
        g = self.graphs.get((w, d))
        if g is None:
            below = self.graphs.get((w, d - 1)) if d > w.length else None
            g = oracle.build_graph(w, d) if below is None else oracle.grow_graph(below)
            self.graphs[w, d] = g
        return g

    def critical_pairs(self, d: int) -> set[tuple[int, int]]:
        """The critical pairs of Q_d(f), each as (lesser, greater) word bits."""
        carry = self.carry or (lambda w: w)
        return {tuple(sorted((carry(c.alpha).bits, carry(c.beta).bits)))
                for c in oracle.find_critical_pairs(self.graph(self.word, d))}


def _index_and_least_p(cls) -> list:
    return [cls.index, min((w.p for w in cls.witnesses), default=None)]


def _orbit_checked(p: _Pattern, cls, record: dict) -> dict:
    """record, failing orbit-mismatch when nothing failed before and cls,
    p's classification, differs in index or least p from that of its orbit
    representative: both are facts of isomorphic graphs."""
    if p.rep is not None and "failure" not in record:
        mine, theirs = _index_and_least_p(cls), _index_and_least_p(p.rep.classify(p.rep.f))
        if mine != theirs:
            record["failure"] = "orbit-mismatch"
            record["representative"] = p.rep.text
            record["index_and_least_p"] = mine
            record["representative_index_and_least_p"] = theirs
    return record


def _past_bound_probe(f: Word) -> tuple[Word, int] | None:
    """The oracle's probe past the index bound 2n-1: Q_{2n+2}(f), for n <= 4."""
    return (f, 2 * f.length + 2) if f.length <= 4 else None


def _probe_graph(f: Word) -> tuple[Word, int]:
    """The deepest graph of the cross and lemma21 checks."""
    return _past_bound_probe(f) or (f, 2 * f.length - 1)


def _doubling_probe(f: Word) -> tuple[Word, int] | None:
    """The oracle's doubling confirmation: Q_d(ff) to ff's index bound, for n <= 3."""
    return (f.concat(f), 4 * f.length - 1) if f.length <= 3 else None


def _two_error_bad(f: Word) -> bool:
    """The 2-error rule of Wei, Yang and Zhu (A characterization of
    non-isometric binary words, European J. Combin. 78 (2019)): f is bad
    exactly when some overlap mask has exactly two set bits.  It rests on
    another theorem than classify's layouts and shares no code with them."""
    return any(mask.bit_count() == 2 for mask in overlap_masks(f))


def _cross_validate_one(p: _Pattern) -> dict:
    """classify's index against the oracle's scan to the probe depth (past
    the index bound 2n - 1 for n <= 4), its verdict against the 2-error
    rule, and a bad f's witness pairs against the critical pairs of Q_B(f)."""
    cls = p.classify(p.f)
    b_index = oracle.first_violation_dimension(*_probe_graph(p.word), p.graph)
    record = {"pattern": p.text, "structural_index": cls.index, "bruteforce_index": b_index}
    if cls.index != b_index:
        record["failure"] = "index-mismatch"
    elif cls.good == _two_error_bad(p.f):
        record["failure"] = "two-error-mismatch"
    elif not cls.good:
        pairs = {tuple(sorted((w.alpha.bits, w.beta.bits))) for w in cls.witnesses}
        if pairs != p.critical_pairs(b_index):
            record["failure"] = "witness-set-mismatch"
    return _orbit_checked(p, cls, record)


def _min_p_one(p: _Pattern) -> dict:
    b = oracle.index_bruteforce(p.word, p.graph)
    if b is None:
        return {"pattern": p.text, "index": None, "min_p": None}
    ps = oracle.critical_p_values(p.graph(p.word, b)).tolist()
    min_p = min(ps, default=None)
    record = {"pattern": p.text, "index": b, "min_p": min_p, "pairs_at_min": ps.count(min_p)}
    if min_p not in (2, 3):
        record["failure"] = "minimal-p-outside-2-3"
    return record


def _index_bound_one(p: _Pattern) -> dict:
    # classify places layouts only at d <= 2n - 1 (two-flip ones at d <= 2n - 2),
    # so it cannot report an index past the bound; only the oracle's probe,
    # which the cross check runs, can test it.
    return _cross_validate_one(p) if _past_bound_probe(p.f) else {"pattern": p.text}


def _doubling_one(p: _Pattern) -> dict:
    cls = p.classify(p.f)
    record = {"pattern": p.text, "index": cls.index}
    # For a bad f, Q_d(ff) below B(f) <= 2|f| - 1 < |ff| is the whole cube:
    # only a good f's doubling is a claim, so only then is ff classified.
    if cls.good:
        cls_ff = p.classify(p.f.concat(p.f))
        record["doubled_index"] = cls_ff.index
        probe = _doubling_probe(p.word)
        if not cls_ff.good:
            record["failure"] = "doubling-lost-goodness"
        elif probe and oracle.first_violation_dimension(*probe, p.graph) is not None:
            record["failure"] = "oracle-says-doubled-is-bad"
    return _orbit_checked(p, cls, record)


def _monotonicity_one(p: _Pattern) -> dict:
    cls = p.classify(p.f)
    record = {"pattern": p.text, "index": cls.index} | _monotonicity_failure(p, cls)
    return _orbit_checked(p, cls, record)


def _monotonicity_failure(p: _Pattern, cls) -> dict:
    """A bad f's first failure at dimensions index+1..index+3: a lifted
    witness rejected, or Q_d(f) isometric; {} when there is none."""
    if cls.good:
        return {}
    for d in range(cls.index + 1, cls.index + 4):
        for w in cls.witnesses:
            reason = structural.verify_witness(structural.lift_witness(w, d))
            if reason is not None:
                return {"failure": "lifted-witness-rejected", "dimension": d, "reason": reason}
        if not oracle.critical_p_values(p.graph(p.word, d)).size:  # no pair: isometric
            return {"failure": "oracle-isometric-above-index", "dimension": d}
    return {}


def _critical_equivalence_one(p: _Pattern) -> dict:
    """The scan-free BFS route against the critical-pair scan on every graph
    to the probe depth (see oracle.equivalence_failure)."""
    _, d_max = _probe_graph(p.f)
    for d in range(2, d_max + 1):
        broken = oracle.equivalence_failure(p.graph(p.word, d))
        if broken:
            return {"pattern": p.text, **broken}
    return {"pattern": p.text, "dimensions_checked": d_max - 1}


def _bad_patterns(records) -> int:
    return sum(1 for r in records if r["index"] is not None)


# suite -> (report name, swept text for max_len, check, checked count of its
# records, deepest graph (word, d) the check builds for a pattern f, or None)
_SUITES = {
    "cross": ("oracle-structural-cross-validation", "all patterns of length 1..{}",
              _cross_validate_one, len, _probe_graph),
    "p-values": ("minimal-p-dichotomy",
                 "bad patterns of length 1..{}, critical pairs at the index",
                 _min_p_one, _bad_patterns, lambda f: (f, 2 * f.length - 1)),
    "index-bound": ("index-upper-bound",
                    "all patterns of length 1..{}; oracle probe to 2n+2 for n <= 4",
                    _index_bound_one, len, _past_bound_probe),
    "doubling": ("doubling-preserves-good",
                 "all patterns of length 1..{}; oracle confirmation for n <= 3",
                 _doubling_one, len, _doubling_probe),
    "monotonicity": ("witness-lift-monotonicity",
                     "bad patterns of length 1..{}, dimensions index+1..index+3",
                     _monotonicity_one, _bad_patterns,
                     lambda f: (f, 2 * f.length + 2)),  # index + 3 <= 2n + 2
    "lemma21": ("nonisometric-iff-critical-pair",
                "all patterns of length 1..{}, dimensions 2..2n-1 (2n+2 for n <= 4)",
                _critical_equivalence_one,
                lambda records: sum(r.get("dimensions_checked", 0) for r in records),
                _probe_graph),
}
SUITES = tuple(_SUITES)


def _check_one(args) -> list:
    """The records of one orbit's members, in the order given, one per
    check.  The first member is the representative, checked on its own
    graphs; the others are answered by its graphs.  A member whose record
    fails is checked again on its own graphs, so that the record names its
    words."""
    texts, checks = args
    rep = _Pattern(texts[0])
    rows = [[check(rep) for check in checks]]
    for text in texts[1:]:
        p, row = rep.member(text), []
        for check in checks:
            record = check(p)
            if "failure" in record and p.carry is not None:
                p.own_graphs()
                record = check(p)
            row.append(record)
        rows.append(row)
    return rows


def _sweep(texts: list[str], checks, workers: int | None) -> list[list[dict]]:
    """Each text's records, one per check, in input order, from one pass
    over the orbits of texts."""
    orbits = _orbits(texts)
    done = _pmap(_check_one, [(orbit, checks) for orbit in orbits], workers)
    rows = {text: row for orbit, orbit_rows in zip(orbits, done)
            for text, row in zip(orbit, orbit_rows)}
    return [rows[text] for text in texts]


def _census_one(p: _Pattern):
    return *_index_and_least_p(p.classify(p.f)), _two_error_bad(p.f)


# ---------------------------------------------------------------------------
# sweeps

def census(n: int, workers: int = 1, oracle_confirm: bool = False) -> dict:
    """The classifier's counts for every pattern of length n, as the CLI's
    JSON record.  Each verdict is checked against the 2-error rule;
    oracle_confirm also runs the cross check on each pattern in the same
    pass.  The first disagreement raises RuntimeError naming the pattern."""
    if not 1 <= n <= MAX_SWEEP_LENGTH:
        raise ValueError(f"census length must be in 1..{MAX_SWEEP_LENGTH}, got {n}")
    if oracle_confirm and n > 9:
        raise ValueError(f"oracle confirmation is limited to length 9, got {n}")
    checks = (_census_one, _cross_validate_one) if oracle_confirm else (_census_one,)
    texts = all_patterns(n)
    rows = _sweep(texts, checks, workers)
    index_histogram, p_histogram = Counter(), Counter()
    for text, ((index, min_p, rule_bad), *cross) in zip(texts, rows):
        if (index is not None) != rule_bad:
            raise RuntimeError(f"classifier disagrees with the 2-error rule on {text}: "
                               f"{'good' if index is None else 'bad'} vs "
                               f"{'bad' if rule_bad else 'good'}")
        for r in cross:  # its two-error-mismatch was raised above
            if "failure" in r:
                raise RuntimeError(f"classifier disagrees with oracle on {text} ({r['failure']})"
                                   f": {r['structural_index']} vs {r['bruteforce_index']}")
        if index is not None:
            index_histogram[index] += 1
            p_histogram[min_p] += 1
    total, bad = 2**n, index_histogram.total()
    return {
        "length": n,
        "total": total,
        "good_count": total - bad,
        "bad_count": bad,
        "good_fraction": (total - bad) / total,
        # keys in integer order: the csv form prints these dicts unsorted
        "index_histogram": {str(k): v for k, v in sorted(index_histogram.items())},
        "p_histogram": {str(k): v for k, v in sorted(p_histogram.items())},
        "oracle_confirmed": oracle_confirm,
    }


def check_overlap_machinery() -> dict:
    """Cycle structure, residue walks and concrete period checks over period
    pairs up to OVERLAP_PERIOD_LIMIT; stops at the first failure."""
    from . import periodicity

    limit = OVERLAP_PERIOD_LIMIT
    return _report("overlap-cycle-closure",
                   f"period pairs 1..{limit}, plus concrete words for three pairs",
                   limit * limit, periodicity._overlap_failure(limit))


def run_suites(suite: str, max_len: int, workers: int = 1) -> list[dict]:
    """Run one named suite, or all of them in one pass plus the
    overlap-machinery check; per suite, one JSON record with the first
    failing record and the checked count of all records."""
    if not 1 <= max_len <= MAX_SWEEP_LENGTH:
        raise ValueError(f"sweep length must be in 1..{MAX_SWEEP_LENGTH}, got {max_len}")
    selected = SUITES if suite == "all" else (suite,)
    unknown = set(selected) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite {sorted(unknown)}; choose from {('all',) + SUITES}")
    texts = patterns_up_to(max_len)
    for text in texts:  # refuse an oversized graph before the first pattern runs
        f = Word.parse(text)
        for name in selected:
            deepest = _SUITES[name][4](f)
            if deepest is not None:
                oracle.check_size(*deepest)
    checks = tuple(_SUITES[name][2] for name in selected)
    rows = _sweep(texts, checks, workers)
    reports = []
    for i, name in enumerate(selected):
        title, swept, _, checked, _ = _SUITES[name]
        records = [row[i] for row in rows]
        bad = next((r for r in records if "failure" in r), None)
        reports.append(_report(title, swept.format(max_len), checked(records), bad))
    if suite == "all":
        reports.append(check_overlap_machinery())
    return reports
