"""Desk-scale verification sweeps and the good-string census.

Each suite checks every pattern of a length range, in lexicographic order,
against the brute-force oracle (or re-derives an invariant from definitions)
and reports the first counterexample if any.  One table lists the suites;
one pass checks each pattern against all selected suites, so a pattern is
classified once and each of its graphs built and tested once.  The pass may
be split over worker processes; results are merged in input order, so output
is identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import product

from . import oracle, structural
from .periodicity import (
    build_overlap_graph,
    closure_implies,
    equation_system,
    is_single_cycle,
    period_closure_check,
    residue_sequence,
)
from .words import Word

MAX_SWEEP_LENGTH = 14  # longest pattern a census or verification sweep enumerates


@dataclass(frozen=True)
class TheoremReport:
    name: str
    swept: str
    passed: bool
    checked: int
    counterexample: dict | None = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CensusRow:
    length: int
    total: int
    good_count: int
    bad_count: int
    index_histogram: dict[int, int] = field(default_factory=dict)
    p_histogram: dict[int, int] = field(default_factory=dict)
    oracle_confirmed: bool = False

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "total": self.total,
            "good_count": self.good_count,
            "bad_count": self.bad_count,
            "good_fraction": self.good_count / self.total,
            "index_histogram": {str(k): v for k, v in sorted(self.index_histogram.items())},
            "p_histogram": {str(k): v for k, v in sorted(self.p_histogram.items())},
            "oracle_confirmed": self.oracle_confirmed,
        }


CENSUS_CSV_HEADER = [
    "length",
    "total",
    "good",
    "bad",
    "good_fraction",
    "index_histogram",
    "p_histogram",
    "oracle_confirmed",
]


def census_csv(rows: list[CensusRow]) -> str:
    """One CSV line per row: to_json_dict's values in order, dicts as JSON."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CENSUS_CSV_HEADER)
    for r in rows:
        w.writerow(
            json.dumps(v) if isinstance(v, dict) else v for v in r.to_json_dict().values()
        )
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

class _Pattern:
    """One swept pattern f.  Its caches live on the instance, so f and ff are
    each classified once and each graph Q_d(w) is built and tested at most
    once, whichever checks ask; all of it is freed with the pattern."""

    def __init__(self, text: str):
        self.text = text
        self.f = Word.parse(text)
        self.n = self.f.length
        self.ff = self.f.concat(self.f)
        self.classify = cache(lambda w: structural.classify(w))
        self.graph = cache(lambda w, d: oracle.build_graph(w, d))

    def isometric(self, w: Word, d: int) -> bool:
        """Whether Q_d(w) is isometric, decided from the critical-pair scan."""
        return not oracle.critical_p_values(self.graph(w, d)).size

    def first_violation(self, w: Word, d_max: int) -> int | None:
        return oracle.first_violation_dimension(w, d_max, self.graph)

    def index(self, w: Word) -> int | None:
        return oracle.index_bruteforce(w, self.graph)


def _cross_validate_one(p: _Pattern) -> dict:
    s_index, b_index = p.classify(p.f).index, p.index(p.f)
    record = {"pattern": p.text, "structural_index": s_index, "bruteforce_index": b_index}
    if s_index != b_index:
        record["failure"] = "index-mismatch"
    elif b_index is None and p.n <= 4:
        # A bad f's first violation is its index, so only a good f is probed.
        past = p.first_violation(p.f, 2 * p.n + 2)
        if past is not None:
            record["failure"] = "violation-appears-past-bound"
            record["first_violation_to_2n_plus_2"] = past
    return record


def _min_p_one(p: _Pattern) -> dict:
    b = p.index(p.f)
    if b is None:
        return {"pattern": p.text, "index": None, "min_p": None}
    ps = oracle.critical_p_values(p.graph(p.f, b)).tolist()
    min_p = min(ps, default=None)
    record = {"pattern": p.text, "index": b, "min_p": min_p, "pairs_at_min": ps.count(min_p)}
    if min_p not in (2, 3):
        record["failure"] = "minimal-p-outside-2-3"
    return record


def _index_bound_one(p: _Pattern) -> dict:
    n, cls = p.n, p.classify(p.f)
    record = {"pattern": p.text, "index": cls.index}
    if not cls.good:
        if cls.index > 2 * n - 1:
            record["failure"] = "index-at-least-twice-length"
            return record
        if any(w.p == 2 for w in cls.witnesses) and cls.index > 2 * n - 2:
            record["failure"] = "two-flip-index-above-2n-2"
            return record
    if n <= 4:
        past = p.first_violation(p.f, 2 * n + 2)
        record["first_violation_to_2n_plus_2"] = past
        if past != cls.index:
            record["failure"] = "oracle-disagrees-past-bound"
    return record


def _doubling_one(p: _Pattern) -> dict:
    cls, cls_ff = p.classify(p.f), p.classify(p.ff)
    record = {"pattern": p.text, "index": cls.index, "doubled_index": cls_ff.index}
    if cls.good:
        if not cls_ff.good:
            record["failure"] = "doubling-lost-goodness"
        elif p.n <= 3 and p.index(p.ff) is not None:
            record["failure"] = "oracle-says-doubled-is-bad"
    elif p.n <= 3:
        for d in range(2, p.index(p.f) or 2):
            if d < p.ff.length and p.graph(p.ff, d).vertex_count != 1 << d:
                record["failure"] = "doubled-graph-not-full-cube"
                record["dimension"] = d
                return record
            if not p.isometric(p.ff, d):
                record["failure"] = "doubled-graph-not-isometric-below-index"
                record["dimension"] = d
                return record
    return record


def _monotonicity_one(p: _Pattern) -> dict:
    cls = p.classify(p.f)
    record = {"pattern": p.text, "index": cls.index}
    if cls.good:
        return record
    for d in range(cls.index + 1, cls.index + 4):
        for w in cls.witnesses:
            check = structural.verify_witness(structural.lift_witness(w, d))
            if not check.ok:
                record["failure"] = "lifted-witness-rejected"
                record["dimension"] = d
                record["reason"] = check.reason
                return record
        if p.isometric(p.f, d):
            record["failure"] = "oracle-isometric-above-index"
            record["dimension"] = d
            return record
    return record


def _critical_equivalence_one(p: _Pattern) -> dict:
    """The scan-free BFS route against the critical-pair scan on every graph:
    a violating pair exactly when there is a critical pair, and the first
    violating source is the least endpoint of the critical pairs, which is
    where is_isometric runs its one BFS."""
    n = p.n
    d_max = 2 * n - 1 if n > 4 else 2 * n + 2
    for d in range(2, d_max + 1):
        g = p.graph(p.f, d)
        violation = oracle._bfs_violation(g)
        # The scan's index pairs are sorted with i < j, so the least alpha of
        # find_critical_pairs(g) is vertices[i[0]].
        i, _ = g._critical_pairs
        endpoint = Word(d, int(g.vertices[i[0]])) if i.size else None
        if (violation is None) == (endpoint is not None):
            failure = "equivalence-broken"
        elif endpoint is not None and violation[0] != endpoint:
            failure = "first-source-not-scan-endpoint"
        else:
            continue
        record = {
            "pattern": p.text,
            "dimension": d,
            "isometric": violation is None,
            "critical_pairs": i.size,
            "failure": failure,
        }
        if violation is not None:
            a, b, dg, h = violation
            dg = "unreachable" if dg == oracle.UNREACHABLE else int(dg)
            record["violating_pair"] = [str(a), str(b), dg, h]
        if endpoint is not None:
            record["scan_endpoint"] = str(endpoint)
        return record
    return {"pattern": p.text, "dimensions_checked": d_max - 1}


def _bad_patterns(records) -> int:
    return sum(1 for r in records if r["index"] is not None)


# suite -> (report name, swept text for max_len, check, checked count of its records)
_SUITES = {
    "cross": ("oracle-structural-cross-validation", "all patterns of length 1..{}",
              _cross_validate_one, len),
    "p-values": ("minimal-p-dichotomy",
                 "bad patterns of length 1..{}, critical pairs at the index",
                 _min_p_one, _bad_patterns),
    "index-bound": ("index-upper-bound",
                    "all patterns of length 1..{}; oracle probe to 2n+2 for n <= 4",
                    _index_bound_one, len),
    "doubling": ("doubling-preserves-good",
                 "all patterns of length 1..{}; oracle confirmation for n <= 3",
                 _doubling_one, len),
    "monotonicity": ("witness-lift-monotonicity",
                     "bad patterns of length 1..{}, dimensions index+1..index+3",
                     _monotonicity_one, _bad_patterns),
    "lemma21": ("nonisometric-iff-critical-pair",
                "all patterns of length 1..{}, dimensions 2..2n-1 (2n+2 for n <= 4)",
                _critical_equivalence_one,
                lambda records: sum(r.get("dimensions_checked", 0) for r in records)),
}
SUITES = tuple(_SUITES)


def _check_one(args) -> list[dict]:
    text, names = args
    p = _Pattern(text)
    return [_SUITES[name][2](p) for name in names]


def _run(names, texts, workers, max_len=None) -> list[TheoremReport]:
    """Run the named suites' checks on each text in one pass; per suite,
    report the first failing record and the checked count of all records.
    Without max_len the texts are an explicit list, swept as "N patterns"."""
    rows = _pmap(_check_one, [(t, names) for t in texts], workers)
    reports = []
    for i, name in enumerate(names):
        title, swept, _, checked = _SUITES[name]
        records = [row[i] for row in rows]
        bad = next((r for r in records if "failure" in r), None)
        swept = f"{len(texts)} patterns" if max_len is None else swept.format(max_len)
        reports.append(TheoremReport(title, swept, bad is None, checked(records), bad))
    return reports


def _census_one(args):
    text, confirm = args
    p = _Pattern(text)
    cls = p.classify(p.f)
    if confirm:
        b = p.index(p.f)
        if b != cls.index:
            raise RuntimeError(
                f"classifier disagrees with oracle on {text}: {cls.index} vs {b}"
            )
    if cls.good:
        return (text, None, None)
    return (text, cls.index, min(w.p for w in cls.witnesses))


# ---------------------------------------------------------------------------
# sweeps

def cross_validate_patterns(texts: list[str], workers: int = 1) -> TheoremReport:
    return _run(("cross",), texts, workers)[0]


def census(n: int, workers: int = 1, oracle_confirm: bool = False) -> CensusRow:
    if not 1 <= n <= MAX_SWEEP_LENGTH:
        raise ValueError(f"census length must be in 1..{MAX_SWEEP_LENGTH}, got {n}")
    if oracle_confirm and n > 9:
        raise ValueError(f"oracle confirmation is limited to length 9, got {n}")
    texts = all_patterns(n)
    results = _pmap(_census_one, [(t, oracle_confirm) for t in texts], workers)
    good = 0
    index_hist: dict[int, int] = {}
    p_hist: dict[int, int] = {}
    for _, index, min_p in results:
        if index is None:
            good += 1
        else:
            index_hist[index] = index_hist.get(index, 0) + 1
            p_hist[min_p] = p_hist.get(min_p, 0) + 1
    return CensusRow(
        length=n,
        total=len(texts),
        good_count=good,
        bad_count=len(texts) - good,
        index_histogram=dict(sorted(index_hist.items())),
        p_histogram=dict(sorted(p_hist.items())),
        oracle_confirmed=oracle_confirm,
    )


def check_overlap_machinery(limit: int = 12) -> TheoremReport:
    """Cycle structure, residue walks, forced equalities, and concrete period
    checks over all period pairs up to the limit."""
    bad = None
    for r, s in product(range(1, limit + 1), repeat=2):
        g = build_overlap_graph(r, s)
        if not is_single_cycle(g) or len(g.edges) != 2 * (g.k1 + g.k2):
            bad = bad or {"r": r, "s": s, "failure": "not-a-single-cycle"}
            continue
        seq = residue_sequence(g.k1, g.k2)
        if sorted(seq) != list(range(g.k1 + g.k2)) or seq[-1] != g.k2:
            bad = bad or {"r": r, "s": s, "failure": "residue-walk-broken"}
            continue
        sys_ = equation_system(r, s)
        ids = [(2, i) for i in sys_.type2] + [(3, j) for j in sys_.type3]
        for missing in ids:
            assumed = set(ids) - {missing}
            pair = (sys_.type2 if missing[0] == 2 else sys_.type3)[missing[1]]
            if not closure_implies(r, s, assumed, pair):
                bad = bad or {"r": r, "s": s, "missing": list(missing),
                              "failure": "dropped-equation-not-forced"}
                break
    # concrete words: the full-period check never fails, and the vacuousness
    # flag respects bit complementation
    for r, s in [(1, 2), (2, 2), (2, 4)]:
        for t in all_patterns(r + s):
            f = Word.parse(t)
            res = period_closure_check(f, r, s)
            res_c = period_closure_check(f.complement(), r, s)
            if not res.ok or not res_c.ok or res.vacuous != res_c.vacuous:
                bad = bad or {"word": t, "r": r, "s": s, "failure": "period-check-broken"}
    swept = f"period pairs 1..{limit}, plus concrete words for three pairs"
    return TheoremReport("overlap-cycle-closure", swept, bad is None, limit * limit, bad)


def run_suites(suite: str, max_len: int, workers: int = 1) -> list[TheoremReport]:
    """Run one named suite, or all of them in one pass plus the
    overlap-machinery check."""
    if not 1 <= max_len <= MAX_SWEEP_LENGTH:
        raise ValueError(f"sweep length must be in 1..{MAX_SWEEP_LENGTH}, got {max_len}")
    selected = SUITES if suite == "all" else (suite,)
    unknown = set(selected) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite {sorted(unknown)}; choose from {('all',) + SUITES}")
    reports = _run(selected, patterns_up_to(max_len), workers, max_len)
    if suite == "all":
        reports.append(check_overlap_machinery())
    return reports
