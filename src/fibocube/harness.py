"""Desk-scale verification sweeps and the good-string census.

Each check sweeps a parameter range in lexicographic pattern order, compares
the structural classifier against the brute-force oracle (or re-derives an
invariant from definitions), and returns a report carrying the first
counterexample if any.  Sweeps may be split over worker processes; results
are merged in input order, so output is identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
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
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CENSUS_CSV_HEADER)
    for r in rows:
        w.writerow(
            [
                r.length,
                r.total,
                r.good_count,
                r.bad_count,
                repr(r.good_count / r.total),
                json.dumps({str(k): v for k, v in sorted(r.index_histogram.items())}),
                json.dumps({str(k): v for k, v in sorted(r.p_histogram.items())}),
                r.oracle_confirmed,
            ]
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
    if not workers or workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        chunk = max(1, len(items) // (workers * 4))
        return list(ex.map(fn, items, chunksize=chunk))


def _render_distance(dg) -> int | str:
    return "unreachable" if dg == oracle.UNREACHABLE else int(dg)


# ---------------------------------------------------------------------------
# per-pattern workers (module level so they pickle for process pools)

def _cross_validate_one(args):
    text, probe_past_len, cap = args
    f = Word.parse(text)
    s_index = structural.classify(f).index
    b_index = oracle.index_bruteforce(f, cap)
    record = {"pattern": text, "structural_index": s_index, "bruteforce_index": b_index}
    if s_index != b_index:
        record["failure"] = "index-mismatch"
        return record
    if f.length <= probe_past_len:
        past = oracle.first_violation_dimension(f, 2 * f.length + 2, cap)
        if past != b_index:
            record["failure"] = "violation-appears-past-bound"
            record["first_violation_to_2n_plus_2"] = past
    return record


def _min_p_one(args):
    text, cap = args
    f = Word.parse(text)
    b = oracle.index_bruteforce(f, cap)
    if b is None:
        return {"pattern": text, "index": None, "min_p": None}
    pairs = oracle.find_critical_pairs(oracle.build_graph(f, b, cap), minimal_only=True)
    min_p = pairs[0].p if pairs else None
    record = {"pattern": text, "index": b, "min_p": min_p, "pairs_at_min": len(pairs)}
    if min_p not in (2, 3):
        record["failure"] = "minimal-p-outside-2-3"
    return record


def _index_bound_one(args):
    text, oracle_probe_len, cap = args
    f = Word.parse(text)
    n = f.length
    cls = structural.classify(f)
    record = {"pattern": text, "index": cls.index}
    if not cls.good:
        if cls.index > 2 * n - 1:
            record["failure"] = "index-at-least-twice-length"
            return record
        if any(w.p == 2 for w in cls.witnesses) and cls.index > 2 * n - 2:
            record["failure"] = "two-flip-index-above-2n-2"
            return record
    if n <= oracle_probe_len:
        past = oracle.first_violation_dimension(f, 2 * n + 2, cap)
        record["first_violation_to_2n_plus_2"] = past
        if past != cls.index:
            record["failure"] = "oracle-disagrees-past-bound"
    return record


def _doubling_one(args):
    text, oracle_max_len, cap = args
    f = Word.parse(text)
    ff = f.concat(f)
    cls = structural.classify(f)
    cls_ff = structural.classify(ff)
    record = {"pattern": text, "index": cls.index, "doubled_index": cls_ff.index}
    if cls.good:
        if not cls_ff.good:
            record["failure"] = "doubling-lost-goodness"
            return record
        if f.length <= oracle_max_len and oracle.index_bruteforce(ff, cap) is not None:
            record["failure"] = "oracle-says-doubled-is-bad"
    elif f.length <= oracle_max_len:
        b = oracle.index_bruteforce(f, cap)
        for d in range(2, (b or 2)):
            g = oracle.build_graph(ff, d, cap)
            if d < ff.length and g.vertex_count != 1 << d:
                record["failure"] = "doubled-graph-not-full-cube"
                record["dimension"] = d
                return record
            if not oracle.is_isometric(g).isometric:
                record["failure"] = "doubled-graph-not-isometric-below-index"
                record["dimension"] = d
                return record
    return record


def _monotonicity_one(args):
    text, extra, cap = args
    f = Word.parse(text)
    cls = structural.classify(f)
    record = {"pattern": text, "index": cls.index}
    if cls.good:
        return record
    for d in range(cls.index + 1, cls.index + extra + 1):
        for w in cls.witnesses:
            check = structural.verify_witness(structural.lift_witness(w, d))
            if not check.ok:
                record["failure"] = "lifted-witness-rejected"
                record["dimension"] = d
                record["reason"] = check.reason
                return record
        if oracle.is_isometric(oracle.build_graph(f, d, cap)).isometric:
            record["failure"] = "oracle-isometric-above-index"
            record["dimension"] = d
            return record
    return record


def _critical_equivalence_one(args):
    text, cap = args
    f = Word.parse(text)
    n = f.length
    d_max = 2 * n - 1 if n > 4 else 2 * n + 2
    for d in range(2, d_max + 1):
        g = oracle.build_graph(f, d, cap)
        verdict = oracle.is_isometric(g)
        pairs = oracle.find_critical_pairs(g)
        if verdict.isometric == bool(pairs):
            record = {
                "pattern": text,
                "dimension": d,
                "isometric": verdict.isometric,
                "critical_pairs": len(pairs),
                "failure": "equivalence-broken",
            }
            if verdict.violating_pair is not None:
                a, b, dg, h = verdict.violating_pair
                record["violating_pair"] = [str(a), str(b), _render_distance(dg), h]
            return record
    return {"pattern": text, "dimensions_checked": d_max - 1}


def _census_one(args):
    text, confirm, cap = args
    f = Word.parse(text)
    cls = structural.classify(f)
    if confirm:
        b = oracle.index_bruteforce(f, cap)
        if b != cls.index:
            raise RuntimeError(
                f"classifier disagrees with oracle on {text}: {cls.index} vs {b}"
            )
    if cls.good:
        return (text, None, None)
    return (text, cls.index, min(w.p for w in cls.witnesses))


def _pure_three_one(text):
    cls = structural.classify(Word.parse(text))
    if not cls.good and all(w.p == 3 for w in cls.witnesses):
        return text
    return None


# ---------------------------------------------------------------------------
# sweeps

def _sweep(name: str, swept: str, one, texts, params, workers, checked=len) -> TheoremReport:
    """Run one worker on (text, *params) for every text and report the first
    failing record; checked turns the list of all records into the count."""
    records = _pmap(one, [(t, *params) for t in texts], workers)
    bad = next((r for r in records if "failure" in r), None)
    return TheoremReport(
        name=name, swept=swept, passed=bad is None, checked=checked(records), counterexample=bad
    )


def _bad_patterns(records) -> int:
    return sum(1 for r in records if r["index"] is not None)


def cross_validate_patterns(
    texts: list[str], workers: int = 1, probe_past_len: int = 4, cap: int | None = None
) -> TheoremReport:
    return _sweep(
        "oracle-structural-cross-validation",
        f"{len(texts)} patterns",
        _cross_validate_one, texts, (probe_past_len, cap), workers,
    )


def cross_validate(max_len: int, workers: int = 1, cap: int | None = None) -> TheoremReport:
    report = cross_validate_patterns(patterns_up_to(max_len), workers=workers, cap=cap)
    return replace(report, swept=f"all patterns of length 1..{max_len}")


def check_p_values(max_len: int, workers: int = 1, cap: int | None = None) -> TheoremReport:
    return _sweep(
        "minimal-p-dichotomy",
        f"bad patterns of length 1..{max_len}, critical pairs at the index",
        _min_p_one, patterns_up_to(max_len), (cap,), workers, checked=_bad_patterns,
    )


def check_index_bound(
    max_len: int, oracle_probe_len: int = 4, workers: int = 1, cap: int | None = None
) -> TheoremReport:
    return _sweep(
        "index-upper-bound",
        f"all patterns of length 1..{max_len}; oracle probe to 2n+2 for n <= {oracle_probe_len}",
        _index_bound_one, patterns_up_to(max_len), (oracle_probe_len, cap), workers,
    )


def check_doubling(
    max_len: int, oracle_max_len: int = 3, workers: int = 1, cap: int | None = None
) -> TheoremReport:
    return _sweep(
        "doubling-preserves-good",
        f"all patterns of length 1..{max_len}; oracle confirmation for n <= {oracle_max_len}",
        _doubling_one, patterns_up_to(max_len), (oracle_max_len, cap), workers,
    )


def check_monotonicity(
    max_len: int, extra: int = 3, workers: int = 1, cap: int | None = None
) -> TheoremReport:
    return _sweep(
        "witness-lift-monotonicity",
        f"bad patterns of length 1..{max_len}, dimensions index+1..index+{extra}",
        _monotonicity_one, patterns_up_to(max_len), (extra, cap), workers,
        checked=_bad_patterns,
    )


def check_critical_equivalence(
    max_len: int, workers: int = 1, cap: int | None = None
) -> TheoremReport:
    return _sweep(
        "nonisometric-iff-critical-pair",
        f"all patterns of length 1..{max_len}, dimensions 2..2n-1 (2n+2 for n <= 4)",
        _critical_equivalence_one, patterns_up_to(max_len), (cap,), workers,
        checked=lambda records: sum(r.get("dimensions_checked", 0) for r in records),
    )


def census(
    n: int, workers: int = 1, oracle_confirm: bool = False, cap: int | None = None
) -> CensusRow:
    if not 1 <= n <= 14:
        raise ValueError(f"census length must be in 1..14, got {n}")
    if oracle_confirm and n > 8:
        raise ValueError(f"oracle confirmation is limited to length 8, got {n}")
    texts = all_patterns(n)
    results = _pmap(_census_one, [(t, oracle_confirm, cap) for t in texts], workers)
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


def find_pure_three_critical(max_len: int, workers: int = 1) -> list[str]:
    """Patterns whose minimal-dimension witnesses are all three-flip ones."""
    if max_len > 12:
        raise ValueError(f"sweep length must be at most 12, got {max_len}")
    hits = _pmap(_pure_three_one, patterns_up_to(max_len), workers)
    return [t for t in hits if t is not None]


SUITES = ("cross", "p-values", "index-bound", "doubling", "monotonicity", "lemma21")


def run_suites(
    suite: str, max_len: int, workers: int = 1, cap: int | None = None
) -> list[TheoremReport]:
    """Run one named suite, or all of them plus the overlap-machinery check."""
    selected = SUITES if suite == "all" else (suite,)
    unknown = set(selected) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite {sorted(unknown)}; choose from {('all',) + SUITES}")
    # Looked up on each call, so a check replaced on the module is the one run.
    checks = {
        "cross": cross_validate,
        "p-values": check_p_values,
        "index-bound": check_index_bound,
        "doubling": check_doubling,
        "monotonicity": check_monotonicity,
        "lemma21": check_critical_equivalence,
    }
    reports = [checks[name](max_len, workers=workers, cap=cap) for name in selected]
    if suite == "all":
        reports.append(check_overlap_machinery())
    return reports
