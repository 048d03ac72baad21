"""fibocube benchmark: run one workload, untraced or traced, and check answers.

    python3 bench/run.py --workload classify-census --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the job untraced, traced, then untraced again, and reports the
per-layer metrics from the traced job.  `--workload all` runs
every workload in both modes, each in a fresh interpreter, and prints every
metric.  Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Everything the
run writes goes to bench/out/.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "fibocube"
OUT = HERE / "out"

WORKLOAD_NAMES = ("classify-census", "oracle-big", "verify-sweep")
SETUP_IMPORTS = 5
SETUP_PROBES = ("int", "objects")  # importing is interpreter work, not array work
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import fibocube.cli; print(repr(time.perf_counter() - t))"
)

# Span names the per-layer metrics are read from.
SUITE_FUNCTIONS = {
    "cross": "harness.cross_validate",
    "p-values": "harness.check_p_values",
    "index-bound": "harness.check_index_bound",
    "doubling": "harness.check_doubling",
    "monotonicity": "harness.check_monotonicity",
    "lemma21": "harness.check_critical_equivalence",
    "overlap": "harness.check_overlap_machinery",
}
CANDIDATE_FUNCTIONS = (
    "structural.two_flip_candidates",
    "structural.three_flip_candidates",
    "structural.mirrored_three_flip_candidates",
)
FLIP_TABLE_SPANS = (
    "oracle.AvoidanceGraph.neighbor_table",
    "oracle.AvoidanceGraph.forbidden_flip_mask",
)
EXPORT_SPANS = (
    "oracle.graph_to_dot",
    "oracle.graph_to_json_dict",
    "oracle.AvoidanceGraph.edge_list",
    "oracle.AvoidanceGraph.words",
)
ISOMETRIC_CASE = "0000000-d13"
SPAN_COUNTS = {
    **{name: len for name in CANDIDATE_FUNCTIONS},
    "structural.classify": lambda cls: len(cls.witnesses),
    "oracle.build_graph": lambda g: g.vertex_count,
    "oracle.find_critical_pairs": len,
    "oracle.graph_to_dot": len,
}


@dataclass
class Job:
    starts: list[float]  # time.perf_counter() at each request's start
    latencies: list[float]  # raw seconds per request
    attempted: int
    failed: int
    notes: list[str]
    stdout_bytes: int
    scaled: list[float] = field(default_factory=list)  # at the reference speed

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


# `workloads` imports fibocube, so it is imported inside the functions that
# need it, after main() has checked for src/ and put it on the path.


def run_job(workload, tracer=None) -> Job:
    """One pass over the workload's requests, timed per request and checked."""
    import workloads

    instrumented = (spans.instrument(tracer, SPAN_COUNTS) if tracer is not None
                    else contextlib.nullcontext())
    clock = time.perf_counter
    outcomes = []
    starts = []
    latencies = []
    with instrumented:
        for req in workload.requests:
            if tracer is not None:
                tracer.case = req.label
            start = clock()
            try:
                out = req.call()
            except Exception as exc:  # counted as a failed request; the job goes on
                out = workloads.Raised(exc)
            latencies.append(clock() - start)
            starts.append(start)
            outcomes.append(out)
    attempted, failed, notes = workloads.check(workload, outcomes)
    stdout_bytes = sum(len(o.text.encode()) for o in outcomes
                       if isinstance(o, workloads.CliOutput))
    return Job(starts, latencies, attempted, failed, notes, stdout_bytes)


def run_jobs(workload, budget: float) -> list[Job]:
    """Repeat the job: once, then again while another is expected to end in budget."""
    jobs = []
    start = time.perf_counter()
    while True:
        jobs.append(run_job(workload))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(j.wall for j in jobs) > budget:
            return jobs


def setup_times(n: int = SETUP_IMPORTS) -> list[tuple[float, float, float]]:
    """(start, end, seconds) of `import fibocube.cli` in n fresh interpreters.

    One untimed import goes first, so a fresh checkout's bytecode compilation
    is not counted.
    """
    code = IMPORT_PROBE.format(src=str(SRC))
    out = []
    for i in range(n + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=120)
        if i:
            out.append((start, time.perf_counter(), float(proc.stdout)))
    return out


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end_metrics(jobs: list[Job], setup: list[float], raw: bool = False) -> dict:
    """The end-to-end metrics, at the reference speed unless raw is set."""
    lat = [x for j in jobs for x in (j.latencies if raw else j.scaled)]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(j.wall if raw else j.scaled_wall for j in jobs), "s"),
        "pattern_ms_p50": (percentile(lat, 50) * 1e3, "ms"),
        "pattern_ms_p99": (percentile(lat, 99) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }


def layer_metrics(tracer, traced: Job, untraced: Job) -> dict:
    """Per-layer metrics from the spans of one traced job."""
    import workloads

    selfs = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for i, name in enumerate(tracer.names):
        for key in (name, spans.layer_of(name)):
            calls[key] += 1
            self_s[key] += selfs[i]
        incl_s[name] += tracer.ends[i] - tracer.starts[i]
        if tracer.counts[i] > 0:
            count[name] += tracer.counts[i]

    def case_spans(name):
        return [(tracer.cases[i], tracer.ends[i] - tracer.starts[i], tracer.counts[i])
                for i, n in enumerate(tracer.names) if n == name]

    # In classify-census each request's label is the pattern it classifies.
    classify = [(len(case), dur) for case, dur, _ in case_spans("structural.classify")
                if set(case) <= {"0", "1"}]
    short_ms = [d * 1e3 for n, d in classify if n == 12]
    long_ms = [d * 1e3 for n, d in classify if 24 <= n <= 32]
    candidates = sum(c for i, c in enumerate(tracer.counts)
                     if tracer.names[i] in CANDIDATE_FUNCTIONS and c > 0
                     and tracer.parents[i] >= 0
                     and tracer.names[tracer.parents[i]] == "structural.classify")
    witnesses = count["structural.classify"]
    iso_case = defaultdict(float)
    for case, dur, _ in case_spans("oracle.is_isometric"):
        iso_case[case] += dur
    vertices = {case: c for case, _, c in case_spans("oracle.build_graph")}
    iso_s = iso_case.get(ISOMETRIC_CASE, 0.0)
    untraced_wall = untraced.wall
    layer_self = sum(self_s[layer] for layer in spans.LAYERS)

    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for fn in ("structural.classify", "structural.verify_witness", "oracle.build_graph",
               "oracle.is_isometric", "oracle.find_critical_pairs"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.self_s"] = (self_s[fn], "s")
    m["structural.classify.ms_len12"] = (statistics.median(short_ms) if short_ms else 0.0, "ms")
    m["structural.classify.ms_len24_32"] = (statistics.median(long_ms) if long_ms else 0.0, "ms")
    m["structural.candidates"] = (candidates, "count")
    m["structural.witnesses"] = (witnesses, "count")
    m["structural.useful_ratio"] = (witnesses / candidates if candidates else 0.0, "ratio")
    m["oracle.vertices"] = (count["oracle.build_graph"], "count")
    m["oracle.flip_tables.s"] = (sum(incl_s[n] for n in FLIP_TABLE_SPANS), "s")
    for text, d in workloads.ORACLE_CASES:
        case = workloads.case_label(text, d)
        m[f"oracle.is_isometric.s.{case}"] = (iso_case.get(case, 0.0), "s")
    n = vertices.get(ISOMETRIC_CASE, 0)
    m["oracle.pairs_per_s"] = (n * n / iso_s if iso_s else 0.0, "pairs/s")
    m["oracle.critical_pairs"] = (count["oracle.find_critical_pairs"], "count")
    m["oracle.export.self_s"] = (sum(self_s[n] for n in EXPORT_SPANS), "s")
    m["oracle.export.bytes"] = (count["oracle.graph_to_dot"], "bytes")
    for suite, fn in SUITE_FUNCTIONS.items():
        m[f"harness.{suite}.s"] = (incl_s[fn], "s")
    m["cli.stdout_bytes"] = (traced.stdout_bytes, "bytes")
    m["trace.wall_s"] = (traced.wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced.wall - untraced_wall, "s")
    cost = spans.span_cost()
    m["trace.span_cost_us"] = (cost * 1e6, "us")
    m["trace.overhead_est_s"] = (cost * len(tracer), "s")
    m["trace.layer_self_share"] = (layer_self / traced.wall, "share")
    m["trace.spans"] = (len(tracer), "count")
    return m


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def version_of(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),  # the machine's; an untraced run pins itself to one
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        # Informational, not a gated metric.
        "source_lines": {p.name: len(p.read_text().splitlines())
                         for p in sorted(PACKAGE_DIR.glob("*.py"))},
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args) -> int:
    import workloads

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_raw, setup, probes, raw = [], [], [], {}
    if args.trace:
        # A first, untraced job warms up the process, so that the traced job
        # and the untraced one after it are compared on equal terms.
        warm_up = run_job(workload)
        tracer = spans.Tracer(workload.name)
        traced = run_job(workload, tracer)
        untraced = run_job(workload)
        jobs = [warm_up, traced, untraced]
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        # The sampler's probes and the work they scale must share a processor;
        # the sampler and the fresh interpreters timed for setup_s inherit this.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        with speed.Sampler(OUT / f"probes-{stem}.txt") as sampler:
            imports = setup_times()
            jobs = run_jobs(workload, args.seconds)
        probes = sampler.took
        setup_raw = [t for _, _, t in imports]
        setup = [t * sampler.scale(start, end, SETUP_PROBES) for start, end, t in imports]
        for j in jobs:
            j.scaled = [lat * sampler.scale(t, t + lat, workload.probes)
                        for t, lat in zip(j.starts, j.latencies)]
        metrics = end_to_end_metrics(jobs, setup)
        raw = end_to_end_metrics(jobs, setup_raw, raw=True)
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    samples = sum(len(j.latencies) for j in jobs)
    if args.trace:
        metrics["failed_share"] = (failed / attempted, "share")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_s": {"raw": setup_raw, "reference_speed": setup},
        "jobs": [{"wall": j.wall, "scaled_wall": j.scaled_wall, "attempted": j.attempted,
                  "failed": j.failed, "notes": j.notes} for j in jobs],
        "probe_s": probes,
        "requests_per_job": len(workload.requests), "latency_samples": samples,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans.write_spans(tracer, OUT / f"spans-{stem}.jsonl.gz")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(jobs)} jobs, "
          f"{len(workload.requests)} requests per job, {samples} latency samples")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for j in jobs:
        for note in j.notes:
            print(f"wrong answer: {note}")
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted})")
    for kind in speed.PROBES if probes else ():
        print(f"probe {kind}: median {statistics.median(p[kind] for p in probes) * 1e3:.4g} ms "
              f"over {len(probes)} samples (reference {speed.REFERENCE_S[kind] * 1e3:.4g} ms)")
    for name, (value, unit) in metrics.items():
        line = f"{name} {value:.6g} {unit}"
        if name in raw:
            line += f" (raw {raw[name][0]:.6g} {unit})"
        print(line)
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh interpreter."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            sys.stdout.write(proc.stdout)
            results[f"{name} trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "runs": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no fibocube sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
