"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from fibocube import structural  # noqa: E402


def test_self_time_is_span_minus_covered_children():
    # parent 0..10; children 1..3 and 2..5 overlap (cover 1..5), child 7..8;
    # a grandchild 1.5..2 inside the first child is not the parent's business.
    starts = [0.0, 1.0, 2.0, 7.0, 1.5]
    ends = [10.0, 3.0, 5.0, 8.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = spans.self_times(starts, ends, parents)
    assert selfs == [5.0, 1.5, 3.0, 1.0, 0.5]


def test_self_time_clips_child_past_parent_end():
    assert spans.self_times([0.0, 3.0], [4.0, 6.0], [-1, 0])[0] == 3.0


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer("unit", clock=lambda: float(next(ticks)))
    inner = tracer.wrap("words.inner", lambda n: list(range(n)), count=len)
    outer = tracer.wrap("structural.outer", lambda: inner(3) + inner(2))
    assert outer() == [0, 1, 2, 0, 1]
    assert tracer.names == ["structural.outer", "words.inner", "words.inner"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.counts == [-1, 3, 2]
    selfs = spans.self_times(tracer.starts, tracer.ends, tracer.parents)
    assert sum(selfs) == tracer.ends[0] - tracer.starts[0]


def test_instrument_wraps_boundaries_and_restores_them():
    original = structural.classify
    original_parse = workloads.Word.__dict__["parse"]
    f = workloads.Word.parse("0011")
    expected = structural.classify(f)
    tracer = spans.Tracer("unit")
    with spans.instrument(tracer, run.SPAN_COUNTS):
        assert structural.classify is not original
        assert structural.classify(f) == expected
    assert structural.classify is original
    assert workloads.Word.__dict__["parse"] is original_parse
    names = set(tracer.names)
    assert {"structural.classify", "structural.two_flip_candidates",
            "words._contains_bits", "words.Word.__post_init__"} <= names
    top = tracer.names.index("structural.classify")
    assert tracer.parents[top] == -1
    assert tracer.counts[top] == len(expected.witnesses)
    kids = [n for n, p in zip(tracer.names, tracer.parents) if p == top]
    assert "structural.mirrored_three_flip_candidates" in kids


def _small_census(n: int) -> workloads.Workload:
    full = workloads.classify_census(seed=1)
    return dataclasses.replace(full, requests=full.requests[:n], totals=None)


def test_correct_answers_leave_failed_share_at_zero():
    job = run.run_job(_small_census(6))
    assert (job.attempted, job.failed) == (6, 0)


def test_wrong_answer_raises_failed_share():
    small = _small_census(6)
    wrong = dataclasses.replace(small.requests[2], expected=["good", None, 0, "0" * 16])
    job = run.run_job(dataclasses.replace(
        small, requests=small.requests[:2] + [wrong] + small.requests[3:]))
    assert (job.attempted, job.failed) == (6, 1)
    assert job.notes and job.notes[0].startswith(wrong.label)


def test_raising_request_counts_as_failed_and_job_goes_on():
    small = _small_census(4)

    def boom():
        raise RuntimeError("boom")

    broken = dataclasses.replace(small.requests[0], call=boom)
    job = run.run_job(dataclasses.replace(small, requests=[broken] + small.requests[1:]))
    assert (job.attempted, job.failed) == (4, 1)
    assert len(job.latencies) == 4


def test_census_totals_check_the_readme_row():
    answers = [["good", None, 0, ""]] * 458 + [["bad", 13, 1, ""], ["bad", 22, 1, ""]]
    assert workloads.census_totals(answers) is None
    assert workloads.census_totals(answers[1:]) is not None


def test_long_sample_depends_only_on_seed():
    pool = [format(i, "032b") for i in range(2048)]
    assert workloads.long_sample(pool, 7) == workloads.long_sample(pool, 7)
    assert workloads.long_sample(pool, 7) != workloads.long_sample(pool, 8)


def test_percentile_interpolates():
    assert run.percentile([3.0], 99) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile([0.0, 10.0], 99) == 9.9


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-big", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_spec_names_every_metric_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    job = run.Job([0.0, 0.1], [0.1, 0.2], 2, 0, [], 0, scaled=[0.1, 0.2])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end_metrics([job], [0.5]))

    small = _small_census(8)
    tracer = spans.Tracer(small.name)
    traced = run.run_job(small, tracer)
    metrics = run.layer_metrics(tracer, traced, run.run_job(small))
    assert [m["name"] for m in spec["per_layer"]] == list(metrics) + ["failed_share"]
    assert metrics["structural.classify.calls"][0] == 8
    assert metrics["trace.layer_self_share"][0] > 0.9


def test_sampler_scales_by_the_probes_inside_a_span():
    sampler = speed.Sampler(Path("unused"))
    sampler.at = [float(t) for t in range(10)]
    sampler.took = [{"int": 0.002, "objects": 0.001, "memory": 0.0} for _ in range(10)]
    sampler.took[4] = {"int": 0.004, "objects": 0.002, "memory": 0.0}
    reference = speed.REFERENCE_S["int"] + speed.REFERENCE_S["objects"]
    # five or more samples inside the span: their median
    assert sampler.scale(2.0, 8.0, ("int", "objects")) == reference / 0.003
    # fewer inside: the five nearest the middle, here 2..6
    assert sampler.scale(4.0, 4.5, ("int", "objects")) == reference / 0.003


def test_sampler_process_records_probes_and_stops(tmp_path):
    with speed.Sampler(tmp_path / "probes.txt") as sampler:
        time.sleep(3 * speed.PROBE_EVERY_S)
    assert sampler.proc.returncode is not None
    assert len(sampler.took) >= 2
    assert set(sampler.took[0]) == set(speed.PROBES)
