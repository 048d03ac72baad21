"""The benchmark's workloads: requests, how answers are rendered, and checks.

A workload is a fixed job made of requests.  A request is one call a user
of the package would make: classify one pattern, analyse one graph, or run
one CLI command.  The benchmark times each request; after the job it renders
every result and compares it with the answer stored in expected/.  A wrong
answer or a raised exception counts as a failed request and the job goes on.

Requests reach the package through module attributes (`structural.classify`,
not a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fibocube import cli, oracle, structural
from fibocube.words import Word

EXPECTED = Path(__file__).resolve().parent / "expected"
CLASSIFY_TABLE = EXPECTED / "classify.tsv"
ORACLE_ANSWERS = EXPECTED / "oracle.json"
VERIFY_STDOUT = EXPECTED / "verify.jsonl"

CENSUS_LENGTH = 12
LONG_LENGTHS = (24, 32)
LONG_SAMPLE = 512
# The README census row for length 12: good count and index range.
CENSUS_GOOD = 458
CENSUS_INDEX_RANGE = (13, 22)

ORACLE_CASES = (("0000000", 13), ("1010101", 13), ("0110110", 13), ("0011", 7), ("0011", 10))
GRAPH_ARGV = ("graph", "0000000", "--dim", "13", "--format", "dot")
VERIFY_ARGV = ("verify", "--max-len", "5", "--suite", "all", "--workers", "1",
               "--format", "json")


@dataclass(frozen=True)
class Request:
    label: str
    call: Callable[[], object]
    render: Callable[[object], object]
    expected: object


@dataclass(frozen=True)
class Workload:
    name: str
    requests: list[Request]
    # The speed probes (see speed.py) whose kind of work this workload does.
    probes: tuple[str, ...]
    # Optional check over all rendered answers of a job; returns a failure
    # message or None.  It counts as one more attempted answer.
    totals: Callable[[list], str | None] | None = None


@dataclass(frozen=True)
class Raised:
    """Stands in for the result of a request that raised."""

    error: BaseException


@dataclass(frozen=True)
class CliOutput:
    code: int
    text: str


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# --- requests -------------------------------------------------------------

def classify_pattern(f: Word):
    return structural.classify(f)


def analyse_graph(f: Word, d: int):
    g = oracle.build_graph(f, d)
    return oracle.is_isometric(g), oracle.find_critical_pairs(g)


def run_cli(argv) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return CliOutput(code, buf.getvalue())


# --- rendering results into stored-answer form ----------------------------

def classification_answer(cls) -> list:
    """[verdict, index, witness count, digest of the witness JSON list]."""
    wits = [structural.witness_to_json_dict(w) for w in cls.witnesses]
    return [cls.verdict, cls.index, len(wits), digest(wits)]


def graph_answer(result) -> dict:
    verdict, pairs = result
    vp = verdict.violating_pair
    if vp is not None:
        a, b, dg, ham = vp
        vp = [str(a), str(b), "unreachable" if dg == math.inf else int(dg), int(ham)]
    rows = [[str(c.alpha), str(c.beta), c.p, c.blocked_side] for c in pairs]
    return {
        "isometric": bool(verdict.isometric),
        "violating_pair": vp,
        "minimal_critical_p": verdict.minimal_critical_p,
        "critical_pairs": len(rows),
        "critical_digest": digest(rows),
    }


def export_answer(out: CliOutput) -> dict:
    data = out.text.encode()
    return {"code": out.code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def stdout_answer(out: CliOutput) -> dict:
    return {"code": out.code, "stdout": out.text}


# --- stored answers -------------------------------------------------------

def read_classify_table(path: Path = CLASSIFY_TABLE) -> dict[str, list]:
    """pattern -> classification_answer, in file order."""
    table = {}
    for line in path.read_text().splitlines():
        pattern, verdict, index, count, dig = line.split("\t")
        table[pattern] = [verdict, None if index == "-" else int(index), int(count), dig]
    return table


def format_classify_row(pattern: str, answer: list) -> str:
    verdict, index, count, dig = answer
    return f"{pattern}\t{verdict}\t{'-' if index is None else index}\t{count}\t{dig}"


def case_label(text: str, d: int) -> str:
    return f"{text}-d{d}"


GRAPH_LABEL = "graph-0000000-d13-dot"
VERIFY_LABEL = "verify-max5-all"


# --- workloads ------------------------------------------------------------

def census_totals(answers: list) -> str | None:
    short = [a for a in answers[: 1 << CENSUS_LENGTH] if isinstance(a, list)]
    good = sum(1 for a in short if a[0] == "good")
    indices = [a[1] for a in short if a[0] == "bad"]
    got = (good, min(indices, default=None), max(indices, default=None))
    want = (CENSUS_GOOD,) + CENSUS_INDEX_RANGE
    return None if got == want else f"length-{CENSUS_LENGTH} totals {got}, README row {want}"


def long_sample(pool: list[str], seed: int) -> list[str]:
    """The seed's draw of long patterns from the stored pool."""
    return random.Random(seed).sample(pool, LONG_SAMPLE)


def classify_census(seed: int) -> Workload:
    table = read_classify_table()
    short = [format(v, f"0{CENSUS_LENGTH}b") for v in range(1 << CENSUS_LENGTH)]
    pool = [p for p in table if LONG_LENGTHS[0] <= len(p) <= LONG_LENGTHS[1]]
    requests = [
        Request(p, functools.partial(classify_pattern, Word.parse(p)),
                classification_answer, table[p])
        for p in short + long_sample(pool, seed)
    ]
    return Workload("classify-census", requests, ("int", "objects"), census_totals)


def oracle_big(seed: int) -> Workload:
    """Fixed job; the seed does not change it."""
    stored = json.loads(ORACLE_ANSWERS.read_text())
    requests = [
        Request(case_label(text, d), functools.partial(analyse_graph, Word.parse(text), d),
                graph_answer, stored[case_label(text, d)])
        for text, d in ORACLE_CASES
    ]
    requests.append(Request(GRAPH_LABEL, functools.partial(run_cli, GRAPH_ARGV),
                            export_answer, stored[GRAPH_LABEL]))
    return Workload("oracle-big", requests, ("int", "objects", "memory"))


def verify_sweep(seed: int) -> Workload:
    """Fixed job; the seed does not change it."""
    expected = {"code": 0, "stdout": VERIFY_STDOUT.read_text()}
    return Workload("verify-sweep", [
        Request(VERIFY_LABEL, functools.partial(run_cli, VERIFY_ARGV), stdout_answer, expected)
    ], ("int", "objects", "memory"))


WORKLOADS = {
    "classify-census": classify_census,
    "oracle-big": oracle_big,
    "verify-sweep": verify_sweep,
}


def check(workload: Workload, outcomes: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, a few failure notes) for one job's raw outcomes."""
    failed = 0
    notes: list[str] = []
    answers = []
    for req, out in zip(workload.requests, outcomes, strict=True):
        if isinstance(out, Raised):
            answer = f"raised {type(out.error).__name__}: {out.error}"
        else:
            try:
                answer = req.render(out)
            except Exception as exc:  # a result of the wrong shape is a wrong answer
                answer = f"unrenderable result: {type(exc).__name__}: {exc}"
        answers.append(answer)
        if answer != req.expected:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{req.label}: got {str(answer)[:200]}, "
                             f"expected {str(req.expected)[:200]}")
    attempted = len(outcomes)
    if workload.totals is not None:
        attempted += 1
        note = workload.totals(answers)
        if note is not None:
            failed += 1
            notes.append(note)
    return attempted, failed, notes
