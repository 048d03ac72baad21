"""Regenerate the stored answers in bench/expected/ from the package in src/.

    python3 bench/make_expected.py

Every benchmark run is checked against these files, so regenerate them only
at a commit whose outputs are trusted (they were made from the seed code) and
only when an output is meant to change.  Takes about a minute on 2 cores.

Files written:
  classify.tsv   pattern, verdict, index, witness count, witness digest for
                 every length-12 pattern and for a fixed pool of long
                 patterns (lengths 24..32) from which each seed draws 512
  oracle.json    Verdict and critical-pair count and digest per oracle case,
                 and the byte count and sha256 of the DOT export
  verify.jsonl   stdout of `fibocube verify --max-len 5 --suite all --format json`
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (needs the src path above)

POOL_SEED = 150100378
POOL_SIZE = 2048


def long_pool() -> list[str]:
    rng = random.Random(POOL_SEED)
    pool: dict[str, None] = {}
    while len(pool) < POOL_SIZE:
        n = rng.randint(*wl.LONG_LENGTHS)
        pool[format(rng.getrandbits(n), f"0{n}b")] = None
    return list(pool)


def main() -> int:
    wl.EXPECTED.mkdir(exist_ok=True)
    short = [format(v, f"0{wl.CENSUS_LENGTH}b") for v in range(1 << wl.CENSUS_LENGTH)]
    answers = {p: wl.classification_answer(wl.classify_pattern(wl.Word.parse(p)))
               for p in short + long_pool()}
    note = wl.census_totals(list(answers.values()))
    if note is not None:
        raise SystemExit(f"refusing to store answers: {note}")
    wl.CLASSIFY_TABLE.write_text(
        "".join(wl.format_classify_row(p, a) + "\n" for p, a in answers.items()))

    stored = {
        wl.case_label(text, d): wl.graph_answer(wl.analyse_graph(wl.Word.parse(text), d))
        for text, d in wl.ORACLE_CASES
    }
    stored[wl.GRAPH_LABEL] = wl.export_answer(wl.run_cli(wl.GRAPH_ARGV))
    wl.ORACLE_ANSWERS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    out = wl.run_cli(wl.VERIFY_ARGV)
    if out.code != 0:
        raise SystemExit(f"refusing to store answers: verify exited {out.code}")
    wl.VERIFY_STDOUT.write_text(out.text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
