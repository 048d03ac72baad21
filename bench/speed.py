"""Reference probes that track how fast the machine runs at the moment.

On a shared machine the same job can take twice as long from one minute to
the next: on the 2-vCPU Xeon VM this benchmark was written on, one
classify-census job took anywhere from 4.1 s to 8.1 s, and a fresh import
from 0.28 s to 0.67 s.  The benchmark therefore runs a sampler process on the
same processor as the work.  Every PROBE_EVERY_S it times three fixed probes
in CPU time (so waiting for the processor is not counted):

    int      pure-Python integer and bit operations
    objects  small frozen dataclasses, dicts, sets and a sort
    memory   one numpy pass over an 8 MiB array

Work of different kinds slows by different amounts when the machine is busy,
so each workload names the probes that resemble its work, and each time it
measures is scaled to their reference duration:

    reported = measured * reference / median(probe durations during it)

where a probe duration is the sum of the named probes, and the NEAREST
samples around the measured span are used when fewer fell inside it.  The
probes are benchmark code, so the scaling is the same for every commit
compared.  Raw times are printed and saved next to the scaled ones.

    python3 bench/speed.py OUT_FILE     # the sampler; runs until terminated
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Each probe's usual duration on the 2-vCPU Xeon VM when quiet, in seconds.
REFERENCE_S = {"int": 0.00075, "objects": 0.001, "memory": 0.0008}
PROBE_EVERY_S = 0.25
NEAREST = 5

_ARRAYS: list[np.ndarray] = []  # made on first use, so only the sampler holds them


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


def _int_work() -> None:
    acc = 0
    for i in range(6000):
        acc ^= (i * 2654435761) >> (i & 7)


def _object_work() -> None:
    by_key = {}
    seen = set()
    acc = 0
    for i in range(800):
        p = _Pair(i & 0xFF, (i ^ acc) >> 2)
        acc ^= (i * 2654435761) >> (i & 7)
        by_key[p.a] = p
        seen.add((p.b, i & 31))
    sorted(seen)


def _memory_work() -> None:
    if not _ARRAYS:
        _ARRAYS.extend([np.arange(1 << 20, dtype=np.int64), np.zeros(1 << 20, dtype=np.int64)])
    np.bitwise_xor(_ARRAYS[0], 3, out=_ARRAYS[1])


PROBES = {"int": _int_work, "objects": _object_work, "memory": _memory_work}


def probe() -> dict[str, float]:
    """CPU seconds taken by each probe."""
    out = {}
    for name, work in PROBES.items():
        t0 = time.thread_time()
        work()
        out[name] = time.thread_time() - t0
    return out


class Sampler:
    """Runs the sampler process for the duration of a `with` block.

    The process inherits the caller's processor affinity.  After the block,
    `scale(start, end, kinds)` gives the factor for a time measured over that
    span of `time.perf_counter()`, which is the same clock in every process.
    """

    def __init__(self, path: Path):
        self.path = path
        self.at: list[float] = []
        self.took: list[dict[str, float]] = []

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=60)
        lines = self.path.read_text().splitlines() if self.path.exists() else []
        for line in lines:
            fields = line.split()
            if len(fields) == 1 + len(PROBES):  # the last line may be cut short
                self.at.append(float(fields[0]))
                self.took.append(dict(zip(PROBES, map(float, fields[1:]))))

    def scale(self, start: float, end: float, kinds) -> float:
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.at) - NEAREST))
            hi = lo + NEAREST
        took = statistics.median(sum(t[k] for k in kinds) for t in self.took[lo:hi])
        return sum(REFERENCE_S[k] for k in kinds) / took


def sample_forever(path: Path) -> None:
    """Sample until terminated, or until the benchmark that started it is gone."""
    parent = os.getppid()
    with open(path, "w") as fh:
        while os.getppid() == parent:
            took = probe()
            fh.write(" ".join([repr(time.perf_counter())]
                              + [repr(took[k]) for k in PROBES]) + "\n")
            fh.flush()
            time.sleep(PROBE_EVERY_S)


if __name__ == "__main__":
    sample_forever(Path(sys.argv[1]))
