"""A reference task that runs beside every timed command and measures the CPU's speed.

On a shared host the CPU time of the same work swings by up to a factor
of two within minutes, with what other tenants run on the same physical
core. A reference measured before or after a command tracks that only
loosely. So ``run.py`` pins itself to one CPU and starts this module as a
process there (``Pacer``): the task below runs in a loop and logs its CPU
clock after every chunk. Every command the benchmark times runs on the
same CPU, and the kernel's scheduler alternates between the command and
the task every few milliseconds, so both see the same conditions. A
command's CPU time divided by the task's CPU time per chunk over the same
interval (``Pacer.speed``) varies by a few per cent where the raw CPU time
varies by tens.

The task does the kinds of work the CLI does: it formats and parses a
table of runs as CSV text, groups the rows by instance in dicts, sorts
them, and scores pairs of columns under several tie thresholds in a loop
of small function calls. It uses no solvereval code, so no change to the
program changes it; a change to the task changes every scaled figure.

    python3 bench/reference.py LOG   # the loop; Pacer starts and stops it
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time
from pathlib import Path

# The CPU time one chunk is defined to take: scaled times read as CPU
# seconds on a machine that runs a chunk in this much time.
CHUNK_S = 0.025
_ROWS, _COLS, _THRESHOLDS = 240, 8, 8
_CHECKSUM = 28601.0  # one chunk's result; any change to the task changes it
MIN_CHUNKS = 4  # chunks a window is widened to cover
START_TIMEOUT_S = 30.0


def _table(rows: int, cols: int) -> list[str]:
    x, lines = 12345, []
    for i in range(rows):
        for j in range(cols):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            time_s = "" if x % 4 == 0 else f"{(x % 100000) / 1000.0:.3f}"
            lines.append(f"i{i:04d},s{j:02d},{time_s},{x % 3}")
    return lines


def _pair(a: float | None, b: float | None, delta: float) -> float:
    if a is None:
        return 0.0 if b is None else -1.0
    if b is None:
        return 1.0
    if abs(a - b) <= delta:
        return 0.5 * b / (a + b) if a + b > 0 else 0.0
    return 1.0 if a < b else 0.0


def chunk() -> float:
    """Run one chunk of the reference work and return its checksum."""
    by_instance: dict[str, dict[str, float | None]] = {}
    for line in _table(_ROWS, _COLS):
        inst, solver, time_s, _ = line.split(",")
        by_instance.setdefault(inst, {})[solver] = float(time_s) if time_s else None
    rows = [[runs[s] for s in sorted(runs)] for _, runs in sorted(by_instance.items())]
    total = 0.0
    for k in range(_THRESHOLDS):
        delta = k / 4.0
        for j in range(_COLS):
            for row in rows:
                a = row[j]
                for other in range(_COLS):
                    if other != j:
                        total += _pair(a, row[other], delta)
    return round(total, 3)


class Pacer:
    """The reference loop as a process on this process's CPUs, for ``speed``.

    Pin this process to one CPU first; the loop inherits the pinning.
    ``perf_counter`` is the system's monotonic clock, so the loop's
    timestamps and this process's compare directly.
    """

    def __init__(self, log: Path):
        self.log = log
        self.stamps: list[float] = []  # wall clock at the end of each chunk
        self.clocks: list[float] = []  # the loop's CPU clock at the same moments
        self.proc = subprocess.Popen([sys.executable, __file__, str(log)])

    def __enter__(self) -> "Pacer":
        deadline = time.perf_counter() + START_TIMEOUT_S
        while self._lines() < 2:  # its first chunks ran and matched the checksum
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError(f"reference loop did not start (exit code {self.proc.returncode})")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _lines(self) -> int:
        try:
            return self.log.read_bytes().count(b"\n")
        except OSError:
            return 0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.log.exists():
            for line in self.log.read_text().splitlines():
                stamp, clock = line.split()
                self.stamps.append(float(stamp))
                self.clocks.append(float(clock))

    def speed(self, start: float, end: float) -> float:
        """``CHUNK_S`` over the loop's CPU time per chunk between two ``perf_counter`` readings.

        A window with fewer than ``MIN_CHUNKS`` chunk ends is widened evenly
        on both sides until it has them. Multiply a CPU time measured in the
        window by this to scale it to the reference speed.
        """
        if len(self.stamps) < MIN_CHUNKS:
            raise RuntimeError(f"reference loop logged only {len(self.stamps)} chunks")
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_CHUNKS:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.stamps))
        return CHUNK_S * (hi - lo - 1) / (self.clocks[hi - 1] - self.clocks[lo])


def _loop(log: str) -> None:
    parent = os.getppid()
    with open(log, "w", buffering=1) as out:
        while os.getppid() == parent:  # ends by itself if the benchmark dies
            if chunk() != _CHECKSUM:
                sys.exit("reference chunk returned a wrong checksum")
            out.write(f"{time.perf_counter()!r} {time.process_time()!r}\n")


if __name__ == "__main__":
    _loop(sys.argv[1])
