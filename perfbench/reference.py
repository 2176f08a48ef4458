"""Reference kernel: a fixed piece of work that measures the host's speed.

On a shared host, other tenants' load on the cores, caches and memory
changes how fast the same work runs, by up to 2x over minutes on a
2-vCPU Xeon virtual machine. The kernel shares no code with ppsrelax, so
its time moves with the host's speed and not with the program under
test. It mixes what the workloads spend their time on: many small Python
objects kept alive and then freed, float formatting into CSV text, and
numpy operations on 801-point arrays.

Run as a script, it serves timings over a pipe: each line read from
stdin runs the kernel once and prints its seconds; end of input ends it.
``SpeedProbe`` runs that server and asks it for timings.

    python3 perfbench/reference.py

numpy is imported inside ``kernel``, so that importing this module does
not pull it into a process whose set-up time is measured.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Nominal duration of ``kernel``: its time on an unloaded 2-vCPU Xeon
#: host. ``run.py`` scales measured times to this speed.
REFERENCE_S = 0.3

_RATES = [[0.3, 0.01, 0.1], [0.01, 0.3, 0.03], [0.1, 0.03, 0.35]]


class _Cell:
    __slots__ = ("t", "a", "b")

    def __init__(self, t: float, a: float, b: float) -> None:
        self.t, self.a, self.b = t, a, b


def kernel() -> float:
    """Seconds taken by one run of the fixed work."""
    import numpy as np

    rates = np.array(_RATES)
    start = time.perf_counter()
    rows = []
    for i in range(100_000):
        cell = _Cell(i * 1e-3, 1.0 / (1.0 + i * 1e-3), (i % 7) * 0.5)
        rows.append((cell, f"{cell.t:.12g}", f"{cell.a * cell.b:.12g}", (cell.a, cell.b)))
    acc = float(len("\n".join(",".join(row[1:3]) for row in rows)))
    del rows
    x = np.linspace(-20.0, 20.0, 801)
    for i in range(2_500):
        line = 1.0 / (1.0 + (x - 1e-3 * i) ** 2)
        acc += float(line @ x) + float(np.linalg.solve(rates, line[398:401])[0])
    elapsed = time.perf_counter() - start
    if acc != acc:
        raise RuntimeError("reference kernel produced NaN")
    return elapsed


class SpeedProbe:
    """The reference kernel, run on request in a process of its own, so
    that its memory never counts toward the calling process's peak.

    The probe process ends when its input closes: on ``close`` or, should
    this process die first, when the pipe goes with it.
    """

    def __init__(self, env: dict | None = None) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )

    def measure(self) -> float:
        """Seconds of one kernel run, taken now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main() -> None:
    for _request in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    main()
