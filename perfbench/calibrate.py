"""Host-speed control for a shared, noisy host.

On a VM whose vCPUs share physical cores with other tenants (measured on a
2-vCPU Xeon VM), pure-Python code runs up to twice as slow on a vCPU whose
core is busy, and BLAS code about a third slower. Which vCPU is contended
changes from second to second, and the host as a whole drifts by ~40 % over
tens of minutes. Two measures keep the numbers steady:

- `CpuPicker` pins the run, before each pass, to the CPU on which a short
  reference runs fastest.
- `HostSpeed` times a tiny fixed reference of the workload's kind of code
  (numeric or pure Python) at every step boundary, outside the step span.
  A run scales all its times, set-up included, by NOMINAL / (median
  reference time), so they read as times on the host at its usual speed.

The references are written here and use no mlmforge code. A change to
mlmforge therefore moves the scaled times exactly as much as the raw ones,
while a slow spell slows the steps and the reference alike and cancels. The
raw times are printed next to the scaled ones.
"""

import os
import statistics
import time

import numpy as np

_WORDS = ["".join("abcdefghij"[(i * 7 + k * 3) % 10] for k in range(3 + i % 9)) + str(i)
          for i in range(8192)]
_TABLE = {w: i for i, w in enumerate(_WORDS)}
_A = np.random.default_rng(0).standard_normal((768, 128), dtype=np.float32)
_B = np.random.default_rng(1).standard_normal((128, 768), dtype=np.float32)


def _python_reference() -> None:
    """Longest-prefix dict lookups, like WordPiece."""
    for w in _WORDS[:600]:
        for j in range(len(w), 0, -1):
            if w[:j] in _TABLE:
                break


def _numeric_reference() -> None:
    """A GEMM and softmax-style passes, like an encoder layer."""
    c = _A @ _B
    c -= c.max(axis=1, keepdims=True)
    np.exp(c, out=c)
    c /= c.sum(axis=1, keepdims=True)


REFERENCES = {"python": _python_reference, "numeric": _numeric_reference}
# Typical median reference time on the 2-vCPU Xeon VM the bounds were set on.
NOMINAL_S = {"python": 0.00025, "numeric": 0.0035}


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class HostSpeed:
    """Times of one kind of reference, sampled once per step through a run."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.total = 0.0  # seconds spent in references

    def sample(self) -> None:
        t = _time(REFERENCES[self.kind])
        self.samples.append(t)
        self.total += t

    def scale(self) -> float:
        """Factor that turns this run's raw times into times at NOMINAL speed."""
        return NOMINAL_S[self.kind] / statistics.median(self.samples)


class CpuPicker:
    """Chooses, before each pass, the CPU on which the Python reference runs fastest."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.chosen: list[int] = []

    def pin_fastest(self) -> None:
        best, best_t = self.cpus[0], float("inf")
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            t = statistics.median(_time(_python_reference) for _ in range(15))
            if t < best_t:
                best, best_t = cpu, t
        os.sched_setaffinity(0, {best})
        self.chosen.append(best)
