"""Finite-difference verification of analytic gradients.

Central differences (f(x+h) - f(x-h)) / 2h on a sampled subset of
coordinates per tensor, compared against the gradients the backward pass
produced. Runs in 64-bit only; 32-bit stores give meaningless differences
at usable step sizes. The probes run with the ops' output checks off, and
a probe loss that is not finite is a NonFiniteError naming the coordinate.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError, DeterminismError, NonFiniteError
from . import ops
from .params import ParameterStore

# Relative error denominator floor: below this gradient magnitude the
# comparison is effectively absolute, which keeps finite-difference roundoff
# on near-zero coordinates from registering as spurious relative error.
SCALE_FLOOR = 1e-3


@dataclass
class TensorCheck:
    name: str
    max_rel_err: float
    n_checked: int
    passed: bool


@dataclass
class GradCheckReport:
    tol: float
    tensors: list[TensorCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((t.max_rel_err for t in self.tensors), default=0.0)

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tensors)

    def summary(self) -> str:
        lines = [
            f"{'PASS' if t.passed else 'FAIL'}  {t.name}: "
            f"max_rel_err={t.max_rel_err:.3e} over {t.n_checked} coords"
            for t in self.tensors
        ]
        return "\n".join(lines)


def grad_check(
    f: Callable[[ParameterStore], float],
    store: ParameterStore,
    h: float = 1e-5,
    tol: float = 1e-4,
    coords_per_tensor: int = 64,
    seed: int = 0,
    loss_fn: Callable[[ParameterStore], float] | None = None,
    scale_floor: float = SCALE_FLOOR,
) -> GradCheckReport:
    """Compare f's backward pass against central differences.

    f(store) must return a scalar loss and leave gradients accumulated in
    the store. loss_fn, when given, is a forward-only variant used for the
    probe evaluations; it must compute the identical loss.
    """
    for name, p in store.items():
        if p.value.dtype != np.float64:
            raise ConfigError(f"grad_check requires a float64 store; '{name}' is {p.value.dtype}")
    probe = loss_fn if loss_fn is not None else f

    store.zero_grads()
    loss_a = float(f(store))
    analytic = {name: p.grad.copy() for name, p in store.items()}
    store.zero_grads()
    loss_b = float(f(store))
    if loss_a != loss_b:
        raise DeterminismError(
            f"loss function is not deterministic: {loss_a!r} != {loss_b!r}"
        )
    store.zero_grads()

    rng = np.random.default_rng(seed)
    report = GradCheckReport(tol=tol)
    for name, p in store.items():
        flat = p.value.reshape(-1)
        n = min(coords_per_tensor, flat.size)
        idx = rng.choice(flat.size, size=n, replace=False)
        a_flat = analytic[name].reshape(-1)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            with ops.unchecked():
                flat[i] = orig + h
                lp = float(probe(store))
                flat[i] = orig - h
                lm = float(probe(store))
                flat[i] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                at = [int(c) for c in np.unravel_index(i, p.value.shape)]
                raise NonFiniteError(f"grad_check: probe loss at {name}{at} is not finite")
            fd = (lp - lm) / (2.0 * h)
            a = a_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), scale_floor)
            if rel > worst:
                worst = rel
        report.tensors.append(TensorCheck(name, worst, n, worst < tol))
    store.zero_grads()
    return report
