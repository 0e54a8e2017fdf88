"""Named parameter tensors with gradient buffers and Adam optimizer state."""

from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from ..errors import ConfigError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray


class ParameterStore:
    """All model weights plus per-weight grad / Adam moment tensors.

    Single-writer: the training loop owns mutation; reads are safe between
    optimizer steps.
    """

    def __init__(self):
        self.entries: dict[str, Param] = {}
        self.step_count: int = 0

    def add(self, name: str, value: np.ndarray) -> Param:
        if name in self.entries:
            raise ConfigError(f"duplicate parameter name: {name}")
        v = np.ascontiguousarray(value)
        p = Param(v, np.zeros_like(v), np.zeros_like(v), np.zeros_like(v))
        self.entries[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        try:
            return self.entries[name]
        except KeyError:
            raise ConfigError(f"unknown parameter: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self) -> list[str]:
        return list(self.entries)

    def items(self):
        return self.entries.items()

    def zero_grads(self) -> None:
        for p in self.entries.values():
            p.grad[...] = 0

    def n_scalars(self) -> int:
        return sum(p.value.size for p in self.entries.values())

    def clone(self) -> "ParameterStore":
        """An independent copy; every tensor keeps its dtype."""
        return self._copy(lambda a: a.copy())

    def astype(self, dtype) -> "ParameterStore":
        return self._copy(lambda a: a.astype(dtype))

    def _copy(self, copy) -> "ParameterStore":
        out = ParameterStore()
        for name, p in self.entries.items():
            out.entries[name] = Param(copy(p.value), copy(p.grad), copy(p.adam_m), copy(p.adam_v))
        out.step_count = self.step_count
        return out


def resolve_groups(store: ParameterStore, lr_by_group: dict[str, float]) -> dict[str, float]:
    """Map each parameter to its one learning rate via glob patterns.

    A parameter matching zero or more than one pattern is a configuration
    error: groups must partition the name space.
    """
    resolved: dict[str, float] = {}
    for name in store.names():
        hits = [pat for pat in lr_by_group if fnmatchcase(name, pat)]
        if len(hits) != 1:
            raise ConfigError(
                f"parameter '{name}' matches {len(hits)} learning-rate groups "
                f"(patterns: {sorted(lr_by_group)})"
            )
        resolved[name] = lr_by_group[hits[0]]
    return resolved


def adam_step(
    store: ParameterStore,
    lr_by_group: dict[str, float],
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    """One bias-corrected Adam update per parameter, using its group's rate.

    theta -= lr * m_hat / (sqrt(v_hat) + eps). Grads are zeroed afterwards
    and step_count advances by exactly one.
    """
    rates = resolve_groups(store, lr_by_group)
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    inv_bc2 = 1.0 / bc2
    for name, p in store.entries.items():
        g = p.grad
        m, v = p.adam_m, p.adam_v
        # one scratch array per tensor: first (1 - beta1) * g, then the update
        upd = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += upd
        v *= beta2
        # grad buffer doubles as g*g scratch; it is zeroed below anyway
        g *= g
        g *= 1.0 - beta2
        v += g
        np.multiply(v, inv_bc2, out=upd)
        np.sqrt(upd, out=upd)
        upd += eps
        np.divide(m, upd, out=upd)
        upd *= rates[name] / bc1
        p.value -= upd
        p.grad[...] = 0
