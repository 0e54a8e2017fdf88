"""Named parameter tensors with gradient buffers and Adam optimizer state.

Adam updates each tensor in blocks of rows that fit in L2 (`_row_blocks`,
the one block rule that `ops` and `encoder` use too), or only the rows a
caller names as the ones that can move; either way every element gets the
operations of one whole-tensor update, so the bits are the same.
"""

import math
from dataclasses import dataclass

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


# Elements per block of an elementwise chain (Adam here; gelu and
# cross-entropy in `ops`, the tied MLM gradient in `encoder`): a block's
# operands and scratch stay in L2, where a whole 8192 x 128 tok_emb's or
# 768 x 512 FFN activation's do not.
_L2_BLOCK = 1 << 16


def _row_blocks(shape):
    """The 2-D (rows, last axis) shape of an array of `shape` and slices of
    its rows, each block at most `_L2_BLOCK` elements (one row if a row is
    longer), so an elementwise chain keeps its working set in L2."""
    width = shape[-1] if shape else 1
    rows = math.prod(shape) // max(width, 1)
    step = max(1, _L2_BLOCK // max(width, 1))
    return (rows, width), [slice(lo, lo + step) for lo in range(0, max(rows, 1), step)]


def _adam_update(p: Param, lr_over_bc1: float, inv_bc2: float) -> None:
    """The Adam update of p's value and moments from p.grad, which it uses as
    scratch, over the `_row_blocks` of the tensor. Every element sees the
    same operations in the same order whatever the blocking, so the bits do
    not depend on it."""
    view, blocks = _row_blocks(p.value.shape)
    arrays = [a.reshape(view) for a in (p.grad, p.adam_m, p.adam_v, p.value)]
    for b in blocks:
        g, m, v, value = (a[b] for a in arrays)
        # one scratch array per block: first (1 - beta1) * g, then the update
        upd = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += upd
        v *= ADAM_BETA2
        # grad block doubles as g*g scratch; the caller zeroes it
        g *= g
        g *= 1.0 - ADAM_BETA2
        v += g
        np.multiply(v, inv_bc2, out=upd)
        np.sqrt(upd, out=upd)
        upd += ADAM_EPS
        np.divide(m, upd, out=upd)
        upd *= lr_over_bc1
        value -= upd


def adam_step(store: ParameterStore, lr: dict[str, float],
              rows: dict[str, np.ndarray] | None = None) -> None:
    """One bias-corrected Adam update per parameter at its rate `lr[name]`.

    theta -= lr * m_hat / (sqrt(v_hat) + eps), with beta1, beta2 and eps
    the module's ADAM_* constants. Grads are zeroed afterwards and
    step_count advances by exactly one. `lr` must name exactly the store's
    parameters.

    `rows` maps a parameter to the sorted leading-axis rows that may hold a
    nonzero grad or moment; its other rows must hold +0 in all three, where
    the update is exactly +0, so they are skipped. The named rows are
    gathered, updated by the same operations and scattered back.
    """
    if lr.keys() != store.entries.keys():
        name = next(n for n in {**store.entries, **lr} if (n in lr) != (n in store))
        raise ConfigError(f"adam_step lr must name exactly the store's parameters: '{name}' "
                          + ("has no rate" if name in store else "is not a parameter"))
    rows = rows or {}
    for name, r in rows.items():
        n = store[name].value.shape[0]
        if (r.ndim != 1 or r.dtype.kind not in "iu"
                or (r.size and (r[0] < 0 or r[-1] >= n or (np.diff(r) <= 0).any()))):
            raise ConfigError(f"adam_step rows of '{name}' must be sorted, distinct "
                              f"integers in [0, {n})")
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    inv_bc2 = 1.0 / bc2
    for name, p in store.entries.items():
        r = rows.get(name)
        if r is None:
            _adam_update(p, lr[name] / bc1, inv_bc2)
            p.grad[...] = 0
        else:
            part = Param(p.value[r], p.grad[r], p.adam_m[r], p.adam_v[r])
            _adam_update(part, lr[name] / bc1, inv_bc2)
            p.value[r], p.adam_m[r], p.adam_v[r] = part.value, part.adam_m, part.adam_v
            p.grad[r] = 0
