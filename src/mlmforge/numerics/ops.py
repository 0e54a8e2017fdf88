"""Dense tensor primitives with explicit forward and backward passes.

Every op but three is pure to its callers: it never modifies an input and
writes only into arrays it allocated itself. `add_bias` adds the bias in
place into x and returns x, so its caller passes a product it owns (every
caller passes a fresh `matmul` product). `cross_entropy` computes the
log-probabilities in place over its logits and caches them, so its caller
hands the logits over; `cross_entropy_backward` turns them into the
gradient in place, so a loss cache serves one backward. Every backward
takes the upstream gradient (plus whatever the forward cached) and returns
gradients for each input, so a scalar loss can be differentiated end to
end without an autodiff graph. Every forward checks its output for
NaN/Inf, except inside `unchecked()`, where a training step runs its ops
and then checks the loss and the gradients once (see `training`).

The elementwise ops reuse their own fresh temporaries through `out=` and
in-place ufuncs instead of allocating one array per subexpression. Each
keeps the operation order of the plain expression in its comment, so the
float bits are the same; only commutative swaps and exact products with
0.5 are reordered. `gelu` and `gelu_backward` run their chains over
`params._row_blocks`, blocks of rows of at most `params._L2_BLOCK`
elements that Adam walks too, so a block's operands stay in L2; blocking
changes no element's operations. Layer norm is not blocked: its
(rows, hidden) arrays already fit in L2. The embedding backward scatters
into the flat table in the order of the row-wise scatter, with the same
bits as the plainer form.

The dropout mask reads one 32-bit lane of the generator's raw words per
cell (4 transient bytes, where a float64 uniform took 8) and keeps the
thresholded bits alone, one byte a cell. Applying it multiplies by the
bits and then by 1/(1-p): x * 1 * s and x * 0 * s are the bits of x times
a mask that holds s or 0, so no output bit depends on which is held. No
rng draws no mask, and a missing mask (None) is the identity: dropout's
forward and backward then return their input.

Cross-entropy sums its exponentials over the same row blocks, so the one
(n, n_class) array a loss and its backward hold is the logits buffer:
logits, then log-probabilities, then their gradient.

`gelu_recompute` rebuilds gelu's output from the (x, t) it cached, by the
forward's own last three ops, so a caller that needs the output again in
its backward can drop it in between (the recompute-instead-of-store trade
of Chen et al. 2016) and get the same bytes back.

Compute dtype follows the inputs: float32 for training, float64 for
gradient-check mode.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from ..errors import ConfigError, DataError, NonFiniteError, ShapeError
from .params import _row_blocks

LAYER_NORM_EPS = 1e-12
IGNORE_ID = -100  # MLM label of a position with no target; never passed to cross_entropy

_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


# Whether ensure_finite checks. A context variable, like numpy's errstate:
# `unchecked()` switches it off for one block in one thread or task only.
_checking = ContextVar("mlmforge_ops_checking", default=True)


def ensure_finite(op: str, arr) -> np.ndarray:
    if _checking.get() and not np.isfinite(arr).all():
        raise NonFiniteError(f"{op}: produced non-finite values")
    return arr


@contextmanager
def unchecked():
    """Within the block, ensure_finite passes every output through unchecked."""
    token = _checking.set(False)
    try:
        yield
    finally:
        _checking.reset(token)


# --- matmul ---------------------------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; either b is a plain matrix or both carry identical batch dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands need >= 2 dims, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: mismatched batch dims {a.shape} and {b.shape}")
    return ensure_finite("matmul", a @ b)


def matmul_backward(dout: np.ndarray, a: np.ndarray, b: np.ndarray):
    if b.ndim == 2:
        da = dout @ b.T
        db = a.reshape(-1, a.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    else:
        da = dout @ b.swapaxes(-1, -2)
        db = a.swapaxes(-1, -2) @ dout
    return da, db


# --- bias -----------------------------------------------------------------

def add_bias(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x + b, added in place into x, which is returned."""
    if b.shape != (x.shape[-1],):
        raise ShapeError(f"add_bias: bias {b.shape} does not fit input {x.shape}")
    x += b
    return ensure_finite("add_bias", x)


def add_bias_backward(dout: np.ndarray):
    return dout, dout.reshape(-1, dout.shape[-1]).sum(axis=0)


# --- softmax ---------------------------------------------------------------

def softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis. -inf entries come out exactly 0."""
    # e = exp(x - max(x)); e / sum(e)
    e = np.subtract(x, np.max(x, axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return ensure_finite("softmax", e)


def softmax_backward(dout: np.ndarray, probs: np.ndarray) -> np.ndarray:
    # probs * (dout - sum(dout * probs))
    out = np.multiply(dout, probs)
    dot = out.sum(axis=-1, keepdims=True)
    np.subtract(dout, dot, out=out)
    out *= probs
    return out


# --- layer norm -------------------------------------------------------------

def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize the last axis to zero mean / unit variance (eps =
    LAYER_NORM_EPS), then scale-shift.

    Returns (out, cache) where cache feeds layer_norm_backward.
    """
    # d = x - mean(x); xhat = d * (1 / sqrt(mean(d * d) + eps)); out = xhat * gain + bias
    xhat = np.subtract(x, x.mean(axis=-1, keepdims=True))
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return ensure_finite("layer_norm", out), (xhat, inv, gain)


def layer_norm_backward(dout: np.ndarray, cache):
    # dxhat = dout * gain; dx = inv * (dxhat - s1 / h - xhat * s2 / h)
    xhat, inv, gain = cache
    h = xhat.shape[-1]
    dx = np.multiply(dout, gain)
    tmp = np.multiply(dout, xhat)
    dgain = tmp.reshape(-1, h).sum(axis=0)
    dbias = dout.reshape(-1, h).sum(axis=0)
    s1 = dx.sum(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=tmp)
    s2 = tmp.sum(axis=-1, keepdims=True)
    np.multiply(xhat, s2, out=tmp)
    tmp /= h
    dx -= s1 / h
    dx -= tmp
    dx *= inv
    return dx, dgain, dbias


# --- activations ------------------------------------------------------------

def gelu(x: np.ndarray):
    """Gaussian error linear unit, tanh form with the 0.044715 cubic term.

    Returns (out, cache) where cache feeds gelu_backward.
    """
    # 0.5 * x * (1 + t), t = tanh(_GELU_C * (x + _GELU_A * x * x * x))
    t = np.empty(x.shape, x.dtype)
    out = np.empty_like(t)
    view, blocks = _row_blocks(x.shape)
    xs, ts, outs = x.reshape(view), t.reshape(view), out.reshape(view)
    for b in blocks:
        xb, tb = xs[b], ts[b]
        np.multiply(xb, _GELU_A, out=tb)
        tb *= xb
        tb *= xb
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        _gelu_out(xb, tb, outs[b])
    return ensure_finite("gelu", out), (x, t)


def _gelu_out(x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """gelu's last three ops: out = (t + 1) * 0.5 * x."""
    np.add(t, 1.0, out=out)
    out *= 0.5
    out *= x


def gelu_recompute(cache) -> np.ndarray:
    """gelu's output, rebuilt from the (x, t) it cached by its own last
    three ops in the same order, so byte for byte the forward's output:
    a caller can drop the output and recompute it for its backward."""
    x, t = cache
    out = np.empty_like(t)
    _gelu_out(x, t, out)
    return out


def gelu_backward(dout: np.ndarray, cache) -> np.ndarray:
    # dout * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner),
    # dinner = _GELU_C * (1 + 3 * _GELU_A * x * x)
    x, t = cache
    out = np.empty_like(t)
    view, blocks = _row_blocks(t.shape)
    # one scratch: dinner, then 0.5 * (1 + t); rest goes into out's block
    xs, ts, douts, outs = x.reshape(view), t.reshape(view), dout.reshape(view), out.reshape(view)
    scratch = np.empty_like(ts[blocks[0]])
    for b in blocks:
        xb, tb, ob = xs[b], ts[b], outs[b]
        sb = scratch[:len(xb)]
        np.multiply(xb, 3.0 * _GELU_A, out=sb)
        sb *= xb
        sb += 1.0
        sb *= _GELU_C
        np.multiply(tb, tb, out=ob)
        np.subtract(1.0, ob, out=ob)
        ob *= 0.5
        ob *= xb
        ob *= sb
        np.add(tb, 1.0, out=sb)
        sb *= 0.5
        sb += ob
        np.multiply(sb, douts[b], out=ob)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    return ensure_finite("tanh", np.tanh(x))


def tanh_backward(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    return dout * (1.0 - out * out)


# --- embeddings -------------------------------------------------------------

def embedding_lookup(table: np.ndarray, ids) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: ids outside [0, {table.shape[0]}) for table {table.shape}"
        )
    return ensure_finite("embedding_lookup", table[ids])


def embedding_lookup_backward(dout: np.ndarray, ids, n_rows: int) -> np.ndarray:
    """The (n_rows, h) gradient of the table: each id's row sums its dout
    rows in input order. One flat `np.add.at` over the cells
    `id * h + column` gives every cell its terms in the order of the 2-D
    row-wise `np.add.at`, so the bits are the same, at a fraction of the
    cost."""
    h = dout.shape[-1]
    dtable = np.zeros((n_rows, h), dtype=dout.dtype)
    cells = np.multiply(np.asarray(ids).reshape(-1, 1), h, dtype=np.intp) + np.arange(h)
    np.add.at(dtable.reshape(-1), cells.reshape(-1), dout.reshape(-1))
    return dtable


# --- cross entropy ----------------------------------------------------------

def cross_entropy(logits: np.ndarray, targets):
    """Mean negative log-likelihood of (n, n_class) logits at n targets in
    [0, n_class). Callers gather the rows that carry a label first.

    The log-probabilities are computed in place over `logits`, which the
    cache keeps as them: the caller hands its logits over to the loss.
    Returns (loss, cache).
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != logits.shape[:1]:
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} do not match targets {targets.shape}"
        )
    n, n_class = logits.shape
    if n == 0:
        raise DataError("cross_entropy: no rows")
    if targets.min() < 0 or targets.max() >= n_class:
        raise ShapeError(f"cross_entropy: target id outside [0, {n_class})")
    # logp = (x - max(x)) - log(sum(exp(x - max(x)))), the sum over row blocks
    logp = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
    sums = np.empty((n, 1), logp.dtype)
    _, blocks = _row_blocks(logp.shape)
    scratch = np.empty_like(logp[blocks[0]])
    for b in blocks:
        rows = logp[b]
        np.exp(rows, out=scratch[:len(rows)]).sum(axis=-1, keepdims=True, out=sums[b])
    logp -= np.log(sums, out=sums)
    loss = -logp[np.arange(n), targets].sum() / n
    ensure_finite("cross_entropy", loss)
    return float(loss), (logp, targets)


def cross_entropy_backward(cache) -> np.ndarray:
    """(exp(logp) - onehot(targets)) / n, computed in place on the cached
    logp: a cache serves one backward."""
    logp, targets = cache
    n = logp.shape[0]
    d = np.exp(logp, out=logp)
    d[np.arange(n), targets] -= 1.0
    d /= n
    return d


# --- dropout (inverted scaling) --------------------------------------------

def dropout_keep(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """The dropout mask for an input of `shape`: a bool array, one byte a
    cell, True where an element is kept.

    Each element, in C order, reads one 32-bit lane of
    `rng.bit_generator.random_raw` and is dropped when the lane is below
    ceil(p * 2**32), so the drop probability is p to within 2**-32. A 64-bit
    word gives two lanes, low half first; MT19937, whose words hold 32 bits,
    gives one. The threshold is compared as a Python int, so at 2**32
    (p > 1 - 2**-32) every lane is below it rather than a wrapped uint32.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    n = int(np.prod(shape))
    bits = rng.bit_generator
    if isinstance(bits, np.random.MT19937):
        lanes = bits.random_raw(n).astype(np.uint32)
    else:
        lanes = bits.random_raw(-(-n // 2)).astype("<u8", copy=False).view("<u4")[:n]
    return np.greater_equal(lanes, math.ceil(p * 2**32)).reshape(shape)


def apply_dropout(x: np.ndarray, keep: np.ndarray | None, p: float) -> np.ndarray:
    """x * keep * (1/(1-p)), the scale rounded once to x's dtype: x times
    the kept bits (1 or 0), then times the scale. x * 1 * s is x * s and
    x * 0 * s is x * 0, so the bits are those of x times a float mask that
    holds s or 0. With no mask (keep None) it is x itself. Dropout's
    forward and backward are both this map."""
    if keep is None:
        return x
    dtype = x.dtype.type
    out = keep.astype(x.dtype)
    out *= x
    out *= dtype(1) / dtype(1 - p)
    return out


def dropout(x: np.ndarray, p: float, rng: np.random.Generator | None):
    """Returns (out, keep): keep is `dropout_keep`'s mask, out the kept
    elements of x scaled by 1/(1-p). With no rng, keep is None and out is x."""
    keep = None if rng is None else dropout_keep(x.shape, p, rng)
    return apply_dropout(x, keep, p), keep


def dropout_backward(dout: np.ndarray, keep: np.ndarray | None, p: float) -> np.ndarray:
    return apply_dropout(dout, keep, p)
