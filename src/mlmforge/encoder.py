"""Bidirectional transformer encoder with MLM and [CLS]-classifier heads.

Post-layer-norm stack: summed token/position/segment embeddings, then per
layer multi-head self-attention + residual + layer norm and a gelu FFN +
residual + layer norm. The MLM projection is weight-tied to the token
embedding matrix. The classifier head is dense -> tanh -> dense on the
position-0 hidden state of the last layer.

The stack runs token-major on the real tokens of a padded batch, whose
attention_mask rows must each be a non-empty prefix of real tokens.
Row-wise layers (embeddings, the dense projections, gelu, layer norms,
residual adds, dropout) run on (n_real, width) rows. Attention runs on one
packed index set per batch (`_Rows`), like FlashAttention's cu_seqlens:
the sequences, ordered by length, form groups of one length l; q, k and v
are gathered once per layer, each group's [g, heads, n, l] scores run on
slices of them with no key mask, and the context is scattered back once.

The caller names the ascending flat [batch * seq] positions whose
last-layer states it reads (the labelled rows for MLM, row 0 for the
classifier), and only those come back. Every layer but the last runs on
every real token (n = l). The last computes keys and values for every real
token and everything else for the requested rows alone, n being the most
rows any sequence of the group asks for.

Dropout masks cover exactly the cells a layer computes, in token-major
order: one (n_real, hidden) embedding draw, then per layer one
`ops.dropout_keep` over each group's [g, heads, n, l] probabilities
(ascending l), the attention output's rows and the FFN output's rows,
split into views. So the masks are a pure function of the rng state, the
batch and the requested rows, with any bit generator.

The stack is `_embed`, then per layer the sublayers `_self_attention` and
`_feed_forward`, which take their parameter prefix (`encoder.layer2.attn`,
whose layer norm is `<prefix>_norm`). Each forward returns a named-tuple
cache for its backward, which accumulates into ParameterStore gradients.
Every op is called as `ops.<name>`, so a patch on `numerics.ops` sees all.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import ParameterStore, ops
from .tokenizer import PAD_ID

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    hidden: int = 128
    n_heads: int = 4
    ffn: int = 512
    vocab_size: int = 8192
    max_positions: int = 128
    n_segments: int = 2
    dropout: float = 0.1

    def __post_init__(self):
        for f in ("n_layers", "hidden", "n_heads", "ffn", "vocab_size", "max_positions", "n_segments"):
            if getattr(self, f) < 1:
                raise ConfigError(f"ModelConfig.{f} must be >= 1")
        if self.hidden % self.n_heads != 0:
            raise ConfigError(
                f"hidden ({self.hidden}) must be divisible by n_heads ({self.n_heads})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def base(cls, **overrides) -> "ModelConfig":
        """The 12-layer / 768-hidden / 12-head base layout."""
        kw = dict(
            n_layers=12, hidden=768, n_heads=12, ffn=3072,
            vocab_size=30522, max_positions=512,
        )
        kw.update(overrides)
        return cls(**kw)


@dataclass
class EncodedBatch:
    """Padded id matrix with attention mask (1 = real token, 0 = pad)."""

    ids: np.ndarray
    attention_mask: np.ndarray
    segment_ids: np.ndarray

    @classmethod
    def from_sequences(cls, seqs: list[list[int]]) -> "EncodedBatch":
        if not seqs:
            raise ShapeError("cannot build a batch from zero sequences")
        width = max(len(s) for s in seqs)
        n = len(seqs)
        ids = np.full((n, width), PAD_ID, dtype=np.int64)
        mask = np.zeros((n, width), dtype=np.int64)
        for i, s in enumerate(seqs):
            ids[i, : len(s)] = s
            mask[i, : len(s)] = 1
        seg = np.zeros((n, width), dtype=np.int64)
        return cls(ids=ids, attention_mask=mask, segment_ids=seg)

    def cls_rows(self) -> np.ndarray:
        """The flat [batch * seq] position of each sequence's first ([CLS])
        token."""
        n, width = np.shape(self.ids)
        return np.arange(n) * width


# --- initialization ---------------------------------------------------------

def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """Normal(0, std^2) resampled until everything lies within +-2 std.

    Each round redraws only the values that failed the round before, in
    ascending position order."""
    x = rng.normal(0.0, std, size=shape)
    flat = x.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0 * std)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[np.abs(redraw) > 2.0 * std]
    return x.astype(dtype)


def param_shapes(config: ModelConfig, n_classes: int | None = None) -> dict[str, tuple]:
    """Every parameter's shape, in init order: the encoder and the MLM head
    (its output projection is tied to encoder.tok_emb), then, given
    n_classes, the dense -> tanh -> dense classifier head."""
    h, f, v = config.hidden, config.ffn, config.vocab_size
    shapes = {
        "encoder.tok_emb": (v, h),
        "encoder.pos_emb": (config.max_positions, h),
        "encoder.seg_emb": (config.n_segments, h),
        "encoder.emb_norm.gain": (h,),
        "encoder.emb_norm.bias": (h,),
    }
    for i in range(config.n_layers):
        pre = f"encoder.layer{i}"
        shapes.update({f"{pre}.attn.{w}": (h, h) for w in ("wq", "wk", "wv", "wo")})
        shapes.update({f"{pre}.attn.{b}": (h,) for b in ("bq", "bk", "bv", "bo")})
        shapes.update({
            f"{pre}.attn_norm.gain": (h,), f"{pre}.attn_norm.bias": (h,),
            f"{pre}.ffn.w1": (h, f), f"{pre}.ffn.b1": (f,),
            f"{pre}.ffn.w2": (f, h), f"{pre}.ffn.b2": (h,),
            f"{pre}.ffn_norm.gain": (h,), f"{pre}.ffn_norm.bias": (h,),
        })
    shapes.update({"mlm.dense.w": (h, h), "mlm.dense.b": (h,), "mlm.norm.gain": (h,),
                   "mlm.norm.bias": (h,), "mlm.out_bias": (v,)})
    if n_classes is not None:
        shapes.update({"cls.dense.w": (h, h), "cls.dense.b": (h,),
                       "cls.out.w": (h, n_classes), "cls.out.b": (n_classes,)})
    return shapes


def _add_initialized(store: ParameterStore, shapes: dict[str, tuple], seed: int, dtype) -> None:
    """Matrices truncated-normal (drawn in order from one rng), layer-norm
    gains one, biases zero."""
    rng = np.random.default_rng(seed)
    for name, shape in shapes.items():
        if len(shape) == 2:
            store.add(name, _trunc_normal(rng, shape, INIT_STD, dtype))
        elif name.endswith(".gain"):
            store.add(name, np.ones(shape, dtype=dtype))
        else:
            store.add(name, np.zeros(shape, dtype=dtype))


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ParameterStore:
    """Fresh encoder + MLM head. Deterministic given the seed."""
    store = ParameterStore()
    _add_initialized(store, param_shapes(config), seed, dtype)
    return store


def init_classifier(store: ParameterStore, config: ModelConfig, n_classes: int,
                    seed: int) -> None:
    """Attach a dense -> tanh -> dense head for n_classes, in the dtype of
    encoder.tok_emb."""
    if n_classes < 2:
        raise ConfigError(f"classifier needs >= 2 classes, got {n_classes}")
    if "cls.out.b" in store:
        raise ConfigError("classifier head already initialized")
    head = {name: shape for name, shape in param_shapes(config, n_classes).items()
            if name.startswith("cls.")}
    _add_initialized(store, head, seed, store["encoder.tok_emb"].value.dtype)


def check_classifier(store: ParameterStore, n_classes: int, source: str) -> None:
    """A ConfigError unless the store has a head of the n_classes of `source`."""
    if "cls.out.b" not in store:
        raise ConfigError("no classifier head in parameter store")
    have = store["cls.out.b"].value.shape[0]
    if have != n_classes:
        raise ConfigError(f"classifier head has {have} classes but {source} has {n_classes}")


def count_params(config: ModelConfig, n_classes: int | None = None) -> int:
    """Scalar count of the allocated parameters (the tied MLM projection
    counted once, inside the token embedding)."""
    return sum(math.prod(shape) for shape in param_shapes(config, n_classes).values())


# --- encoder forward / backward ---------------------------------------------

# The caches that each forward function hands to its backward.
_GroupCache = namedtuple("_GroupCache", "qh kh vh probs probs_d keep")  # one length group
_EmbedCache = namedtuple("_EmbedCache", "seq tok_ids seg_ids positions norm keep")
_AttentionCache = namedtuple("_AttentionCache", "rows x_in xq groups ctx keep norm inv_sqrt_dh")
_FFNCache = namedtuple("_FFNCache", "x hmid gelu keep norm")
_StackCache = namedtuple("_StackCache", "emb layers")  # layers: (attention, FFN) per layer
_MLMCache = namedtuple("_MLMCache", "hidden gelu t3 norm")
_ClsCache = namedtuple("_ClsCache", "cls_vec u2")


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, s, h = x.shape
    return x.reshape(b, s, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, nh * dh)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[i] + arange(counts[i]), concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


class _Rows(NamedTuple):
    """A set of real token rows of a padded [batch, seq] batch (every real
    token, or the rows the last layer computes) as one group-major index set.

    `flat` holds their flat [batch * seq] positions, ascending (token-major
    order); `sel` their indices among every real token, or None when they
    are all of them. `by_len` orders the batch by length (a stable sort),
    and `groups` holds three arrays (g, n, l), one entry per length l,
    ascending: g sequences, the next g of `by_len`, with at most n rows
    each in the set. `tok` lists every real token's row in that order, so
    a group's tokens are the next g * l of `tok`. `cells` lists each
    sequence's n query cells, as indices in `flat`: the `gaps`, past a
    sequence's last row, hold 0, and `slots` are the other cells
    (slice(None) when there are no gaps). `_blocks` walks the groups."""

    seq: int
    flat: np.ndarray
    sel: np.ndarray | None
    by_len: np.ndarray
    groups: tuple  # (g, n, l)
    tok: np.ndarray
    cells: np.ndarray
    gaps: np.ndarray
    slots: np.ndarray | slice

    @classmethod
    def of(cls, att: np.ndarray) -> "_Rows":
        """Every real token of a batch with attention mask `att`."""
        b, s = att.shape
        real = att != 0
        lengths = real.sum(axis=1)
        bad = (lengths == 0) | (real != (np.arange(s) < lengths[:, None])).any(axis=1)
        if bad.any():
            raise ShapeError(f"attention_mask row {int(np.flatnonzero(bad)[0])} is not a "
                             "non-empty prefix of real tokens")
        by_len = np.argsort(lengths, kind="stable")
        g = np.bincount(lengths)
        ls = np.flatnonzero(g)
        tok = _ranges((np.cumsum(lengths) - lengths)[by_len], lengths[by_len])
        return cls(s, np.flatnonzero(real), None, by_len, (g[ls], ls, ls), tok, tok,
                   np.empty(0, dtype=np.intp), slice(None))

    def ask(self, want) -> "_Rows":
        """The rows at the ascending flat positions `want`, as a subset of
        this set of every real token. A position that is outside the batch,
        is not above the one before it or is not a real token is a
        ShapeError naming its batch row and position."""
        want = np.asarray(want)
        if want.ndim != 1 or (want.size and want.dtype.kind not in "iu"):
            raise ShapeError(f"rows must be a 1-d array of flat positions, got {want.shape}")
        s, b = self.seq, self.by_len.size

        def fail(k, why):
            r = int(want[k])
            raise ShapeError(f"requested row {r} (batch row {r // s}, position {r % s}) {why}")

        outside = np.flatnonzero((want < 0) | (want >= b * s))
        if outside.size:
            fail(outside[0], f"is outside the {b} x {s} batch")
        down = np.flatnonzero(want[1:] <= want[:-1])
        if down.size:
            fail(down[0] + 1, f"is not above the row before it, {int(want[down[0]])}")
        sel = np.minimum(np.searchsorted(self.flat, want), self.flat.size - 1)
        pad = np.flatnonzero(self.flat[sel] != want)
        if pad.size:
            fail(pad[0], "is a pad position")
        if sel.size == self.flat.size:
            return self

        flat = self.flat[sel]
        counts = np.bincount(flat // s, minlength=b)
        first, counts = (np.cumsum(counts) - counts)[self.by_len], counts[self.by_len]
        g, _, l = self.groups
        n = np.maximum.reduceat(counts, np.cumsum(g) - g)
        n_seq = np.repeat(n, g)
        cells = _ranges(first, n_seq)
        gap = cells >= np.repeat(first + counts, n_seq)
        cells[gap] = 0
        gaps = np.flatnonzero(gap)
        return _Rows(s, flat, sel, self.by_len, (g, n, l), self.tok, cells, gaps,
                     np.flatnonzero(~gap) if gaps.size else slice(None))

    def layer_keeps(self, rng, p: float, dtype, n_heads: int, width: int):
        """One layer's dropout masks, as views of one `ops.dropout_keep`
        over, in order: each group's [g, heads, n, l] probabilities (gaps
        included), then the attention output's and the FFN output's
        (n_rows, width) rows. Returns the group masks and the two row masks."""
        shapes = [(len(seqs), n_heads, n, l) for seqs, n, l, *_ in _blocks(self)]
        shapes += [(self.flat.size, width)] * 2
        sizes = [math.prod(shape) for shape in shapes]
        keep = ops.dropout_keep(sum(sizes), p, rng, dtype)
        masks = [part.reshape(shape) for part, shape
                 in zip(np.split(keep, np.cumsum(sizes)[:-1]), shapes)]
        return masks[:-2], masks[-2], masks[-1]


def _blocks(rows: _Rows):
    """Per group, ascending l: (seqs, n, l, cells, tok), the batch indices
    of its g sequences, n, l and the slices of `rows.cells` and `rows.tok`
    that hold its [g, n] query cells and [g, l] tokens."""
    i = c = t = 0
    for g, n, l in zip(*(a.tolist() for a in rows.groups)):
        yield rows.by_len[i:i + g], n, l, slice(c, c + g * n), slice(t, t + g * l)
        i, c, t = i + g, c + g * n, t + g * l


def _attention(rows: _Rows, q, k, v, n_heads: int, inv_sqrt_dh, keeps):
    """Self-attention of each group's query cells over its tokens, on
    [g, heads, n, l] scores with no key mask. q holds the query rows, k and
    v every token row; returns the context as query rows and, per group,
    the cache of `_attention_backward`."""
    width = q.shape[-1]
    qc, kt, vt = q[rows.cells], k[rows.tok], v[rows.tok]
    cc = np.empty_like(qc)
    caches = []
    for (seqs, n, l, cells, tok), keep in zip(_blocks(rows), keeps):
        qh = _split_heads(qc[cells].reshape(len(seqs), n, width), n_heads)
        kh, vh = (_split_heads(z[tok].reshape(len(seqs), l, width), n_heads) for z in (kt, vt))
        scores = ops.matmul(qh, kh.swapaxes(-1, -2))
        scores *= inv_sqrt_dh
        probs = ops.softmax(scores)
        probs_d = probs if keep is None else probs * keep
        cc[cells] = _merge_heads(ops.matmul(probs_d, vh)).reshape(-1, width)
        caches.append(_GroupCache(qh, kh, vh, probs, probs_d, keep))
    ctx = np.empty_like(q)
    ctx[rows.cells[rows.slots]] = cc[rows.slots]
    return ctx, caches


def _attention_backward(rows: _Rows, caches, dctx, n_heads: int, inv_sqrt_dh):
    """d/dq as query rows and d/dk, d/dv as token rows, given d/dctx."""
    width = dctx.shape[-1]
    dcc = dctx[rows.cells]
    dcc[rows.gaps] = 0
    dqc = np.empty_like(dcc)
    dkt, dvt = (np.empty((rows.tok.size, width), dtype=dctx.dtype) for _ in range(2))
    for (seqs, n, _, cells, tok), gc in zip(_blocks(rows), caches):
        dctxh = _split_heads(dcc[cells].reshape(len(seqs), n, width), n_heads)
        dprobs, dvh = ops.matmul_backward(dctxh, gc.probs_d, gc.vh)
        if gc.keep is not None:
            dprobs = ops.dropout_backward(dprobs, gc.keep)
        dscores = ops.softmax_backward(dprobs, gc.probs)
        dscores *= inv_sqrt_dh
        dqh, dkhT = ops.matmul_backward(dscores, gc.qh, gc.kh.swapaxes(-1, -2))
        dqc[cells] = _merge_heads(dqh).reshape(-1, width)
        dkt[tok] = _merge_heads(dkhT.swapaxes(-1, -2)).reshape(-1, width)
        dvt[tok] = _merge_heads(dvh).reshape(-1, width)
    dq, dk, dv = np.empty_like(dctx), np.empty_like(dkt), np.empty_like(dvt)
    dq[rows.cells[rows.slots]] = dqc[rows.slots]
    dk[rows.tok], dv[rows.tok] = dkt, dvt
    return dq, dk, dv


def _dense(params: ParameterStore, x: np.ndarray, w: str, b: str) -> np.ndarray:
    """x @ params[w] + params[b], the bias added in place on the fresh
    product. The encoder passes 2-D token rows; other callers' leading
    shapes are kept, because one 2-D GEMM over flattened rows can give
    other float bits than the batched product."""
    out = ops.matmul(x, params[w].value)
    bias = params[b].value
    if bias.shape != (out.shape[-1],):
        raise ShapeError(f"add_bias: bias {bias.shape} does not fit input {out.shape}")
    out += bias
    return ops.ensure_finite("add_bias", out)


def _dense_backward(params: ParameterStore, dout: np.ndarray, x: np.ndarray,
                    w: str, b: str) -> np.ndarray:
    """Accumulate the grads of `_dense(params, x, w, b)` and return d/dx."""
    dout, db = ops.add_bias_backward(dout)
    params[b].grad += db
    dx, dw = ops.matmul_backward(dout, x, params[w].value)
    params[w].grad += dw
    return dx


def _norm(params: ParameterStore, x: np.ndarray, name: str):
    """ops.layer_norm of x with the gain and bias under `name`."""
    return ops.layer_norm(x, params[f"{name}.gain"].value, params[f"{name}.bias"].value)


def _norm_backward(params: ParameterStore, dout: np.ndarray, cache, name: str) -> np.ndarray:
    """Accumulate the grads of `_norm(params, x, name)` and return d/dx."""
    dx, dgain, dbias = ops.layer_norm_backward(dout, cache)
    params[f"{name}.gain"].grad += dgain
    params[f"{name}.bias"].grad += dbias
    return dx


def _embed(params: ParameterStore, ids, seg, every: _Rows, p_drop: float, rng):
    """Token + position + segment embeddings of every real token, then
    encoder.emb_norm and dropout."""
    tok_ids, seg_ids = ids.reshape(-1)[every.flat], seg.reshape(-1)[every.flat]
    positions = every.flat % every.seq
    x = ops.embedding_lookup(params["encoder.tok_emb"].value, tok_ids)
    x = x + params["encoder.pos_emb"].value[positions]
    x = x + ops.embedding_lookup(params["encoder.seg_emb"].value, seg_ids)
    x, norm = _norm(params, x, "encoder.emb_norm")
    keep = None if rng is None else ops.dropout_keep(x.shape, p_drop, rng, x.dtype)
    if keep is not None:
        x *= keep
    return x, _EmbedCache(every.seq, tok_ids, seg_ids, positions, norm, keep)


def _embed_backward(params: ParameterStore, dx: np.ndarray, cache: _EmbedCache) -> None:
    if cache.keep is not None:
        dx = ops.dropout_backward(dx, cache.keep)
    demb = _norm_backward(params, dx, cache.norm, "encoder.emb_norm")
    # tok_emb's gradient goes to the touched rows alone. The dense add would
    # also add +0 to every other row, which changes no bit: no writer leaves
    # a -0.0 in a gradient (each adds onto the +0 it was zeroed to).
    touched, inv = np.unique(cache.tok_ids, return_inverse=True)
    params["encoder.tok_emb"].grad[touched] += ops.embedding_lookup_backward(
        demb, inv, touched.size)
    params["encoder.pos_emb"].grad[:cache.seq] += ops.embedding_lookup_backward(
        demb, cache.positions, cache.seq)
    seg = params["encoder.seg_emb"]
    seg.grad += ops.embedding_lookup_backward(demb, cache.seg_ids, seg.value.shape[0])


def _self_attention(params: ParameterStore, x_in: np.ndarray, rows: _Rows, pre: str,
                    n_heads: int, keeps, keep):
    """The attention sublayer with parameters `pre`.*, returning the `rows`
    of its output: projections, `_attention` with the group masks `keeps`,
    output dropout `keep`, the residual add and `<pre>_norm`."""
    xq = x_in if rows.sel is None else x_in[rows.sel]
    q = _dense(params, xq, f"{pre}.wq", f"{pre}.bq")
    k, v = (_dense(params, x_in, f"{pre}.w{z}", f"{pre}.b{z}") for z in "kv")
    inv_sqrt_dh = x_in.dtype.type(1.0 / np.sqrt(x_in.shape[1] // n_heads))
    ctx, groups = _attention(rows, q, k, v, n_heads, inv_sqrt_dh, keeps)
    out = _dense(params, ctx, f"{pre}.wo", f"{pre}.bo")
    if keep is not None:
        out *= keep
    x, norm = _norm(params, xq + out, f"{pre}_norm")
    return x, _AttentionCache(rows, x_in, xq, groups, ctx, keep, norm, inv_sqrt_dh)


def _self_attention_backward(params: ParameterStore, dx: np.ndarray, cache: _AttentionCache,
                             pre: str, n_heads: int) -> np.ndarray:
    dres = _norm_backward(params, dx, cache.norm, f"{pre}_norm")
    dout = dres if cache.keep is None else ops.dropout_backward(dres, cache.keep)
    dctx = _dense_backward(params, dout, cache.ctx, f"{pre}.wo", f"{pre}.bo")
    dq, dk, dv = _attention_backward(cache.rows, cache.groups, dctx, n_heads, cache.inv_sqrt_dh)
    dx_in = dres + _dense_backward(params, dq, cache.xq, f"{pre}.wq", f"{pre}.bq")
    if cache.rows.sel is not None:
        dxq, dx_in = dx_in, np.zeros_like(cache.x_in)
        dx_in[cache.rows.sel] = dxq
    for dz, z in ((dk, "k"), (dv, "v")):
        dx_in = dx_in + _dense_backward(params, dz, cache.x_in, f"{pre}.w{z}", f"{pre}.b{z}")
    return dx_in


def _feed_forward(params: ParameterStore, x: np.ndarray, pre: str, keep):
    """The FFN sublayer with parameters `pre`.*: dense, gelu, dense, output
    dropout `keep`, the residual add and `<pre>_norm`."""
    hmid, gelu = ops.gelu(_dense(params, x, f"{pre}.w1", f"{pre}.b1"))
    out = _dense(params, hmid, f"{pre}.w2", f"{pre}.b2")
    if keep is not None:
        out *= keep
    y, norm = _norm(params, x + out, f"{pre}_norm")
    return y, _FFNCache(x, hmid, gelu, keep, norm)


def _feed_forward_backward(params: ParameterStore, dy: np.ndarray, cache: _FFNCache,
                           pre: str) -> np.ndarray:
    dres = _norm_backward(params, dy, cache.norm, f"{pre}_norm")
    dout = dres if cache.keep is None else ops.dropout_backward(dres, cache.keep)
    dhmid = _dense_backward(params, dout, cache.hmid, f"{pre}.w2", f"{pre}.b2")
    da = ops.gelu_backward(dhmid, cache.gelu)
    return dres + _dense_backward(params, da, cache.x, f"{pre}.w1", f"{pre}.b1")


def forward_hidden(params: ParameterStore, config: ModelConfig, batch: EncodedBatch, rows,
                   rng: np.random.Generator | None = None, want_cache: bool = False):
    """Run the encoder stack and return the last layer's hidden states at
    the flat [batch * seq] positions `rows`, as (len(rows), hidden), with
    the cache of `backward_hidden` when asked for. Every layer but the last
    runs on all real tokens; the last runs its keys and values on them and
    the rest on `rows` alone. Dropout is drawn from `rng` when one is given
    and config.dropout > 0. Each attention_mask row must be a non-empty
    prefix of real tokens, and `rows` must be real tokens, ascending."""
    ids = np.asarray(batch.ids)
    if ids.ndim != 2:
        raise ShapeError(f"batch ids must be 2-d, got {ids.shape}")
    s = ids.shape[1]
    if s > config.max_positions:
        raise ShapeError(f"sequence length {s} exceeds max_positions {config.max_positions}")
    att, seg = np.asarray(batch.attention_mask), np.asarray(batch.segment_ids)
    if att.shape != ids.shape or seg.shape != ids.shape:
        raise ShapeError("ids, attention_mask and segment_ids must share a shape")
    every = _Rows.of(att)
    last = every.ask(rows)
    p_drop = config.dropout
    rng = rng if p_drop > 0.0 else None
    x, emb = _embed(params, ids, seg, every, p_drop, rng)
    layers = []
    for i in range(config.n_layers):
        out = last if i == config.n_layers - 1 else every
        att_keeps, ao_keep, ff_keep = (
            out.layer_keeps(rng, p_drop, x.dtype, config.n_heads, config.hidden)
            if rng is not None else ([None] * len(out.groups[0]), None, None))
        x, attn = _self_attention(params, x, out, f"encoder.layer{i}.attn", config.n_heads,
                                  att_keeps, ao_keep)
        x, ffn = _feed_forward(params, x, f"encoder.layer{i}.ffn", ff_keep)
        if want_cache:
            layers.append((attn, ffn))
    return x, _StackCache(emb, layers) if want_cache else None


def backward_hidden(params: ParameterStore, config: ModelConfig, cache: _StackCache,
                    d_hidden: np.ndarray) -> None:
    """Accumulate encoder gradients given d(loss)/d(the rows that
    forward_hidden returned), a (len(rows), hidden) array."""
    n_rows = cache.layers[-1][0].rows.flat.size
    if d_hidden.shape != (n_rows, config.hidden):
        raise ShapeError(f"backward_hidden: gradient {d_hidden.shape} does not match the "
                         f"{n_rows} rows forward_hidden returned")
    dx = d_hidden
    for i, (attn, ffn) in reversed(list(enumerate(cache.layers))):
        dx = _feed_forward_backward(params, dx, ffn, f"encoder.layer{i}.ffn")
        dx = _self_attention_backward(params, dx, attn, f"encoder.layer{i}.attn", config.n_heads)
    _embed_backward(params, dx, cache.emb)


# --- MLM head ----------------------------------------------------------------

def mlm_head(params: ParameterStore, hidden: np.ndarray, want_cache: bool = False):
    """dense -> gelu -> layer norm -> tied-embedding projection + bias, on
    hidden states of any leading shape (training feeds (n_masked, hidden))."""
    t2, gelu = ops.gelu(_dense(params, hidden, "mlm.dense.w", "mlm.dense.b"))
    t3, norm = _norm(params, t2, "mlm.norm")
    # Tied projection, kept out of _dense: its weight is tok_emb.T.
    emb_t = params["encoder.tok_emb"].value.T
    logits = ops.add_bias(ops.matmul(t3, emb_t), params["mlm.out_bias"].value)
    return logits, _MLMCache(hidden, gelu, t3, norm) if want_cache else None


def mlm_head_backward(params: ParameterStore, cache: _MLMCache, dlogits: np.ndarray) -> np.ndarray:
    """Returns d(loss)/d(hidden); tied embedding grads flow into tok_emb."""
    dlogits, d_out_bias = ops.add_bias_backward(dlogits)
    params["mlm.out_bias"].grad += d_out_bias
    # logits.T = tok_emb @ t3.T, so this backward gives tok_emb's gradient
    # as the contiguous dlogits.T @ t3, and d/dt3 transposed. d/dt3 goes
    # back to C order: the layer-norm backward sums a transposed array in
    # another order, with other float bits.
    demb, dt3_t = ops.matmul_backward(dlogits.T, params["encoder.tok_emb"].value, cache.t3.T)
    params["encoder.tok_emb"].grad += demb
    dt2 = _norm_backward(params, np.ascontiguousarray(dt3_t.T), cache.norm, "mlm.norm")
    dt1 = ops.gelu_backward(dt2, cache.gelu)
    return _dense_backward(params, dt1, cache.hidden, "mlm.dense.w", "mlm.dense.b")


# --- classification head ------------------------------------------------------

def cls_head(params: ParameterStore, cls_vec: np.ndarray, want_cache: bool = False):
    u2 = ops.tanh(_dense(params, cls_vec, "cls.dense.w", "cls.dense.b"))
    logits = _dense(params, u2, "cls.out.w", "cls.out.b")
    return logits, _ClsCache(cls_vec, u2) if want_cache else None


def cls_head_backward(params: ParameterStore, cache: _ClsCache, dlogits: np.ndarray) -> np.ndarray:
    """Returns d(loss)/d(cls_vector)."""
    du2 = _dense_backward(params, dlogits, cache.u2, "cls.out.w", "cls.out.b")
    du1 = ops.tanh_backward(du2, cache.u2)
    return _dense_backward(params, du1, cache.cls_vec, "cls.dense.w", "cls.dense.b")
