"""Bidirectional transformer encoder with MLM and [CLS]-classifier heads.

Post-layer-norm stack: summed token/position/segment embeddings, then per
layer multi-head self-attention + residual + layer norm and a gelu FFN +
residual + layer norm. The MLM projection is weight-tied to the token
embedding matrix. The classifier head is dense -> tanh -> dense on the
position-0 hidden state of the last layer.

The stack runs token-major: the real tokens of a padded batch are gathered
once, and every layer runs on them alone. Row-wise layers (embeddings, the
dense projections, gelu, layer norms, residual adds, dropout) run on
(n_real, width) rows. Attention runs per group of sequences of one length
l: their q, k and v rows are gathered into [g, heads, l, dh], the scores
are [g, heads, l, l] with no key mask, and the context is scattered back
to the token rows. Each attention_mask row must be a non-empty prefix of
real tokens. Every dropout mask holds, on each real cell, the value that
`ops.dropout_keep` would draw at the padded shape, and the rng ends where
that padded draw leaves it: the uniforms of real cells are drawn and the
pad cells are skipped with `bit_generator.advance`, which needs a PCG64
generator (one step per float64 uniform); any other generator is a
ConfigError when dropout is on. The hidden states come back as [batch,
seq, hidden] with every pad row exactly 0.

Forward functions optionally return a cache consumed by the matching
backward functions, which accumulate into ParameterStore gradients.
"""

import math
from dataclasses import asdict, dataclass
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
    def desk(cls, **overrides) -> "ModelConfig":
        """Minute-scale CPU default, structurally identical to the base layout."""
        return cls(**overrides)

    @classmethod
    def base(cls, **overrides) -> "ModelConfig":
        """The 12-layer / 768-hidden / 12-head base layout."""
        kw = dict(
            n_layers=12, hidden=768, n_heads=12, ffn=3072,
            vocab_size=30522, max_positions=512,
        )
        kw.update(overrides)
        return cls(**kw)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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


@dataclass
class EncoderOutput:
    hidden_states: np.ndarray  # [batch, seq, hidden]
    cls_vector: np.ndarray     # [batch, hidden], row 0 of hidden_states


# --- initialization ---------------------------------------------------------

def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """Normal(0, std^2) resampled until everything lies within +-2 std."""
    x = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(x) > 2.0 * std
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        x[bad] = rng.normal(0.0, std, size=n_bad)
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


def classifier_n_classes(store: ParameterStore) -> int:
    if "cls.out.b" not in store:
        raise ConfigError("no classifier head in parameter store")
    return int(store["cls.out.b"].value.shape[0])


def count_params(config: ModelConfig, n_classes: int | None = None) -> int:
    """Scalar count of the allocated parameters (the tied MLM projection
    counted once, inside the token embedding)."""
    return sum(math.prod(shape) for shape in param_shapes(config, n_classes).values())


# --- encoder forward / backward ---------------------------------------------

def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, s, h = x.shape
    return x.reshape(b, s, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, nh, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, nh * dh)


def _draw_real_cells(rng: np.random.Generator, s: int, inner: int, dests) -> None:
    """Fill the real cells of a padded [batch, reps, s, inner] uniform draw
    and skip the rest. dests[i], in batch order, is sequence i's float64
    (reps, l, inner) block: each of its reps draws l * inner uniforms, then
    the rng advances over the (s - l) * inner pad cells behind them. With
    PCG64 one uniform is one step of the generator, so every real cell gets
    the value and the rng ends in the state of the padded draw."""
    for dest in dests:
        skip = (s - dest.shape[1]) * inner
        for block in dest:
            rng.random(out=block)
            rng.bit_generator.advance(skip)


class _Layout(NamedTuple):
    """Where the real tokens of a padded [batch, seq] batch sit.

    `rows` are their flat positions, row-major: token-major order. `groups`
    holds, per distinct sequence length l, the batch indices of the
    sequences of that length and their tokens' token-major rows,
    sequence-major, so `z[tok].reshape(g, l, width)` is the group's
    sequences."""

    seq: int
    rows: np.ndarray
    lengths: list
    starts: list
    groups: list  # [(l, seqs, tok)]

    @classmethod
    def of(cls, att: np.ndarray) -> "_Layout":
        s = att.shape[1]
        real = att != 0
        lengths = real.sum(axis=1)
        bad = (lengths == 0) | (real != (np.arange(s) < lengths[:, None])).any(axis=1)
        if bad.any():
            raise ShapeError(f"attention_mask row {int(np.flatnonzero(bad)[0])} is not a "
                             "non-empty prefix of real tokens")
        starts = np.cumsum(lengths) - lengths
        groups = []
        for l in np.unique(lengths).tolist():
            seqs = np.flatnonzero(lengths == l)
            groups.append((l, seqs, (starts[seqs, None] + np.arange(l)).reshape(-1)))
        return cls(s, np.flatnonzero(real), lengths.tolist(), starts.tolist(), groups)

    def row_keep(self, rng, p: float, dtype, width: int) -> np.ndarray:
        """The dropout mask of the (n_real, width) token rows: the real rows
        of `ops.dropout_keep((batch * seq, width), p, rng, dtype)`."""
        buf = np.empty((len(self.rows), width))
        _draw_real_cells(rng, self.seq, width,
                         [buf[a:a + l][None] for a, l in zip(self.starts, self.lengths)])
        return ops.keep_from_uniforms(buf, p, dtype)

    def attention_keeps(self, rng, p: float, dtype, n_heads: int) -> list:
        """Per group, the dropout mask of its [g, heads, l, l] probabilities:
        the real cells of `ops.dropout_keep((batch, heads, seq, seq), ...)`.
        Each (sequence, head) draws its l real query rows in full, (l, seq),
        and keeps their first l columns."""
        bufs, dests = [], [None] * len(self.lengths)
        for l, seqs, _ in self.groups:
            buf = np.empty((len(seqs), n_heads, l, self.seq))
            for j, i in enumerate(seqs):
                dests[i] = buf[j]
            bufs.append(buf[..., :l])
        _draw_real_cells(rng, self.seq, self.seq, dests)
        return [ops.keep_from_uniforms(buf, p, dtype) for buf in bufs]


def _attention(layout: _Layout, q, k, v, n_heads: int, inv_sqrt_dh, keeps):
    """Self-attention of each length group on its own [g, heads, l, l]
    scores, with no key mask. q, k and v are token rows; returns the context
    as token rows and, per group, the cache of `_attention_backward`."""
    ctx = np.empty_like(q)
    caches = []
    for (l, _, tok), keep in zip(layout.groups, keeps):
        qh, kh, vh = (_split_heads(z[tok].reshape(-1, l, z.shape[-1]), n_heads)
                      for z in (q, k, v))
        scores = np.matmul(qh, kh.swapaxes(-1, -2))
        scores *= inv_sqrt_dh
        probs = ops.softmax(scores)
        probs_d = probs if keep is None else probs * keep
        ctx[tok] = _merge_heads(ops.matmul(probs_d, vh)).reshape(-1, ctx.shape[-1])
        caches.append({"qh": qh, "kh": kh, "vh": vh, "probs": probs, "probs_d": probs_d,
                       "keep": keep})
    return ctx, caches


def _attention_backward(layout: _Layout, caches, dctx, n_heads: int, inv_sqrt_dh):
    """d/dq, d/dk and d/dv as token rows, given d/dctx."""
    dq, dk, dv = (np.empty_like(dctx) for _ in range(3))
    for (l, _, tok), gc in zip(layout.groups, caches):
        dctxh = _split_heads(dctx[tok].reshape(-1, l, dctx.shape[-1]), n_heads)
        dprobs, dvh = ops.matmul_backward(dctxh, gc["probs_d"], gc["vh"])
        if gc["keep"] is not None:
            dprobs = ops.dropout_backward(dprobs, gc["keep"])
        dscores = ops.softmax_backward(dprobs, gc["probs"])
        dscores *= inv_sqrt_dh
        dqh, dkhT = ops.matmul_backward(dscores, gc["qh"], gc["kh"].swapaxes(-1, -2))
        for dz, dzh in zip((dq, dk, dv), (dqh, dkhT.swapaxes(-1, -2), dvh)):
            dz[tok] = _merge_heads(dzh).reshape(-1, dz.shape[-1])
    return dq, dk, dv


def _dense(params: ParameterStore, x: np.ndarray, w: str, b: str) -> np.ndarray:
    """x @ params[w] + params[b]. The encoder passes 2-D token rows; other
    callers' leading shapes are kept, because one 2-D GEMM over flattened
    rows can give other float bits than the batched product."""
    return ops.add_bias(ops.matmul(x, params[w].value), params[b].value)


def _dense_backward(params: ParameterStore, dout: np.ndarray, x: np.ndarray,
                    w: str, b: str) -> np.ndarray:
    """Accumulate the grads of `_dense(params, x, w, b)` and return d/dx."""
    dout, db = ops.add_bias_backward(dout)
    params[b].grad += db
    dx, dw = ops.matmul_backward(dout, x, params[w].value)
    params[w].grad += dw
    return dx


def _row_dropout(x, p, rng, layout: _Layout):
    """Dropout of token rows when given an rng, else (x, None)."""
    if rng is None:
        return x, None
    keep = layout.row_keep(rng, p, x.dtype, x.shape[-1])
    return x * keep, keep


def forward_hidden(params: ParameterStore, config: ModelConfig, batch: EncodedBatch,
                   rng: np.random.Generator | None = None, want_cache: bool = False):
    """Run the full encoder stack, with dropout drawn from `rng` when one is
    given and config.dropout > 0; that rng must be PCG64. Each attention_mask
    row must be a non-empty prefix of real tokens. Returns (hidden_states,
    cache or None); hidden_states is [batch, seq, hidden] with every pad row
    exactly 0."""
    ids = np.asarray(batch.ids)
    if ids.ndim != 2:
        raise ShapeError(f"batch ids must be 2-d, got {ids.shape}")
    b, s = ids.shape
    if s > config.max_positions:
        raise ShapeError(f"sequence length {s} exceeds max_positions {config.max_positions}")
    att = np.asarray(batch.attention_mask)
    seg = np.asarray(batch.segment_ids)
    if att.shape != ids.shape or seg.shape != ids.shape:
        raise ShapeError("ids, attention_mask and segment_ids must share a shape")
    layout = _Layout.of(att)

    tok_emb = params["encoder.tok_emb"].value
    dtype = tok_emb.dtype
    p_drop = config.dropout
    if p_drop == 0.0:
        rng = None
    if rng is not None and not isinstance(rng.bit_generator, np.random.PCG64):
        raise ConfigError("dropout needs a PCG64 generator, which skips pad cells with "
                          f"bit_generator.advance; got {type(rng.bit_generator).__name__}")
    nh = config.n_heads

    rows = layout.rows
    tok_ids = ids.reshape(-1)[rows]
    seg_ids = seg.reshape(-1)[rows]
    positions = rows % s

    x = ops.embedding_lookup(tok_emb, tok_ids)
    x = x + params["encoder.pos_emb"].value[positions]
    x = x + ops.embedding_lookup(params["encoder.seg_emb"].value, seg_ids)
    x, emb_norm_cache = ops.layer_norm(
        x, params["encoder.emb_norm.gain"].value, params["encoder.emb_norm.bias"].value
    )
    x, emb_keep = _row_dropout(x, p_drop, rng, layout)
    inv_sqrt_dh = dtype.type(1.0 / np.sqrt(config.hidden // nh))

    layer_caches = []
    for i in range(config.n_layers):
        pre = f"encoder.layer{i}"
        x_in = x
        q, k, v = (_dense(params, x_in, f"{pre}.attn.w{z}", f"{pre}.attn.b{z}") for z in "qkv")
        att_keeps = (layout.attention_keeps(rng, p_drop, dtype, nh) if rng is not None
                     else [None] * len(layout.groups))
        ctxm, attn_caches = _attention(layout, q, k, v, nh, inv_sqrt_dh, att_keeps)
        ao = _dense(params, ctxm, f"{pre}.attn.wo", f"{pre}.attn.bo")
        ao, ao_keep = _row_dropout(ao, p_drop, rng, layout)
        n1, n1_cache = ops.layer_norm(
            x_in + ao, params[f"{pre}.attn_norm.gain"].value, params[f"{pre}.attn_norm.bias"].value
        )
        a1 = _dense(params, n1, f"{pre}.ffn.w1", f"{pre}.ffn.b1")
        hmid = ops.gelu(a1)
        ff = _dense(params, hmid, f"{pre}.ffn.w2", f"{pre}.ffn.b2")
        ff, ff_keep = _row_dropout(ff, p_drop, rng, layout)
        x, n2_cache = ops.layer_norm(
            n1 + ff, params[f"{pre}.ffn_norm.gain"].value, params[f"{pre}.ffn_norm.bias"].value
        )
        if want_cache:
            layer_caches.append({
                "x_in": x_in, "attn": attn_caches,
                "ctxm": ctxm, "ao_keep": ao_keep, "n1": n1, "n1_cache": n1_cache,
                "a1": a1, "hmid": hmid, "ff_keep": ff_keep, "n2_cache": n2_cache,
            })

    hidden = np.zeros((b * s, x.shape[-1]), dtype=dtype)
    hidden[rows] = x
    cache = None
    if want_cache:
        cache = {
            "layout": layout, "tok_ids": tok_ids, "seg_ids": seg_ids, "positions": positions,
            "emb_norm_cache": emb_norm_cache, "emb_keep": emb_keep,
            "inv_sqrt_dh": inv_sqrt_dh, "layers": layer_caches,
        }
    return hidden.reshape(b, s, -1), cache


def backward_hidden(params: ParameterStore, config: ModelConfig, cache: dict,
                    d_hidden: np.ndarray) -> None:
    """Accumulate encoder gradients given d(loss)/d(hidden_states). Only the
    real tokens' rows of `d_hidden` are read."""
    layout = cache["layout"]
    s = layout.seq
    dx = d_hidden.reshape(-1, d_hidden.shape[-1])[layout.rows]
    for i in reversed(range(config.n_layers)):
        pre = f"encoder.layer{i}"
        lc = cache["layers"][i]

        dres2, dg2, db2 = ops.layer_norm_backward(dx, lc["n2_cache"])
        params[f"{pre}.ffn_norm.gain"].grad += dg2
        params[f"{pre}.ffn_norm.bias"].grad += db2
        dn1 = dres2
        dff = dres2
        if lc["ff_keep"] is not None:
            dff = ops.dropout_backward(dff, lc["ff_keep"])
        dhmid = _dense_backward(params, dff, lc["hmid"], f"{pre}.ffn.w2", f"{pre}.ffn.b2")
        da1 = ops.gelu_backward(dhmid, lc["a1"])
        dn1 = dn1 + _dense_backward(params, da1, lc["n1"], f"{pre}.ffn.w1", f"{pre}.ffn.b1")

        dres1, dg1, db1 = ops.layer_norm_backward(dn1, lc["n1_cache"])
        params[f"{pre}.attn_norm.gain"].grad += dg1
        params[f"{pre}.attn_norm.bias"].grad += db1
        dx_in = dres1
        dao = dres1
        if lc["ao_keep"] is not None:
            dao = ops.dropout_backward(dao, lc["ao_keep"])
        dctxm = _dense_backward(params, dao, lc["ctxm"], f"{pre}.attn.wo", f"{pre}.attn.bo")
        dzs = _attention_backward(layout, lc["attn"], dctxm, config.n_heads,
                                  cache["inv_sqrt_dh"])
        for dz, proj in zip(dzs, "qkv"):
            dx_in = dx_in + _dense_backward(params, dz, lc["x_in"],
                                            f"{pre}.attn.w{proj}", f"{pre}.attn.b{proj}")
        dx = dx_in

    if cache["emb_keep"] is not None:
        dx = ops.dropout_backward(dx, cache["emb_keep"])
    demb, dg, db = ops.layer_norm_backward(dx, cache["emb_norm_cache"])
    params["encoder.emb_norm.gain"].grad += dg
    params["encoder.emb_norm.bias"].grad += db

    tok = params["encoder.tok_emb"]
    tok.grad += ops.embedding_lookup_backward(demb, cache["tok_ids"], tok.value.shape[0])
    params["encoder.pos_emb"].grad[:s] += ops.embedding_lookup_backward(
        demb, cache["positions"], s)
    seg = params["encoder.seg_emb"]
    seg.grad += ops.embedding_lookup_backward(demb, cache["seg_ids"], seg.value.shape[0])


def encode_batch(params: ParameterStore, config: ModelConfig,
                 batch: EncodedBatch) -> EncoderOutput:
    """Eval-mode (no dropout) hidden states and [CLS] vectors of `batch`."""
    hidden, _ = forward_hidden(params, config, batch)
    return EncoderOutput(hidden_states=hidden, cls_vector=hidden[:, 0, :])


# --- MLM head ----------------------------------------------------------------

def mlm_head(params: ParameterStore, hidden: np.ndarray, want_cache: bool = False):
    """dense -> gelu -> layer norm -> tied-embedding projection + bias.

    Accepts hidden states of any leading shape; training feeds only the
    labelled rows, gathered to (n_masked, hidden).
    """
    t1 = _dense(params, hidden, "mlm.dense.w", "mlm.dense.b")
    t2 = ops.gelu(t1)
    t3, n_cache = ops.layer_norm(t2, params["mlm.norm.gain"].value, params["mlm.norm.bias"].value)
    # Tied projection, kept out of _dense: its weight is tok_emb.T and its
    # gradient goes to tok_emb.grad transposed.
    emb_t = params["encoder.tok_emb"].value.T
    logits = ops.add_bias(ops.matmul(t3, emb_t), params["mlm.out_bias"].value)
    cache = {"hidden": hidden, "t1": t1, "t3": t3, "n_cache": n_cache} if want_cache else None
    return logits, cache


def mlm_head_backward(params: ParameterStore, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Returns d(loss)/d(hidden); tied embedding grads flow into tok_emb."""
    dlogits, d_out_bias = ops.add_bias_backward(dlogits)
    params["mlm.out_bias"].grad += d_out_bias
    emb_t = params["encoder.tok_emb"].value.T
    dt3, demb_t = ops.matmul_backward(dlogits, cache["t3"], emb_t)
    params["encoder.tok_emb"].grad += demb_t.T
    dt2, dg, db = ops.layer_norm_backward(dt3, cache["n_cache"])
    params["mlm.norm.gain"].grad += dg
    params["mlm.norm.bias"].grad += db
    dt1 = ops.gelu_backward(dt2, cache["t1"])
    return _dense_backward(params, dt1, cache["hidden"], "mlm.dense.w", "mlm.dense.b")


def mlm_logits(params: ParameterStore, output: EncoderOutput) -> np.ndarray:
    logits, _ = mlm_head(params, output.hidden_states)
    return logits


# --- classification head ------------------------------------------------------

def cls_head(params: ParameterStore, cls_vec: np.ndarray, want_cache: bool = False):
    u2 = ops.tanh(_dense(params, cls_vec, "cls.dense.w", "cls.dense.b"))
    logits = _dense(params, u2, "cls.out.w", "cls.out.b")
    cache = {"cls_vec": cls_vec, "u2": u2} if want_cache else None
    return logits, cache


def cls_head_backward(params: ParameterStore, cache: dict, dlogits: np.ndarray) -> np.ndarray:
    """Returns d(loss)/d(cls_vector)."""
    du2 = _dense_backward(params, dlogits, cache["u2"], "cls.out.w", "cls.out.b")
    du1 = ops.tanh_backward(du2, cache["u2"])
    return _dense_backward(params, du1, cache["cls_vec"], "cls.dense.w", "cls.dense.b")


def cls_logits(params: ParameterStore, output: EncoderOutput, n_classes: int) -> np.ndarray:
    have = classifier_n_classes(params)
    if have != n_classes:
        raise ConfigError(f"classifier head has {have} classes, caller expects {n_classes}")
    logits, _ = cls_head(params, output.cls_vector)
    return logits
