import dataclasses
import json
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmforge import encoder, training
from mlmforge.encoder import (
    INIT_STD,
    EncodedBatch,
    ModelConfig,
    _dense,
    _dense_backward,
    _blocks,
    _merge_heads,
    _Rows,
    _split_heads,
    backward_hidden,
    check_classifier,
    cls_head,
    count_params,
    forward_hidden,
    init_classifier,
    init_params,
    mlm_head,
)
from mlmforge.errors import ConfigError, ShapeError
from mlmforge.masking import build_batch
from mlmforge.numerics import ParameterStore, grad_check, ops
from mlmforge.tokenizer import PAD_ID

TINY = ModelConfig(n_layers=2, hidden=32, n_heads=2, ffn=64, vocab_size=50,
                   max_positions=16, dropout=0.0)


def tiny_store(n_classes=None, seed=0):
    store = init_params(TINY, seed=seed)
    if n_classes:
        init_classifier(store, TINY, n_classes, seed=seed + 1)
    return store


def batch_of(*seqs):
    return EncodedBatch.from_sequences([list(s) for s in seqs])


def real_rows(batch):
    """The flat [batch * seq] positions of every real token."""
    return np.flatnonzero(np.asarray(batch.attention_mask).reshape(-1))


def padded_hidden(store, config, batch):
    """Eval-mode hidden states of every real token of `batch`, padded to
    [batch, seq, hidden] with every pad row exactly 0."""
    att = np.asarray(batch.attention_mask)
    real = real_rows(batch)
    rows, _ = forward_hidden(store, config, batch, real)
    hidden = np.zeros((att.size, config.hidden), dtype=rows.dtype)
    hidden[real] = rows
    return hidden.reshape(*att.shape, -1)


def padded(seq, width):
    """A one-row batch holding `seq` followed by pads up to `width`."""
    ids = np.full((1, width), PAD_ID, dtype=np.int64)
    ids[0, : len(seq)] = seq
    mask = (np.arange(width) < len(seq)).astype(np.int64)[None]
    return EncodedBatch(ids, mask, np.zeros_like(ids))


def reference_trunc_normal(rng, shape, std, dtype):
    """The init loop that re-tested the whole matrix every round, kept as
    the reference `encoder._trunc_normal` must equal bit for bit."""
    x = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(x) > 2.0 * std
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        x[bad] = rng.normal(0.0, std, size=n_bad)
    return x.astype(dtype)


class TestModelConfig:
    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(hidden=100, n_heads=3)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0)

    def test_dict_round_trip(self):
        """A config survives the JSON a checkpoint manifest stores it as."""
        cfg = ModelConfig.base()
        assert ModelConfig(**json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a, b = init_params(TINY, seed=3), init_params(TINY, seed=3)
        assert a.names() == b.names()
        for name in a.names():
            assert (a[name].value == b[name].value).all()

    def test_different_seed_differs(self):
        a, b = init_params(TINY, seed=3), init_params(TINY, seed=4)
        assert (a["encoder.tok_emb"].value != b["encoder.tok_emb"].value).any()

    def test_truncation_at_two_sigma(self):
        store = init_params(TINY, seed=0)
        w = store["encoder.layer0.attn.wq"].value
        assert np.abs(w).max() <= 2 * 0.02
        assert w.std() == pytest.approx(0.02, rel=0.2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (50, 32), (3, 4, 5), (513, 128)])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_trunc_normal_is_the_reference_bit_for_bit(self, seed, shape, dtype):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = encoder._trunc_normal(rng, shape, INIT_STD, dtype)
        want = reference_trunc_normal(ref_rng, shape, INIT_STD, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # Both drew the same number of values: the streams stay in step.
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_params_is_the_reference_init(self, dtype):
        with mock.patch.object(encoder, "_trunc_normal", reference_trunc_normal):
            want = init_params(TINY, seed=5, dtype=dtype)
        got = init_params(TINY, seed=5, dtype=dtype)
        assert got.names() == want.names()
        for name in got.names():
            assert got[name].value.tobytes() == want[name].value.tobytes(), name

    def test_biases_zero_gains_one(self):
        store = init_params(TINY, seed=0)
        assert (store["encoder.layer0.attn.bq"].value == 0).all()
        assert (store["encoder.emb_norm.gain"].value == 1).all()


class TestCountParams:
    def test_base_config_near_110m(self):
        total = count_params(ModelConfig.base())
        assert abs(total - 110_000_000) / 110_000_000 < 0.02

    def test_desk_exact_closed_form(self):
        # Independent oracle: enumerate every tensor shape the architecture
        # implies and sum the products.
        cfg = ModelConfig()  # desk defaults: 4 / 128 / 4 / 512, vocab 8192
        h, f, v, p, s, n = cfg.hidden, cfg.ffn, cfg.vocab_size, cfg.max_positions, cfg.n_segments, cfg.n_layers
        shapes = [(v, h), (p, h), (s, h), (h,), (h,)]
        for _ in range(n):
            shapes += [(h, h)] * 4 + [(h,)] * 4 + [(h,), (h,)]
            shapes += [(h, f), (f,), (f, h), (h,), (h,), (h,)]
        shapes += [(h, h), (h,), (h,), (h,), (v,)]
        oracle = sum(int(np.prod(shape)) for shape in shapes)
        assert count_params(cfg) == oracle

    def test_matches_allocated_scalars_exactly(self):
        store = tiny_store()
        assert count_params(TINY) == sum(p.value.size for _, p in store.items())
        store2 = tiny_store(n_classes=3)
        assert count_params(TINY, n_classes=3) == sum(p.value.size for _, p in store2.items())


class TestForwardHidden:
    def test_output_shapes(self):
        cfg = ModelConfig(n_layers=2, hidden=128, n_heads=4, ffn=256, vocab_size=200,
                          max_positions=32, dropout=0.0)
        store = init_params(cfg, seed=0)
        batch = batch_of(*[[2] + list(range(5, 19)) + [3]] * 2)
        assert padded_hidden(store, cfg, batch).shape == (2, 16, 128)
        assert forward_hidden(store, cfg, batch, batch.cls_rows())[0].shape == (2, 128)

    def test_cls_vector_is_row_zero(self):
        store = tiny_store()
        batch = batch_of([2, 7, 8, 3], [2, 9, 3])
        cls_vectors, _ = forward_hidden(store, TINY, batch, batch.cls_rows())
        npt.assert_allclose(cls_vectors, padded_hidden(store, TINY, batch)[:, 0, :],
                            rtol=1e-5, atol=1e-6)

    def test_duplicate_rows_identical_output(self):
        store = tiny_store()
        hidden = padded_hidden(store, TINY, batch_of([2, 7, 8, 3], [2, 7, 8, 3]))
        assert (hidden[0] == hidden[1]).all()

    def test_padding_leaves_real_positions_unchanged(self):
        store = tiny_store()
        seq = [2, 10, 11, 12, 3]
        short = padded_hidden(store, TINY, batch_of(seq))
        long = padded_hidden(store, TINY, padded(seq, 12))
        npt.assert_allclose(short[0], long[0, : len(seq)], atol=1e-5)

    def test_batch_permutation_invariance(self):
        store = tiny_store()
        seqs = [[2, 10, 11, 3], [2, 12, 13, 14, 3], [2, 15, 3]]
        fwd = padded_hidden(store, TINY, batch_of(*seqs))
        rev = padded_hidden(store, TINY, batch_of(*seqs[::-1]))
        npt.assert_allclose(fwd[0], rev[2], atol=1e-6)
        npt.assert_allclose(fwd[2], rev[0], atol=1e-6)

    def test_too_long_sequence_rejected(self):
        store = tiny_store()
        seq = [2] + [5] * 20 + [3]
        with pytest.raises(ShapeError, match="max_positions"):
            padded_hidden(store, TINY, batch_of(seq))

    def test_ids_beyond_vocab_rejected(self):
        store = tiny_store()
        with pytest.raises(ShapeError):
            padded_hidden(store, TINY, batch_of([2, 99, 3]))

    def test_attention_rows_normalized_and_pads_excluded(self):
        store = tiny_store()
        batch = batch_of([2, 10, 11, 3], [2, 9, 3], [2, 12, 13, 3])
        _, cache = forward_hidden(store, TINY, batch, real_rows(batch), want_cache=True)
        for attn, _ in cache.layers:
            shapes = [group.probs.shape for group in attn.groups]
            assert shapes == [(1, TINY.n_heads, 3, 3), (2, TINY.n_heads, 4, 4)]
            for group in attn.groups:
                npt.assert_allclose(group.probs.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("row", [[1, 0, 1, 0], [0, 0, 0, 0]], ids=["hole", "empty"])
    def test_mask_row_must_be_a_non_empty_prefix(self, row):
        store = tiny_store()
        batch = batch_of([2, 10, 11, 3], [2, 9, 3])
        batch.attention_mask[1] = row
        with pytest.raises(ShapeError, match="attention_mask row 1 "):
            forward_hidden(store, TINY, batch, batch.cls_rows())


class TestRequestedRows:
    """forward_hidden returns the last layer's states at the ascending flat
    positions asked for; a position that is not a real token above the one
    before it is a ShapeError naming its batch row and position."""

    def test_ascending_rows_are_padded_rows_and_unsorted_rows_raise(self):
        store = tiny_store()
        batch = batch_of([2, 10, 11, 12, 3], [2, 9, 3])
        every = padded_hidden(store, TINY, batch).reshape(-1, TINY.hidden)
        rows = np.array([0, 3, 4, 5, 7])
        got, _ = forward_hidden(store, TINY, batch, rows)
        npt.assert_allclose(got, every[rows], rtol=1e-5, atol=1e-6)
        with pytest.raises(ShapeError, match=r"requested row 0 .* not above the row before it"):
            forward_hidden(store, TINY, batch, np.array([5, 0, 3, 7, 4]))

    @pytest.mark.parametrize("rows, message", [
        ([0, 9], r"requested row 9 \(batch row 1, position 4\) is a pad position"),
        ([0, 10], r"requested row 10 \(batch row 2, position 0\) is outside the 2 x 5 batch"),
        ([-1], r"requested row -1 \(batch row -1, position 4\) is outside"),
        ([1, 5, 5], r"requested row 5 \(batch row 1, position 0\) is not above the row "
                    r"before it, 5"),
        ([5, 1], r"requested row 1 \(batch row 0, position 1\) is not above the row "
                 r"before it, 5"),
    ], ids=["pad", "past-the-end", "negative", "repeated", "descending"])
    def test_a_bad_row_is_named(self, rows, message):
        store = tiny_store()
        batch = batch_of([2, 10, 11, 12, 3], [2, 9, 3])
        with pytest.raises(ShapeError, match=message):
            forward_hidden(store, TINY, batch, np.array(rows))

    @settings(max_examples=80, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
           extra=st.integers(0, 3), data=st.data())
    def test_rows_are_one_group_major_index_set(self, lengths, extra, data):
        """Each requested row is exactly one non-gap cell of its own
        sequence's block, in position order; gap cells hold 0 and follow a
        sequence's last row, a group without rows has n == 0, and `tok`
        lists every real token once, each block's sequence by sequence."""
        s = max(lengths) + extra
        every = _Rows.of((np.arange(s) < np.array(lengths)[:, None]).astype(np.int64))
        want = sorted(data.draw(st.lists(st.sampled_from(every.flat.tolist()), unique=True)))
        rows = every.ask(np.array(want, dtype=np.int64))
        assert rows.flat.tolist() == want
        assert sorted(rows.tok.tolist()) == list(range(every.flat.size))
        gap = np.zeros(rows.cells.size, dtype=bool)
        gap[rows.gaps] = True
        assert (rows.cells[gap] == 0).all()
        assert np.flatnonzero(~gap).tolist() == np.arange(rows.cells.size)[rows.slots].tolist()
        found = []
        for seqs, n, l, cells, tok in _blocks(rows):
            assert (np.array(lengths)[seqs] == l).all()
            positions = every.flat[rows.tok[tok]].reshape(len(seqs), l)
            assert (positions == seqs[:, None] * s + np.arange(l)).all()
            asks = [[r for r in want if r // s == i] for i in seqs]
            assert n == max(map(len, asks))
            for mine, cell, hole in zip(asks, rows.cells[cells].reshape(len(seqs), n),
                                        gap[cells].reshape(len(seqs), n)):
                assert hole.tolist() == [False] * len(mine) + [True] * (n - len(mine))
                assert rows.flat[cell[~hole]].tolist() == mine
                found += cell[~hole].tolist()
        assert sorted(found) == list(range(len(want)))

    def test_backward_takes_one_gradient_row_per_requested_row(self):
        store = tiny_store()
        batch = batch_of([2, 10, 11, 12, 3], [2, 9, 3])
        hidden, cache = forward_hidden(store, TINY, batch, batch.cls_rows(), want_cache=True)
        assert hidden.shape == (2, TINY.hidden)
        with pytest.raises(ShapeError, match="2 rows"):
            backward_hidden(store, TINY, cache, np.zeros((8, TINY.hidden), hidden.dtype))


class TestDense:
    """_dense/_dense_backward against the explicit op composition they replace.
    The [3, 8, 512] -> 128 input (the desk FFN output projection over 8
    positions) is a shape where one 2-D GEMM over the flattened rows gives
    other float bits than the 3-D product (OpenBLAS 0.3.31, x86-64), so a
    helper that reshapes fails here."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_explicit_ops_bitwise_and_accumulates(self, dtype):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8, 512)).astype(dtype)
        dout = rng.standard_normal((3, 8, 128)).astype(dtype)
        store = ParameterStore()
        w = store.add("w", rng.standard_normal((512, 128)).astype(dtype))
        b = store.add("b", rng.standard_normal(128).astype(dtype))
        w.grad[...] = rng.standard_normal(w.grad.shape)
        b.grad[...] = rng.standard_normal(b.grad.shape)
        w_grad0, b_grad0 = w.grad.copy(), b.grad.copy()

        y = _dense(store, x, "w", "b")
        want_y = ops.add_bias(ops.matmul(x, w.value), b.value)
        assert y.shape == (3, 8, 128) and y.dtype == dtype
        assert y.tobytes() == want_y.tobytes()

        dx = _dense_backward(store, dout, x, "w", "b")
        d, db = ops.add_bias_backward(dout)
        want_dx, dw = ops.matmul_backward(d, x, w.value)
        assert dx.shape == x.shape and dx.dtype == dtype
        assert dx.tobytes() == want_dx.tobytes()
        assert w.grad.tobytes() == (w_grad0 + dw).tobytes()
        assert b.grad.tobytes() == (b_grad0 + db).tobytes()


class TestMlmHead:
    def test_logits_shape(self):
        store = tiny_store()
        logits, _ = mlm_head(store, padded_hidden(store, TINY, batch_of([2, 7, 8, 3])))
        assert logits.shape == (1, 4, TINY.vocab_size)

    def test_tied_projection_tracks_embedding_row(self):
        store = tiny_store()
        hidden = padded_hidden(store, TINY, batch_of([2, 7, 8, 3]))
        before, _ = mlm_head(store, hidden)
        t = 23
        bump = np.zeros_like(store["encoder.tok_emb"].value)
        bump[t] = 0.01
        store["encoder.tok_emb"].value += bump
        # same encoder input (token 23 unused), so only column t moves
        after, _ = mlm_head(store, hidden)
        diff = np.abs(after - before).max(axis=(0, 1))
        assert diff[t] > 0
        others = np.delete(diff, t)
        assert (others == 0).all()


class TestClsHead:
    def test_logits_shape(self):
        store = tiny_store(n_classes=3)
        batch = batch_of(*[[2, 7, 8, 3]] * 4)
        cls_vectors, _ = forward_hidden(store, TINY, batch, batch.cls_rows())
        assert cls_head(store, cls_vectors)[0].shape == (4, 3)

    def test_zero_head_gives_zero_logits(self):
        store = tiny_store(n_classes=3)
        for name in ("cls.dense.w", "cls.dense.b", "cls.out.w", "cls.out.b"):
            store[name].value[...] = 0.0
        batch = batch_of([2, 7, 3])
        cls_vectors, _ = forward_hidden(store, TINY, batch, batch.cls_rows())
        assert (cls_head(store, cls_vectors)[0] == 0).all()

    def test_n_classes_mismatch(self):
        store = tiny_store(n_classes=3)
        with pytest.raises(ConfigError, match="classifier head has 3 classes but the caller "
                                              "has 5"):
            check_classifier(store, 5, "the caller")

    def test_missing_head(self):
        store = tiny_store()
        with pytest.raises(ConfigError, match="no classifier head"):
            check_classifier(store, 3, "the caller")

    def test_head_gradients_match_finite_differences(self):
        from mlmforge.training import cls_loss, cls_loss_and_backward

        store = tiny_store(n_classes=3, seed=2).astype(np.float64)
        batch = batch_of([2, 7, 8, 3], [2, 9, 3])
        targets = np.array([0, 2])
        report = grad_check(
            lambda s: cls_loss_and_backward(s, TINY, batch, targets),
            store, coords_per_tensor=16, seed=5,
            loss_fn=lambda s: cls_loss(s, TINY, batch, targets),
        )
        assert report.passed, report.summary()
        assert report.max_rel_err < 1e-4


class TestDropout:
    """Each layer draws its masks with one `ops.dropout_keep` over exactly
    the cells it computes: per length group its [g, heads, n, l]
    probabilities, then the attention and FFN outputs' rows."""

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           extra=st.integers(0, 4), width=st.integers(1, 9), n_heads=st.integers(1, 3),
           p=st.floats(0.0, 0.9), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_layer_masks_are_one_draw_of_the_computed_cells(self, lengths, extra, width,
                                                            n_heads, p, seed, dtype, data):
        """Reruns give byte-equal masks and rng states; each mask has the
        shape of the cells the layer computes, for every real token (inner
        layers) or the requested rows (last layer); together they are one
        draw of those cells, with a keep fraction within binomial bounds."""
        s = max(lengths) + extra
        every = _Rows.of((np.arange(s) < np.array(lengths)[:, None]).astype(np.int64))
        want = data.draw(st.lists(st.sampled_from(every.flat.tolist()), unique=True))
        asked = every.ask(np.array(sorted(want), dtype=np.int64))
        for rows in (every, asked):
            runs = []
            for _ in range(2):
                rng = np.random.default_rng(seed)
                att, ao, ff = rows.layer_keeps(rng, p, dtype, n_heads, width)
                runs.append(([*att, ao, ff], rng.bit_generator.state))
            (masks, state), (again, again_state) = runs
            assert [m.tobytes() for m in masks] == [m.tobytes() for m in again]
            assert state == again_state

            want_shapes = [(len(seqs), n_heads, n, l) for seqs, n, l, *_ in _blocks(rows)]
            assert [m.shape for m in masks] == want_shapes + [(rows.flat.size, width)] * 2
            assert all(m.dtype == dtype for m in masks)

            ref = np.random.default_rng(seed)
            cells = sum(m.size for m in masks)
            one_draw = ops.dropout_keep(cells, p, ref, dtype)
            assert np.concatenate([m.reshape(-1) for m in masks]).tobytes() == one_draw.tobytes()
            assert state == ref.bit_generator.state
            kept = int(np.count_nonzero(one_draw))
            assert abs(kept - cells * (1 - p)) <= 6 * np.sqrt(cells * p * (1 - p)) + 1

    def test_an_rng_switches_dropout_on(self):
        cfg = ModelConfig(n_layers=1, hidden=16, n_heads=2, ffn=32, vocab_size=20,
                          max_positions=8, dropout=0.5)
        store = init_params(cfg, seed=0)
        batch = batch_of([2, 6, 3])
        rows = real_rows(batch)
        plain, _ = forward_hidden(store, cfg, batch, rows)
        dropped, _ = forward_hidden(store, cfg, batch, rows, rng=np.random.default_rng(0))
        assert (dropped != plain).any()
        no_drop = dataclasses.replace(cfg, dropout=0.0)
        same, _ = forward_hidden(store, no_drop, batch, rows, rng=np.random.default_rng(0))
        assert same.tobytes() == plain.tobytes()

    def test_eval_mode_ignores_dropout_config(self):
        cfg = ModelConfig(n_layers=1, hidden=16, n_heads=2, ffn=32, vocab_size=20,
                          max_positions=8, dropout=0.5)
        store = init_params(cfg, seed=0)
        a = padded_hidden(store, cfg, batch_of([2, 6, 3]))
        b = padded_hidden(store, cfg, batch_of([2, 6, 3]))
        assert (a == b).all()


# --- token-major layout vs the padded reference ---------------------------------


def _maybe_dropout(x, p, rng, tokens=None):
    """Dropout when given an rng and p > 0, else (x, None). With `tokens` =
    (rows, n_cells), `x` holds rows `rows` of an [n_cells, width] padded
    tensor: the mask is drawn at that padded shape and gathered, so the rng
    stream and every real element's mask are those of a padded run."""
    if rng is None or p == 0.0:
        return x, None
    if tokens is None:
        return ops.dropout(x, p, rng)
    rows, n_cells = tokens
    keep = ops.dropout_keep((n_cells, x.shape[-1]), p, rng, x.dtype)[rows]
    return x * keep, keep


def reference_forward_hidden(params, config, batch, rng=None, want_cache=False):
    """The padded encoder: every layer runs on all [batch, seq] positions."""
    ids = np.asarray(batch.ids)
    b, s = ids.shape
    att = np.asarray(batch.attention_mask)
    seg = np.asarray(batch.segment_ids)
    tok_emb = params["encoder.tok_emb"].value
    dtype = tok_emb.dtype
    p_drop = config.dropout

    x = ops.embedding_lookup(tok_emb, ids)
    x = x + params["encoder.pos_emb"].value[:s]
    x = x + ops.embedding_lookup(params["encoder.seg_emb"].value, seg)
    x, emb_norm_cache = ops.layer_norm(
        x, params["encoder.emb_norm.gain"].value, params["encoder.emb_norm.bias"].value
    )
    x, emb_keep = _maybe_dropout(x, p_drop, rng)
    key_bias = np.where(att[:, None, None, :] > 0, dtype.type(0.0), dtype.type(-np.inf))
    inv_sqrt_dh = dtype.type(1.0 / np.sqrt(config.hidden // config.n_heads))

    layer_caches = []
    for i in range(config.n_layers):
        pre = f"encoder.layer{i}"
        x_in = x
        q = _dense(params, x_in, f"{pre}.attn.wq", f"{pre}.attn.bq")
        k = _dense(params, x_in, f"{pre}.attn.wk", f"{pre}.attn.bk")
        v = _dense(params, x_in, f"{pre}.attn.wv", f"{pre}.attn.bv")
        qh = _split_heads(q, config.n_heads)
        kh = _split_heads(k, config.n_heads)
        vh = _split_heads(v, config.n_heads)
        scores = np.matmul(qh, kh.swapaxes(-1, -2)) * inv_sqrt_dh + key_bias
        probs = ops.softmax(scores)
        probs_d, att_keep = _maybe_dropout(probs, p_drop, rng)
        ctxm = _merge_heads(ops.matmul(probs_d, vh))
        ao = _dense(params, ctxm, f"{pre}.attn.wo", f"{pre}.attn.bo")
        ao, ao_keep = _maybe_dropout(ao, p_drop, rng)
        n1, n1_cache = ops.layer_norm(
            x_in + ao, params[f"{pre}.attn_norm.gain"].value, params[f"{pre}.attn_norm.bias"].value
        )
        a1 = _dense(params, n1, f"{pre}.ffn.w1", f"{pre}.ffn.b1")
        hmid, gelu_cache = ops.gelu(a1)
        ff = _dense(params, hmid, f"{pre}.ffn.w2", f"{pre}.ffn.b2")
        ff, ff_keep = _maybe_dropout(ff, p_drop, rng)
        x, n2_cache = ops.layer_norm(
            n1 + ff, params[f"{pre}.ffn_norm.gain"].value, params[f"{pre}.ffn_norm.bias"].value
        )
        layer_caches.append({
            "x_in": x_in, "qh": qh, "kh": kh, "vh": vh,
            "probs": probs, "probs_d": probs_d, "att_keep": att_keep,
            "ctxm": ctxm, "ao_keep": ao_keep, "n1": n1, "n1_cache": n1_cache,
            "gelu_cache": gelu_cache, "hmid": hmid, "ff_keep": ff_keep, "n2_cache": n2_cache,
        })
    cache = {"ids": ids, "seg": seg, "seq_len": s, "emb_norm_cache": emb_norm_cache,
             "emb_keep": emb_keep, "inv_sqrt_dh": inv_sqrt_dh, "layers": layer_caches}
    return x, (cache if want_cache else None)


def reference_backward_hidden(params, config, cache, d_hidden):
    inv_sqrt_dh = cache["inv_sqrt_dh"]
    dx = d_hidden
    for i in reversed(range(config.n_layers)):
        pre = f"encoder.layer{i}"
        lc = cache["layers"][i]
        dres2, dg2, db2 = ops.layer_norm_backward(dx, lc["n2_cache"])
        params[f"{pre}.ffn_norm.gain"].grad += dg2
        params[f"{pre}.ffn_norm.bias"].grad += db2
        dff = dres2
        if lc["ff_keep"] is not None:
            dff = ops.dropout_backward(dff, lc["ff_keep"])
        dhmid = _dense_backward(params, dff, lc["hmid"], f"{pre}.ffn.w2", f"{pre}.ffn.b2")
        da1 = ops.gelu_backward(dhmid, lc["gelu_cache"])
        dn1 = dres2 + _dense_backward(params, da1, lc["n1"], f"{pre}.ffn.w1", f"{pre}.ffn.b1")
        dres1, dg1, db1 = ops.layer_norm_backward(dn1, lc["n1_cache"])
        params[f"{pre}.attn_norm.gain"].grad += dg1
        params[f"{pre}.attn_norm.bias"].grad += db1
        dx_in = dres1
        dao = dres1
        if lc["ao_keep"] is not None:
            dao = ops.dropout_backward(dao, lc["ao_keep"])
        dctxm = _dense_backward(params, dao, lc["ctxm"], f"{pre}.attn.wo", f"{pre}.attn.bo")
        dctx = _split_heads(dctxm, config.n_heads)
        dprobs, dvh = ops.matmul_backward(dctx, lc["probs_d"], lc["vh"])
        if lc["att_keep"] is not None:
            dprobs = ops.dropout_backward(dprobs, lc["att_keep"])
        dscores = ops.softmax_backward(dprobs, lc["probs"]) * inv_sqrt_dh
        dqh, dkhT = ops.matmul_backward(dscores, lc["qh"], lc["kh"].swapaxes(-1, -2))
        for dzh, proj in zip((dqh, dkhT.swapaxes(-1, -2), dvh), "qkv"):
            dx_in = dx_in + _dense_backward(params, _merge_heads(dzh), lc["x_in"],
                                            f"{pre}.attn.w{proj}", f"{pre}.attn.b{proj}")
        dx = dx_in
    if cache["emb_keep"] is not None:
        dx = ops.dropout_backward(dx, cache["emb_keep"])
    demb, dg, db = ops.layer_norm_backward(dx, cache["emb_norm_cache"])
    params["encoder.emb_norm.gain"].grad += dg
    params["encoder.emb_norm.bias"].grad += db
    tok = params["encoder.tok_emb"]
    tok.grad += ops.embedding_lookup_backward(demb, cache["ids"], tok.value.shape[0])
    params["encoder.pos_emb"].grad[: cache["seq_len"]] += demb.sum(axis=0)
    seg = params["encoder.seg_emb"]
    seg.grad += ops.embedding_lookup_backward(demb, cache["seg"], seg.value.shape[0])


def reference_forward_rows(params, config, batch, rows, rng=None, want_cache=False):
    """The padded encoder behind forward_hidden's signature: it runs every
    position and gathers the flat `rows`."""
    hidden, cache = reference_forward_hidden(params, config, batch, rng=rng,
                                             want_cache=want_cache)
    return (hidden.reshape(-1, hidden.shape[-1])[rows],
            None if cache is None else (cache, rows, hidden.shape))


def reference_backward_rows(params, config, cache, d_rows):
    """The padded backward, given the rows' gradient scattered into a zero
    [batch, seq, hidden] one."""
    cache, rows, shape = cache
    d_hidden = np.zeros((shape[0] * shape[1], shape[2]), dtype=d_rows.dtype)
    d_hidden[rows] = d_rows
    reference_backward_hidden(params, config, cache, d_hidden.reshape(shape))


DROP = ModelConfig(n_layers=2, hidden=16, n_heads=2, ffn=32, vocab_size=40,
                   max_positions=16, dropout=0.1)


def masked_batch(lengths, seed=0):
    rng = np.random.default_rng(seed)
    corpus = [list(rng.integers(5, DROP.vocab_size, size=n)) for n in lengths]
    return build_batch(corpus, range(len(corpus)), "static", 0, seed,
                       DROP.vocab_size, DROP.max_positions)


def drop_store(seed):
    params = init_params(DROP, seed).astype(np.float64)
    init_classifier(params, DROP, 3, seed=seed + 1)
    return params


# Lanes that ops.dropout_keep drops and keeps at any p in (0, 1 - 2**-32]
DROPPED, KEPT = 0, 0xFFFFFFFF


class ReplayRng:
    """Stands in for the padded reference's rng: `bit_generator.random_raw`
    returns, at the padded shape and in the reference's draw order, 64-bit
    words whose 32-bit lanes (low half first) give the masks forward_hidden
    cached: DROPPED where a cell was dropped and KEPT where it was kept.
    Cells the encoder does not compute (pads, the last layer's other rows)
    get 2**31; no compared output reads them."""

    def __init__(self, config, att, cache):
        b, s = att.shape
        self.bit_generator = self

        def rows(flat, keep):
            draw = np.full((b * s, keep.shape[-1]), 2**31, np.uint32)
            draw[flat] = np.where(keep != 0, KEPT, DROPPED)
            return draw

        self.draws = [rows(np.flatnonzero(np.asarray(att).reshape(-1)), cache.emb.keep)]
        for attn, ffn in cache.layers:
            out = attn.rows
            probs = np.full((b, config.n_heads, s, s), 2**31, np.uint32)
            for (seqs, _, l, *_), gc in zip(_blocks(out), attn.groups):
                for j, i in enumerate(seqs):
                    pos = out.flat[out.flat // s == i] % s
                    probs[i][:, pos, :l] = np.where(gc.keep[j, :, :pos.size] != 0, KEPT, DROPPED)
            self.draws += [probs, rows(out.flat, attn.keep), rows(out.flat, ffn.keep)]

    def random_raw(self, size):
        lanes = self.draws.pop(0).reshape(-1)
        assert size == -(-lanes.size // 2)
        packed = np.zeros(2 * size, "<u4")
        packed[:lanes.size] = lanes
        return packed.view("<u8").astype(np.uint64)


def check_rows_against_reference(lengths, rows, seed=0):
    """forward_hidden/backward_hidden at the flat `rows` vs the padded
    encoder in float64 with dropout, under the same masks: the rows' states
    and every gradient."""
    enc = masked_batch(lengths, seed).encoded()
    params = drop_store(seed)
    rows = np.asarray(rows, dtype=np.int64)
    hidden, cache = forward_hidden(params, DROP, enc, rows, rng=np.random.default_rng(seed),
                                   want_cache=True)
    replay = ReplayRng(DROP, enc.attention_mask, cache)
    ref, ref_cache = reference_forward_rows(params, DROP, enc, rows, rng=replay,
                                            want_cache=True)
    assert replay.draws == []
    assert hidden.shape == ref.shape == (rows.size, DROP.hidden)
    npt.assert_allclose(hidden, ref, rtol=1e-12, atol=0)

    d_rows = np.random.default_rng(seed + 1).standard_normal(hidden.shape)
    new, old = params.clone(), params.clone()
    backward_hidden(new, DROP, cache, d_rows)
    reference_backward_rows(old, DROP, ref_cache, d_rows)
    for name in new.names():
        npt.assert_allclose(new[name].grad, old[name].grad, rtol=1e-9, atol=1e-15,
                            err_msg=name)


def check_against_reference(lengths, seed=0):
    """Every real row, then the two losses, whose heads read the labelled
    rows and row 0, against the padded encoder under the masks the
    encoder drew."""
    batch = masked_batch(lengths, seed)
    enc = batch.encoded()
    check_rows_against_reference(lengths, real_rows(enc), seed)

    params = drop_store(seed)
    targets = np.arange(len(lengths)) % 3
    runs = {
        "mlm": lambda store, rng: training.mlm_loss_and_backward(store, DROP, batch, rng=rng),
        "cls": lambda store, rng: training.cls_loss_and_backward(store, DROP, enc, targets,
                                                                 rng=rng),
    }
    for head, run in runs.items():
        new, old = params.clone(), params.clone()
        caches = []

        def recording_forward(*args, **kwargs):
            hidden, cache = forward_hidden(*args, **kwargs)
            caches.append(cache)
            return hidden, cache

        with mock.patch.object(training, "forward_hidden", recording_forward):
            loss = run(new, np.random.default_rng(seed))
        replay = ReplayRng(DROP, enc.attention_mask, caches[0])
        with mock.patch.multiple(training, forward_hidden=reference_forward_rows,
                                 backward_hidden=reference_backward_rows):
            want = run(old, replay)
        assert replay.draws == [], head
        assert loss == pytest.approx(want, rel=1e-12), head
        for name in new.names():
            npt.assert_allclose(new[name].grad, old[name].grad, rtol=1e-9, atol=1e-15,
                                err_msg=f"{head}: {name}")
        assert (new["encoder.layer0.ffn.w1"].grad != 0).any(), head


class TestTokenMajorLayout:
    """forward_hidden/backward_hidden run on the real tokens only: every
    row-wise layer on the token rows, attention per length group with no
    key mask, and every dropout mask drawn for the computed cells alone.
    The last layer runs its keys and values on every real token and the
    rest on the requested rows. Held to the padded encoder above, which
    runs every position, draws the encoder's masks at the padded shape
    from a ReplayRng, and gathers the requested rows."""

    def test_mixed_lengths_match_padded_reference(self):
        check_against_reference([9, 3, 14, 1, 6])

    def test_no_padding_matches_padded_reference(self):
        check_against_reference([7, 7, 7])

    def test_single_real_token_per_row_matches_padded_reference(self):
        check_against_reference([1, 1, 1, 1])

    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(1, DROP.max_positions), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    def test_random_lengths_match_padded_reference(self, lengths, seed):
        check_against_reference(lengths, seed)

    # Lengths 9, 3, 14, 1 and 6: the batch is 14 wide.
    @pytest.mark.parametrize("rows", [
        [2, 3, 8, 28, 31],    # sequences 0 and 2 only: the lengths 1, 3 and 6 ask for none
        list(range(28, 42)),  # the whole of sequence 2
        [59],                 # one row in the whole batch
        [0, 14, 28, 42, 56],  # one row per sequence, as the classifier asks
        [],
    ], ids=["groups-without-rows", "whole-sequence", "one-row", "one-per-sequence", "none"])
    def test_requested_rows_match_padded_reference(self, rows):
        check_rows_against_reference([9, 3, 14, 1, 6], rows)

    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(1, DROP.max_positions), min_size=1, max_size=6),
           seed=st.integers(0, 2**16), data=st.data())
    def test_random_rows_match_padded_reference(self, lengths, seed, data):
        real = real_rows(masked_batch(lengths, seed).encoded())
        rows = data.draw(st.lists(st.sampled_from(real.tolist()), unique=True))
        check_rows_against_reference(lengths, sorted(rows), seed)


class TestSublayerPrefixes:
    """Each sublayer's backward accumulates the grads of the parameters
    under its prefix and no others, in float64 with dropout on. Layer 1 is
    the last, run on each sequence's [CLS] row alone."""

    @pytest.mark.parametrize("sublayer", ["attention", "ffn", "embed"])
    def test_backward_touches_exactly_its_parameters(self, sublayer):
        enc = masked_batch([9, 3, 14, 1, 6]).encoded()
        params = drop_store(0)
        _, cache = forward_hidden(params, DROP, enc, enc.cls_rows(),
                                  rng=np.random.default_rng(0), want_cache=True)
        params.zero_grads()
        attn, ffn = cache.layers[1]
        draw = np.random.default_rng(1).standard_normal
        if sublayer == "attention":
            encoder._self_attention_backward(params, draw(attn.xq.shape), attn,
                                             "encoder.layer1.attn", DROP.n_heads)
            owned = ("encoder.layer1.attn.", "encoder.layer1.attn_norm.")
        elif sublayer == "ffn":
            encoder._feed_forward_backward(params, draw(ffn.x.shape), ffn, "encoder.layer1.ffn")
            owned = ("encoder.layer1.ffn.", "encoder.layer1.ffn_norm.")
        else:
            encoder._embed_backward(params, draw(cache.layers[0][0].x_in.shape), cache.emb)
            owned = ("encoder.tok_emb", "encoder.pos_emb", "encoder.seg_emb",
                     "encoder.emb_norm.")
        touched = {name for name in params.names() if (params[name].grad != 0).any()}
        want = {name for name in params.names() if name.startswith(owned)}
        # bk's gradient is zero in exact arithmetic: a bias on every key moves
        # each query's scores by one constant, which softmax ignores.
        bk = {"encoder.layer1.attn.bk"}
        assert touched <= want and want - touched <= bk
