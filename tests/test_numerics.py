import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmforge.errors import (
    ConfigError,
    DataError,
    DeterminismError,
    NonFiniteError,
    ShapeError,
)
from mlmforge.numerics import ParameterStore, adam_step, grad_check
from mlmforge.numerics import ops


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(ops.softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_rows_sum_to_one_and_open_interval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 3, size=(50, 17)).astype(np.float64)
        p = ops.softmax(x)
        npt.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
        assert (p > 0).all() and (p < 1).all()

    def test_minus_inf_masked_entries_are_exactly_zero(self):
        x = np.array([[1.0, -np.inf, 2.0]])
        p = ops.softmax(x)
        assert p[0, 1] == 0.0
        npt.assert_allclose(p.sum(), 1.0)


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = np.full((3, 8), 2.5)
        out, _ = ops.layer_norm(x, np.ones(8), np.zeros(8))
        npt.assert_allclose(out, 0.0, atol=1e-5)


class TestActivations:
    def test_odd_function_fixed_points(self):
        assert ops.gelu(np.array([0.0]))[0][0] == 0.0
        assert ops.tanh(np.array([0.0]))[0] == 0.0

    def test_gelu_matches_central_difference(self):
        x = np.linspace(-4, 4, 101)
        h = 1e-6
        numeric = (ops.gelu(x + h)[0] - ops.gelu(x - h)[0]) / (2 * h)
        analytic = ops.gelu_backward(np.ones_like(x), ops.gelu(x)[1])
        npt.assert_allclose(analytic, numeric, atol=1e-8)

    def test_gelu_backward_leaves_the_forward_cache(self):
        x = np.linspace(-3, 3, 13)
        _, cache = ops.gelu(x)
        before = [a.copy() for a in cache]
        ops.gelu_backward(np.ones_like(x), cache)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cache, before))


class TestCrossEntropy:
    def test_margin_grid_against_log_sum_exp_oracle(self):
        # Binary logits [m, 0] with target 0: loss = log(1 + exp(-m)).
        losses = []
        for m in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]:
            logits = np.array([[m, 0.0]])
            loss, _ = ops.cross_entropy(logits, np.array([0]))
            oracle = math.log(1.0 + math.exp(-m))
            npt.assert_allclose(loss, oracle, rtol=1e-12)
            losses.append(loss)
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_no_rows_is_data_error(self):
        with pytest.raises(DataError):
            ops.cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("bad", [ops.IGNORE_ID, -1, 3])
    def test_target_outside_classes_is_shape_error(self, bad):
        with pytest.raises(ShapeError, match="target id outside"):
            ops.cross_entropy(np.zeros((2, 3)), np.array([0, bad]))


class TestShapeAndFiniteErrors:
    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
            ops.matmul(np.ones((2, 3)), np.ones((4, 5)))

    def test_add_bias_shape_error(self):
        with pytest.raises(ShapeError, match="add_bias"):
            ops.add_bias(np.ones((2, 3)), np.ones(4))

    def test_add_bias_adds_into_x_and_returns_it(self):
        x = np.arange(6.0).reshape(2, 3)
        assert ops.add_bias(x, np.ones(3)) is x
        assert (x == np.arange(1.0, 7.0).reshape(2, 3)).all()

    def test_non_finite_output_raises(self):
        big = np.full((2, 2), 1e300)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmul"):
            ops.matmul(big, big)

    def test_unchecked_block_skips_the_check_and_restores_it(self):
        big = np.full((2, 2), 1e300)
        with np.errstate(over="ignore"):
            with pytest.raises(KeyError), ops.unchecked():
                assert np.isinf(ops.matmul(big, big)).all()
                raise KeyError
            with pytest.raises(NonFiniteError, match="matmul"):
                ops.matmul(big, big)

    def test_embedding_ids_out_of_range(self):
        with pytest.raises(ShapeError, match="embedding_lookup"):
            ops.embedding_lookup(np.ones((4, 8)), np.array([[0, 4]]))


def loss_for(op_outputs, weights):
    return float(np.sum(op_outputs * weights))


class TestOpGradients:
    """Sampled central differences vs analytic backward, 64-bit, h=1e-5."""

    H = 1e-5
    TOL = 1e-4

    def check(self, forward, backward_inputs, inputs):
        rng = np.random.default_rng(11)
        out = forward(*inputs)
        w = rng.normal(size=out.shape)
        grads = backward_inputs(w, *inputs)
        for arr, grad in zip(inputs, grads):
            if grad is None:
                continue
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(24, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + self.H
                lp = loss_for(forward(*inputs), w)
                flat[i] = orig - self.H
                lm = loss_for(forward(*inputs), w)
                flat[i] = orig
                fd = (lp - lm) / (2 * self.H)
                rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-4)
                assert rel < self.TOL, f"coordinate {i}: analytic {gflat[i]}, fd {fd}"

    def test_matmul_2d(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 6))
        self.check(ops.matmul, lambda w, a, b: ops.matmul_backward(w, a, b), [a, b])

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(2, 3, 4, 6))
        self.check(ops.matmul, lambda w, a, b: ops.matmul_backward(w, a, b), [a, b])

    def test_add_bias(self):
        rng = np.random.default_rng(2)
        x, b = rng.normal(size=(3, 7)), rng.normal(size=7)
        self.check(lambda x, b: ops.add_bias(x.copy(), b),
                   lambda w, x, b: ops.add_bias_backward(w), [x, b])

    def test_softmax(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 9))
        self.check(ops.softmax,
                   lambda w, x: (ops.softmax_backward(w, ops.softmax(x)),), [x])

    def test_layer_norm(self):
        rng = np.random.default_rng(4)
        x, g, b = rng.normal(size=(3, 8)), rng.normal(size=8), rng.normal(size=8)

        def fwd(x, g, b):
            return ops.layer_norm(x, g, b)[0]

        def bwd(w, x, g, b):
            _, cache = ops.layer_norm(x, g, b)
            return ops.layer_norm_backward(w, cache)

        self.check(fwd, bwd, [x, g, b])

    def test_gelu_tanh(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 5))
        self.check(lambda x: ops.gelu(x)[0],
                   lambda w, x: (ops.gelu_backward(w, ops.gelu(x)[1]),), [x])
        self.check(ops.tanh, lambda w, x: (ops.tanh_backward(w, ops.tanh(x)),), [x])

    def test_embedding_lookup(self):
        rng = np.random.default_rng(6)
        table = rng.normal(size=(10, 4))
        ids = np.array([[1, 3, 3], [0, 9, 2]])

        def fwd(table):
            return ops.embedding_lookup(table, ids)

        def bwd(w, table):
            return (ops.embedding_lookup_backward(w, ids, table.shape[0]),)

        self.check(fwd, bwd, [table])

    def test_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 6))
        targets = np.array([0, 5, 1, 2])

        def fwd(logits):
            return np.array(ops.cross_entropy(logits.copy(), targets)[0])

        def bwd(w, logits):
            _, cache = ops.cross_entropy(logits.copy(), targets)
            return (float(w) * ops.cross_entropy_backward(cache),)

        self.check(fwd, bwd, [logits])


# Textbook forms of the rewritten elementwise ops: one fresh array per
# subexpression. The ops compute into reused temporaries (gelu's in blocks
# of rows) and must match these byte for byte, in both dtypes.
_GELU_C = 0.7978845608028654
_GELU_A = 0.044715


def textbook_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x * x * x)))


def textbook_gelu_backward(dout, x):
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def textbook_softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def textbook_softmax_backward(dout, probs):
    return probs * (dout - np.sum(dout * probs, axis=-1, keepdims=True))


def textbook_layer_norm(x, gain, bias):
    d = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((d * d).mean(axis=-1, keepdims=True) + ops.LAYER_NORM_EPS)
    xhat = d * inv
    return xhat * gain + bias, (xhat, inv, gain)


def textbook_layer_norm_backward(dout, cache):
    xhat, inv, gain = cache
    h = xhat.shape[-1]
    dxhat = dout * gain
    s1 = dxhat.sum(axis=-1, keepdims=True)
    s2 = (dxhat * xhat).sum(axis=-1, keepdims=True)
    dx = inv * (dxhat - s1 / h - xhat * s2 / h)
    return dx, (dout * xhat).reshape(-1, h).sum(axis=0), dout.reshape(-1, h).sum(axis=0)


def textbook_dropout(x, p, rng):
    words = rng.bit_generator.random_raw((x.size + 1) // 2)
    lanes = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(-1)[:x.size]
    bits = (lanes >= math.ceil(p * 2**32)).reshape(x.shape)
    return textbook_apply_dropout(x, bits, p), bits


def textbook_apply_dropout(x, bits, p):
    """x times the float mask that holds 1/(1-p), rounded once to x's
    dtype, where a cell is kept and 0 where it is dropped."""
    dtype = x.dtype.type
    return x * (bits * (dtype(1) / dtype(1 - p)))


def _dropout_backward_inputs(rng, dtype):
    dout = rng.normal(size=(3, 5, 16)).astype(dtype)
    dout[0, 0, :3] = [-0.0, 0.0, -1e-30]  # a dropped cell keeps its sign of zero
    return dout, rng.random(dout.shape) >= 0.3


def _scores(rng, dtype):
    x = rng.normal(0.0, 3.0, size=(2, 4, 6, 6))
    x[0, :, :, 4:] = -np.inf  # padded keys, as the encoder masks them
    return x.astype(dtype)


def _ln_inputs(rng, dtype):
    x = rng.normal(0.3, 1.5, size=(3, 5, 16))
    return (x.astype(dtype), rng.normal(1.0, 0.1, 16).astype(dtype),
            rng.normal(0.0, 0.1, 16).astype(dtype))


def _grad(rng, dtype, shape):
    return rng.normal(size=shape).astype(dtype)


def _gelu_cases(suffix, shape):
    """gelu and gelu_backward on inputs of `shape`, and gelu_recompute
    against the output of ops.gelu itself."""
    return {
        f"gelu{suffix}": (lambda x: ops.gelu(x)[0], textbook_gelu,
                          lambda r, dt: (r.normal(0.0, 2.5, size=shape).astype(dt),)),
        f"gelu_recompute{suffix}": (lambda x: ops.gelu_recompute(ops.gelu(x)[1]),
                                    lambda x: ops.gelu(x)[0],
                                    lambda r, dt: (r.normal(0.0, 2.5, size=shape).astype(dt),)),
        f"gelu_backward{suffix}": (lambda dout, x: ops.gelu_backward(dout, ops.gelu(x)[1]),
                                   textbook_gelu_backward,
                                   lambda r, dt: (_grad(r, dt, shape),
                                                  r.normal(0.0, 2.5, size=shape).astype(dt))),
    }


INPLACE_CASES = {
    **_gelu_cases("", (3, 5, 16)),
    # 900 rows of 160 in blocks of 409 rows, the last one ragged
    **_gelu_cases("_row_blocks", (3, 300, 160)),
    # one row longer than a block
    **_gelu_cases("_1d", (70001,)),
    "softmax": (ops.softmax, textbook_softmax, lambda r, dt: (_scores(r, dt),)),
    "softmax_backward": (ops.softmax_backward, textbook_softmax_backward,
                         lambda r, dt: (_grad(r, dt, (2, 4, 6, 6)),
                                        textbook_softmax(_scores(r, dt)))),
    "layer_norm": (ops.layer_norm, textbook_layer_norm, _ln_inputs),
    "layer_norm_backward": (ops.layer_norm_backward, textbook_layer_norm_backward,
                            lambda r, dt: (_grad(r, dt, (3, 5, 16)),
                                           textbook_layer_norm(*_ln_inputs(r, dt))[1])),
    "dropout": (lambda x: ops.dropout(x, 0.1, np.random.default_rng(3)),
                lambda x: textbook_dropout(x, 0.1, np.random.default_rng(3)),
                lambda r, dt: (r.normal(size=(3, 5, 16)).astype(dt),)),
    "dropout_backward": (lambda dout, bits: ops.dropout_backward(dout, bits, 0.3),
                         lambda dout, bits: textbook_apply_dropout(dout, bits, 0.3),
                         _dropout_backward_inputs),
}


def _leaves(obj):
    if isinstance(obj, tuple):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


class TestInPlaceOpsMatchTextbook:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(INPLACE_CASES))
    def test_bytes_equal_and_inputs_untouched(self, name, dtype):
        op, textbook, make = INPLACE_CASES[name]
        args = make(np.random.default_rng(21), dtype)
        before = [a.copy() for a in _leaves(args)]
        got, want = list(_leaves(op(*args))), list(_leaves(textbook(*args)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        for a, b in zip(_leaves(args), before):
            assert a.tobytes() == b.tobytes(), f"{name} modified an input"


def reference_embedding_lookup_backward(dout, ids, n_rows):
    """The row-wise 2-D `np.add.at` that ops.embedding_lookup_backward must
    match byte for byte."""
    dtable = np.zeros((n_rows, dout.shape[-1]), dtype=dout.dtype)
    np.add.at(dtable, np.asarray(ids).reshape(-1), dout.reshape(-1, dout.shape[-1]))
    return dtable


# Cancelling pairs, signed zeros and subnormals, where a change of summation
# order or a dropped `+ 0` would show in the bits.
GRAD_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1e-40, -1e-40, 5e-324, 1.0, -1.0, 1e-8]),
                       st.floats(-1e3, 1e3, allow_subnormal=True))


class TestEmbeddingBackwardBits:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
           lead=st.sampled_from([(7,), (3, 5), (1,), (0,)]), h=st.integers(1, 9),
           n_rows=st.integers(1, 6))
    def test_equals_2d_add_at(self, data, dtype, lead, h, n_rows):
        size = int(np.prod(lead))
        ids = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=size,
                                          max_size=size)), dtype=np.int64).reshape(lead)
        cells = data.draw(st.lists(GRAD_CELLS, min_size=size * h, max_size=size * h))
        dout = np.array(cells, dtype=dtype).reshape(*lead, h)
        got = ops.embedding_lookup_backward(dout, ids, n_rows)
        want = reference_embedding_lookup_backward(dout, ids, n_rows)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_touched_rows_equal_dense_add(self, dtype):
        """`backward_hidden` adds tok_emb's gradient on the rows its ids touch
        only. That equals the dense `grad += table` because the dense add
        puts `+ 0` on every other row, which keeps every bit unless the entry
        is -0.0; and no gradient entry is -0.0, since each is zeroed to +0
        and then only added to (here by the MLM head's `+=`, whose -0.0
        terms leave +0). The last assert shows the one case it relies on."""
        rng = np.random.default_rng(21)
        n_rows, h = 12, 5
        grad = np.zeros((n_rows, h), dtype=dtype)
        head = rng.normal(size=(h, n_rows)).astype(dtype)
        head[:, ::3] = -0.0
        grad += head.T  # the MLM head's strided add, as in mlm_head_backward
        ids = rng.integers(0, 7, size=(4, 6))
        dout = rng.normal(size=(4, 6, h)).astype(dtype)
        dout[0, :2] = -0.0

        dense = grad.copy()
        dense += ops.embedding_lookup_backward(dout, ids, n_rows)
        touched, inv = np.unique(ids, return_inverse=True)
        sparse = grad.copy()
        sparse[touched] += ops.embedding_lookup_backward(dout, inv, touched.size)
        assert sparse.tobytes() == dense.tobytes()
        assert not np.signbit(grad[grad == 0]).any()
        # the dense add would turn a -0.0 entry into +0.0; the touched rows would not
        assert not np.signbit(dtype(-0.0) + dtype(0.0))


def reference_keep(draw, p, dtype):
    """The two-pass dropout mask of uniforms `draw`, which ops.dropout_keep
    must give for the uniforms lane / 2**32."""
    keep = np.greater_equal(draw, p).astype(dtype)
    keep /= 1.0 - p
    return keep


def lane_rng(lanes):
    """A stand-in rng whose bit generator's `random_raw` returns the uint32
    `lanes` packed two to a 64-bit word, low half first, as
    ops.dropout_keep reads a 64-bit generator."""
    packed = np.zeros(-(-lanes.size // 2) * 2, "<u4")
    packed[:lanes.size] = lanes.reshape(-1)

    def random_raw(size):
        assert size == packed.size // 2
        return packed.view("<u8").astype(np.uint64)

    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5])
def test_keep_mask_equals_two_pass_mask(dtype, p):
    """ops.dropout_keep reads one 32-bit lane per cell. As the uniform
    lane / 2**32, which float64 holds exactly, a lane gives the two-pass
    mask: a cell is dropped exactly when its lane is below ceil(p * 2**32).
    Lanes one below that threshold and at it straddle it. The mask holds
    the kept bits, one byte a cell; applied to ones it is the two-pass
    float mask."""
    threshold = math.ceil(p * 2**32)
    lanes = np.random.default_rng(4).integers(0, 2**32, size=(33, 7), dtype=np.uint32)
    lanes[0, :4] = [max(threshold - 1, 0), threshold, 0, 2**32 - 1]
    keep = ops.dropout_keep(lanes.shape, p, lane_rng(lanes))
    assert keep.dtype == bool and keep.shape == lanes.shape
    want = reference_keep(lanes / 2**32, p, dtype)
    assert keep.tobytes() == (want != 0).tobytes()
    assert ops.apply_dropout(np.ones(lanes.shape, dtype), keep, p).tobytes() == want.tobytes()
    assert [keep[0, 0], keep[0, 1]] == [p == 0, True]


class TestDropoutKeepGenerators:
    """Any numpy bit generator gives masks at the asked drop rate: MT19937's
    words hold one 32-bit lane, the others' two."""

    @pytest.mark.parametrize("p", [0.1, 0.5])
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64])
    def test_kept_count_is_binomial_and_reruns_equal(self, bit_generator, p):
        shape = (301, 333)
        keep = ops.dropout_keep(shape, p, np.random.Generator(bit_generator(8)))
        again = ops.dropout_keep(shape, p, np.random.Generator(bit_generator(8)))
        assert keep.tobytes() == again.tobytes()
        cells = keep.size
        kept = int(np.count_nonzero(keep))
        assert abs(kept - cells * (1 - p)) <= 6 * math.sqrt(cells * p * (1 - p))

    def test_p_zero_keeps_every_cell(self):
        keep = ops.dropout_keep((7, 9), 0.0, np.random.default_rng(0))
        assert keep.all()

    def test_threshold_of_2_pow_32_drops_every_cell(self):
        """ceil(p * 2**32) is 2**32 for p > 1 - 2**-32; no lane reaches it,
        where a wrapped uint32 threshold of 0 would keep every cell."""
        p = 1.0 - 2.0**-40
        assert math.ceil(p * 2**32) == 2**32
        lanes = np.full(5, 2**32 - 1, np.uint32)
        assert not ops.dropout_keep(5, p, lane_rng(lanes)).any()

    def test_no_rng_draws_no_mask_and_no_mask_is_the_identity(self):
        x = np.ones((2, 3))
        out, keep = ops.dropout(x, 0.3, None)
        assert out is x and keep is None
        assert ops.apply_dropout(x, None, 0.3) is x
        assert ops.dropout_backward(x, None, 0.3) is x


class TestAdam:
    def scalar_store(self, *names, value=0.0, dtype=np.float32):
        store = ParameterStore()
        for n in names:
            store.add(n, np.array([value], dtype=dtype))
        return store

    def test_first_step_magnitude_is_lr(self):
        store = self.scalar_store("w")
        store["w"].grad[...] = 0.5
        adam_step(store, {"w": 1e-3})
        # bias-corrected first step: lr * g / (|g| + eps) = lr * (1 - O(eps/|g|))
        npt.assert_allclose(abs(store["w"].value[0]), 1e-3, rtol=1e-5)

    def test_zero_grad_first_step_no_change(self):
        store = self.scalar_store("w", value=1.25)
        before = store["w"].value.copy()
        adam_step(store, {"w": 1e-3})
        assert (store["w"].value == before).all()

    def test_per_name_update_ratio_one_to_three(self):
        store = self.scalar_store("enc.w", "head.w")
        store["enc.w"].grad[...] = 0.7
        store["head.w"].grad[...] = 0.7
        adam_step(store, {"enc.w": 1e-5, "head.w": 3e-5})
        ratio = store["head.w"].value[0] / store["enc.w"].value[0]
        npt.assert_allclose(ratio, 3.0, rtol=1e-5)

    def test_grads_zeroed_and_step_counted(self):
        store = self.scalar_store("w")
        store["w"].grad[...] = 1.0
        adam_step(store, {"w": 1e-3})
        assert store.step_count == 1
        assert (store["w"].grad == 0).all()

    @pytest.mark.parametrize("lr, name", [({"a": 1e-3}, "'b' has no rate"),
                                          ({"a": 1e-3, "b": 1e-3, "c": 1e-3},
                                           "'c' is not a parameter"),
                                          ({"b": 1e-3, "c": 1e-3}, "'a' has no rate")],
                             ids=["missing", "extra", "both"])
    def test_lr_naming_other_than_the_parameters_is_config_error(self, lr, name):
        """The first name that differs, the store's order first, is named
        before any update."""
        store = self.scalar_store("a", "b", value=1.0)
        for _, p in store.items():
            p.grad[...] = 0.5
        with pytest.raises(ConfigError, match=name):
            adam_step(store, lr)
        assert store.step_count == 0
        for _, p in store.items():
            assert (p.value, p.grad, p.adam_m, p.adam_v) == (1.0, 0.5, 0.0, 0.0)

    def test_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            store = ParameterStore()
            store.add("w", rng.normal(size=(4, 4)).astype(np.float32))
            for _ in range(10):
                store["w"].grad[...] = rng.normal(size=(4, 4)).astype(np.float32)
                adam_step(store, {"w": 1e-3})
            return store["w"].value.copy()

        assert (run() == run()).all()

    def test_zero_lr_freezes_values_bitwise(self):
        rng = np.random.default_rng(9)
        store = ParameterStore()
        store.add("enc.w", rng.normal(size=8).astype(np.float32))
        store.add("head.w", rng.normal(size=8).astype(np.float32))
        before = store["enc.w"].value.copy()
        for _ in range(5):
            store["enc.w"].grad[...] = rng.normal(size=8).astype(np.float32)
            store["head.w"].grad[...] = rng.normal(size=8).astype(np.float32)
            adam_step(store, {"enc.w": 0.0, "head.w": 1e-3})
        assert (store["enc.w"].value == before).all()
        assert (store["head.w"].value != 0).any()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_textbook_update_bitwise(self, dtype):
        """Both paths of adam_step against the textbook update: whole
        tensors (one block, and several with a ragged last one) and a row
        set whose other rows hold +0 grad and moments, also at rate 0."""
        def textbook_step(store, lr):
            store.step_count += 1
            t = store.step_count
            b1, b2 = 0.9, 0.999
            for name, p in store.entries.items():
                g = p.grad
                p.adam_m[...] = b1 * p.adam_m + (1.0 - b1) * g
                p.adam_v[...] = b2 * p.adam_v + (1.0 - b2) * (g * g)
                denom = np.sqrt(p.adam_v * (1.0 / (1.0 - b2**t))) + 1e-8
                p.value -= (p.adam_m / denom) * (lr[name] / (1.0 - b1**t))
                p.grad[...] = 0

        rng = np.random.default_rng(13)
        store = ParameterStore()
        # small values and large rates, so the update's own bits reach the values
        store.add("enc.w", rng.normal(0.0, 1e-3, size=(4, 6)).astype(dtype))
        store.add("head.b", rng.normal(0.0, 1e-3, size=5).astype(dtype))
        # one row longer than a block
        store.add("head.long", rng.normal(0.0, 1e-3, size=70001).astype(dtype))
        # 1100 x 128 runs in blocks of 512, 512 and 76 rows
        store.add("enc.blocks", rng.normal(0.0, 1e-3, size=(1100, 128)).astype(dtype))
        store.add("enc.rows", rng.normal(0.0, 1e-3, size=(40, 3)).astype(dtype))
        store.add("frozen.rows", rng.normal(0.0, 1e-3, size=(9, 4)).astype(dtype))
        rows = {"enc.rows": np.array([0, 5, 6, 17, 39]), "frozen.rows": np.array([2, 8])}
        twin = store.clone()
        frozen = store["frozen.rows"].value.tobytes()
        lr = {"enc.w": 0.3, "head.b": 0.7, "head.long": 0.7, "enc.blocks": 0.3,
              "enc.rows": 0.3, "frozen.rows": 0.0}
        for _ in range(5):
            for name, p in store.items():
                r = rows.get(name, slice(None))
                p.grad[r] = rng.normal(size=p.value[r].shape).astype(dtype)
                twin[name].grad[...] = p.grad
            adam_step(store, lr, rows)
            textbook_step(twin, lr)
        for name, p in store.items():
            q = twin[name]
            for a, b in ((p.value, q.value), (p.adam_m, q.adam_m), (p.adam_v, q.adam_v),
                         (p.grad, q.grad)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (store["enc.rows"].adam_v[1:5] == 0).all()
        assert (store["frozen.rows"].adam_v[2] != 0).all()
        assert store["frozen.rows"].value.tobytes() == frozen

    @pytest.mark.parametrize("rows", [[3, 1], [1, 1], [-1, 2], [0, 4], [0.0, 1.0], [[0, 1]]],
                             ids=["unsorted", "repeated", "negative", "past end", "float",
                                  "2-d"])
    def test_bad_row_set_rejected_before_any_update(self, rows):
        store = ParameterStore()
        store.add("w", np.ones((4, 2), dtype=np.float32))
        store["w"].grad[...] = 1.0
        with pytest.raises(ConfigError, match="sorted, distinct integers in \\[0, 4\\)"):
            adam_step(store, {"w": 1e-3}, {"w": np.array(rows)})
        assert store.step_count == 0
        assert (store["w"].value == 1.0).all() and (store["w"].grad == 1.0).all()

    def test_row_set_of_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            adam_step(self.scalar_store("w"), {"w": 1e-3}, {"v": np.array([0])})


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(2))

    def test_clone_is_independent(self):
        store = ParameterStore()
        store.add("w", np.ones(3, dtype=np.float32))
        store.step_count = 7
        twin = store.clone()
        twin["w"].value[...] = 5.0
        assert (store["w"].value == 1.0).all()
        assert twin.step_count == 7

    def test_astype(self):
        store = ParameterStore()
        store.add("w", np.ones(3, dtype=np.float32))
        wide = store.astype(np.float64)
        assert wide["w"].value.dtype == np.float64
        assert store["w"].value.dtype == np.float32


class TestGradCheck:
    def quad_store(self, theta=3.0):
        store = ParameterStore()
        store.add("theta", np.array([theta], dtype=np.float64))
        return store

    def test_quadratic(self):
        store = self.quad_store()

        def f(s):
            v = s["theta"].value
            s["theta"].grad += 2.0 * v
            return float(v[0] ** 2)

        report = grad_check(f, store, h=1e-5)
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_constant_function_all_zero(self):
        store = self.quad_store()

        def f(s):
            return 42.0

        report = grad_check(f, store)
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_nondeterministic_f_detected(self):
        store = self.quad_store()
        calls = []

        def f(s):
            calls.append(1)
            return float(len(calls))

        with pytest.raises(DeterminismError):
            grad_check(f, store)

    def test_requires_float64(self):
        store = ParameterStore()
        store.add("w", np.ones(2, dtype=np.float32))
        with pytest.raises(ConfigError, match="float64"):
            grad_check(lambda s: 0.0, store)

    def test_detects_wrong_gradient(self):
        store = self.quad_store()

        def f(s):
            v = s["theta"].value
            s["theta"].grad += 3.0 * v  # wrong: true gradient is 2v
            return float(v[0] ** 2)

        report = grad_check(f, store)
        assert not report.passed
        assert "FAIL" in report.summary()

    def test_probes_run_unchecked_and_a_non_finite_probe_names_its_coordinate(self):
        store = ParameterStore()
        store.add("w", np.array([[0.5, 2.0]]))
        checked_in_probe = []

        def loss(s):
            checked_in_probe.append(ops._checking.get())
            w = s["w"].value
            return float(np.log(w[0, 0] - 0.5 + 1e-6) + w[0, 1])

        def f(s):
            w = s["w"].value
            s["w"].grad += [[1.0 / (w[0, 0] - 0.5 + 1e-6), 1.0]]
            return loss(s)

        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError, match=r"probe loss at w\[0, 0\] is not finite"):
            grad_check(f, store, loss_fn=loss, coords_per_tensor=2, seed=1)
        assert checked_in_probe[:2] == [True, True] and not any(checked_in_probe[2:])
