"""Tensor kernel checks against naive loop oracles and hand values."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdph import tensor
from sgdph.tensor import (
    DomainError,
    Rng,
    ShapeMismatchError,
    conv2d,
    conv_w,
    elementwise,
    matmul,
    moments,
    unfold2d,
)


def matmul_loops(a, b):
    """Triple-loop reference product, deliberately independent of numpy's @."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def conv2d_loops(x, w, pads):
    """Six-nested-loop cross-correlation reference, stride 1."""
    pt, pb, pl, pr = pads
    x = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for b in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    s = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                s += x[b, ci, i + u, j + v] * w[co, ci, u, v]
                    out[b, co, i, j] = s
    return out


class TestElementwise:
    def test_recip(self):
        np.testing.assert_array_equal(
            elementwise("recip", np.array([2.0, 4.0])), [0.5, 0.25]
        )

    def test_relu(self):
        np.testing.assert_array_equal(
            elementwise("relu", np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_log_of_negative(self):
        with pytest.raises(DomainError):
            elementwise("log", np.array([1.0, -1.0]))

    def test_sqrt_of_negative(self):
        with pytest.raises(DomainError):
            elementwise("sqrt", np.array([-4.0]))

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown"):
            elementwise("cosh", np.array([1.0]))


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_selector_row(self):
        out = matmul(np.array([[1.0, 0.0]]), np.array([[5.0], [7.0]]))
        np.testing.assert_array_equal(out, [[5.0]])

    def test_against_triple_loop(self):
        rng = Rng(11)
        a = rng.normal((3, 4))
        b = rng.normal((4, 2))
        np.testing.assert_allclose(matmul(a, b), matmul_loops(a, b), rtol=0, atol=1e-14)

    def test_inner_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="inner"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ShapeMismatchError):
            matmul(np.zeros(3), np.zeros((3, 2)))

    def test_rejects_rank_3(self):
        # a convolution multiplies per sample inside its own kernels, so no
        # caller needs a batch of products
        rng = Rng(12)
        with pytest.raises(ShapeMismatchError, match="two matrices"):
            matmul(rng.normal((3, 2, 4)), rng.normal((3, 4, 5)))
        with pytest.raises(ShapeMismatchError, match="two matrices"):
            matmul(rng.normal((2, 4)), rng.normal((3, 4, 5)))


class TestMoments:
    def test_hand_values(self):
        mean, var = moments(np.array([1.0, 2.0, 3.0]), (0,))
        assert mean == pytest.approx(2.0, abs=0)
        assert var == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_constant(self):
        _, var = moments(np.full((4, 5), 3.7), (0, 1))
        np.testing.assert_array_equal(var, 0.0)

    def test_symmetric_pair(self):
        mean, var = moments(np.array([2.5, -2.5]), (0,))
        assert mean == 0.0
        assert var == pytest.approx(6.25, rel=1e-15)

    def test_population_not_sample(self):
        # n=2: population var of [0,2] is 1, sample var would be 2
        _, var = moments(np.array([0.0, 2.0]), (0,))
        assert var == pytest.approx(1.0, abs=0)

    def test_per_channel_axes(self):
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 2, 2)
        mean, var = moments(x, (0, 2, 3))
        assert mean.shape == (3,)
        for c in range(3):
            np.testing.assert_allclose(mean[c], x[:, c].mean())
            np.testing.assert_allclose(var[c], x[:, c].var())

    def test_bad_axis(self):
        with pytest.raises(ShapeMismatchError):
            moments(np.zeros((2, 2)), (5,))


class TestConv2d:
    def test_identity_kernel(self):
        rng = Rng(3)
        x = rng.normal((2, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(conv2d(x, w), x)

    def test_zero_kernel(self):
        x = Rng(4).normal((1, 2, 3, 3))
        out = conv2d(x, np.zeros((3, 2, 3, 3)))
        np.testing.assert_array_equal(out, np.zeros((1, 3, 3, 3)))

    def test_against_nested_loops_same_multichannel(self):
        rng = Rng(9)
        x = rng.normal((2, 3, 5, 6))
        w = rng.normal((4, 3, 3, 3))
        out = conv2d(x, w)
        assert out.shape == (2, 4, 5, 6)
        ref = conv2d_loops(x, w, (1, 1, 1, 1))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_against_nested_loops_odd_non_square_kernel(self):
        # a 3x5 kernel pads one row above and below, two columns either side
        rng = Rng(13)
        x = rng.normal((2, 2, 4, 6))
        w = rng.normal((3, 2, 3, 5))
        np.testing.assert_allclose(conv2d(x, w), conv2d_loops(x, w, (1, 1, 2, 2)),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (1, 1, 3, 2), (1, 1, 4, 3)])
    def test_even_kernel_rejected(self, shape):
        # same padding is symmetric only for an odd kernel
        with pytest.raises(ShapeMismatchError, match=f"odd kernel.*{re.escape(str(shape))}"):
            conv2d(np.zeros((1, 1, 4, 4)), np.zeros(shape))

    def test_empty_plane(self):
        with pytest.raises(ShapeMismatchError, match="non-empty"):
            conv2d(np.zeros((1, 1, 0, 4)), np.zeros((1, 1, 3, 3)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="channel"):
            conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)))


def flip(w):
    """A [Cout,Cin,kh,kw] kernel turned half a turn, its channel axes swapped."""
    return w.swapaxes(0, 1)[:, :, ::-1, ::-1]


class TestConvAdjoints:
    @pytest.mark.parametrize("k", [3, 5])
    def test_adjoint_identities(self, k):
        # <conv2d(x, w), g> == <x, conv2d(g, flip(w))> == <w, conv_w(x, g)>:
        # the two adjoints of a bilinear map, for the odd kernels 3x5 and
        # 5x3, which are not square
        rng = Rng(31 + k)
        x = rng.normal((2, 3, 5, 4))
        w = rng.normal((4, 3, k, 8 - k))
        g = rng.normal((2, 4, 5, 4))
        lhs = float(np.sum(conv2d(x, w) * g))
        gx, gw = conv2d(g, flip(w)), conv_w(x, g, k, 8 - k)
        assert gx.shape == x.shape and gx.flags.c_contiguous
        assert gw.shape == w.shape
        assert float(np.sum(x * gx)) == pytest.approx(lhs, rel=1e-12)
        assert float(np.sum(w * gw)) == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("kh,kw", [(2, 2), (3, 4)])
    def test_kernel_adjoint_rejects_even_kernels(self, kh, kw):
        shape = re.escape(str((4, 2, kh, kw)))
        with pytest.raises(ShapeMismatchError, match=f"odd kernel.*{shape}"):
            conv_w(np.zeros((1, 2, 4, 4)), np.zeros((1, 4, 4, 4)), kh, kw)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="conv_w"):
            conv_w(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 4, 5)), 3, 3)


class TestUnfoldFold:
    def test_unfold_column_is_receptive_field(self):
        # a 3x3 kernel pads one row and one column on every side
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = unfold2d(x, 3, 3)
        assert cols.shape == (1, 9, 16)
        np.testing.assert_array_equal(cols[0, :, 0], [0, 0, 0, 0, 0, 1, 0, 4, 5])
        np.testing.assert_array_equal(cols[0, :, 5], [0, 1, 2, 4, 5, 6, 8, 9, 10])
        np.testing.assert_array_equal(cols[0, :, 15], [10, 11, 0, 14, 15, 0, 0, 0, 0])
        # column p = i*W + j of sample n is the (c, u, v)-ordered window of
        # the zero-padded input at output pixel (i, j), value for value; a
        # 3x5 kernel pads (top, bottom, left, right) = (1, 1, 2, 2)
        x = Rng(4).normal((2, 3, 5, 4))
        cols = unfold2d(x, 3, 5)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (2, 2)))
        assert cols.shape == (2, 3 * 3 * 5, 5 * 4)
        for n in range(2):
            for i in range(5):
                for j in range(4):
                    np.testing.assert_array_equal(
                        cols[n, :, i * 4 + j], xp[n, :, i : i + 3, j : j + 5].ravel()
                    )


class TestPurity:
    def test_kernels_leave_read_only_inputs_bit_identical(self):
        # a kernel that wrote into an argument would raise on these
        rng = Rng(17)
        x, w, g = rng.normal((3, 2, 5, 4)), rng.normal((4, 2, 3, 5)), rng.normal((3, 4, 5, 4))
        before = [a.tobytes() for a in (x, w, g)]
        for a in (x, w, g):
            a.flags.writeable = False
        conv2d(x, w)
        conv2d(g, flip(w))
        conv_w(x, g, 3, 5)
        unfold2d(x, 3, 5)
        assert [a.tobytes() for a in (x, w, g)] == before


def whole_batch(op, a, b):
    """conv2d or conv_w over the whole batch at once, unfolding one
    [N, C*3*3, H*W] patch matrix: the unchunked formulas."""
    if op == "conv2d":
        x, w = a, b
        out = np.matmul(w.reshape(w.shape[0], -1), unfold2d(x, 3, 3))
        return out.reshape((x.shape[0], w.shape[0]) + x.shape[2:])
    x, g = a, b
    n, cout, h, wd = g.shape
    prods = np.matmul(g.reshape(n, cout, h * wd), unfold2d(x, 3, 3).swapaxes(-1, -2))
    return np.sum(prods, axis=0).reshape(cout, x.shape[1], 3, 3)


class TestBatchChunks:
    # 8 input channels on 12x12 planes: chunks of 50 samples in f32, 25 in f64
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["conv2d", "conv_w"])
    def test_chunked_kernels_equal_the_whole_batch_formulas(self, op, dtype):
        k = tensor._chunk(8, 3, 3, 12, 12, dtype)
        assert 1 < k < 100
        rng = Rng(7)
        w = rng.normal((16, 8, 3, 3), dtype)
        for n in (1, k - 1, k, k + 3, 100):
            x = rng.normal((n, 8, 12, 12), dtype)
            g = rng.normal((n, 16, 12, 12), dtype)
            a, b = {"conv2d": (x, w), "conv_w": (x, g)}[op]
            got = conv_w(a, b, 3, 3) if op == "conv_w" else getattr(tensor, op)(a, b)
            ref = whole_batch(op, a, b)
            assert got.dtype == ref.dtype == dtype
            assert got.flags.c_contiguous and np.array_equal(got, ref), (op, n)

    def test_an_input_adjoint_unfolds_half_the_batch_at_a_time(self):
        # conv2d(g, flip(w)) for a 8 -> 16 kernel on a batch that fits one
        # _PATCH_BYTES chunk: a chunk of n*Cout/Cin samples, the same bits
        g = Rng(0).normal((4, 16, 6, 6), np.float32)
        w = flip(Rng(1).normal((16, 8, 3, 3), np.float32))
        patch = 4 * 16 * 9 * 36 * 4
        tracemalloc.start()
        try:
            got = conv2d(g, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, whole_batch("conv2d", g, w))
        assert patch // 2 <= peak <= patch // 2 + got.nbytes + w.nbytes + 4096, peak

    def test_conv2d_never_holds_the_whole_batch_patch_matrix(self):
        # conv2 of a cnn-bn f32 step at batch 100: the whole batch's patch
        # matrix alone is 22.6 MB, the output 5.0 MB
        x = Rng(0).normal((100, 8, 28, 28), np.float32)
        w = Rng(1).normal((16, 8, 3, 3), np.float32)
        out_bytes = 100 * 16 * 28 * 28 * 4
        tracemalloc.start()
        try:
            conv2d(x, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out_bytes + tensor._PATCH_BYTES + (1 << 20), peak


class TestProperties:
    @given(
        st.lists(
            st.floats(-100, 100, allow_nan=False, width=64), min_size=1, max_size=32
        )
    )
    def test_var_identity(self, xs):
        x = np.array(xs, dtype=np.float64)
        mean, var = moments(x, (0,))
        mean2, _ = moments(x * x, (0,))
        scale = max(1.0, float(np.max(np.abs(x))) ** 2)
        assert abs(var - (mean2 - mean * mean)) <= 8 * np.finfo(np.float64).eps * scale

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 5), st.integers(0, 4), st.integers(0, 10_000))
    def test_one_hot_conv_selects_channel(self, cin, pick, seed):
        pick = pick % cin
        x = Rng(seed).normal((2, cin, 3, 3))
        w = np.zeros((1, cin, 1, 1))
        w[0, pick, 0, 0] = 1.0
        out = conv2d(x, w)
        np.testing.assert_array_equal(out[:, 0], x[:, pick])


class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(42).normal((8,))
        b = Rng(42).normal((8,))
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal((8,)), Rng(2).normal((8,)))

    def test_permutation_deterministic(self):
        np.testing.assert_array_equal(Rng(5).permutation(10), Rng(5).permutation(10))
