"""Layer forward semantics, dual-path agreement, loss hand values, and the
one function that builds a model tape."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdph import autodiff as ad
from sgdph import nn, oracle, train
from sgdph.config import RunConfig
from sgdph.tensor import Rng, ShapeMismatchError, conv2d as conv2d_np

import nets


def run_v(model, x):
    graph = ad.Graph()
    env = model.bind(graph)
    return model.forward_v(graph.constant(x), env).value


def bn_np(bn, x):
    """The array path in training mode, at the layer's own scale and shift."""
    values = {bn.gamma.name: bn.gamma.value, bn.beta.name: bn.beta.value}
    return bn.forward_np(x, values, training=True)


class TestBatchNorm:
    def test_normalization_hand_values(self):
        bn = nn.BatchNorm("bn", 1, eps_bn=0.0)
        x = np.array([[1.0], [2.0], [3.0]])
        y = bn.forward_np(x, {"bn.gamma": np.ones(1), "bn.beta": np.zeros(1)}, training=True)
        r = np.sqrt(1.5)
        np.testing.assert_allclose(y[:, 0], [-r, 0.0, r], rtol=0, atol=1e-14)

    def test_affine_hand_values(self):
        bn = nn.BatchNorm("bn", 1, eps_bn=0.0)
        x = np.array([[1.0], [2.0], [3.0]])
        y = bn.forward_np(x, {"bn.gamma": np.array([2.0]), "bn.beta": np.array([1.0])},
                          training=True)
        r = np.sqrt(1.5)
        np.testing.assert_allclose(y[:, 0], [1 - 2 * r, 1.0, 1 + 2 * r], rtol=0, atol=1e-14)

    def test_training_output_is_standardized(self):
        bn = nn.BatchNorm("bn", 4)
        x = Rng(0).normal((50, 4)) * 3.0 + 1.0
        y = bn_np(bn, x)
        np.testing.assert_allclose(y.mean(axis=0), np.zeros(4), rtol=0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=0), np.ones(4), rtol=1e-4, atol=0)

    def test_4d_statistics_per_channel(self):
        bn = nn.BatchNorm("bn", 3)
        x = Rng(1).normal((4, 3, 5, 5)) * 2.0 - 1.0
        y = bn_np(bn, x)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), np.zeros(3), rtol=0, atol=1e-12)

    def test_paths_agree_training(self):
        bn = nn.BatchNorm("bn", 5)
        model = nn.Model("m", [bn])
        x = Rng(2).normal((9, 5))
        y_np = model.forward_np(x, training=True)
        y_v = run_v(model, x)
        np.testing.assert_allclose(y_v, y_np, rtol=1e-13, atol=1e-13)

    def test_running_stats_updated_only_by_tape_training_pass(self):
        bn = nn.BatchNorm("bn", 2)
        model = nn.Model("m", [bn])
        x = Rng(3).normal((20, 2)) + 5.0

        bn_np(bn, x)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(2))
        np.testing.assert_array_equal(bn.running_var, np.ones(2))

        mu = x.mean(axis=0)
        var = x.var(axis=0)
        run_v(model, x)
        np.testing.assert_allclose(bn.running_mean, 0.1 * mu, rtol=1e-12, atol=0)
        np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * var, rtol=1e-12, atol=0)

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm("bn", 2)
        bn.running_mean = np.array([1.0, -1.0])
        bn.running_var = np.array([4.0, 0.25])
        model = nn.Model("m", [bn])
        x = Rng(4).normal((7, 2))
        expected = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps_bn)
        np.testing.assert_allclose(model.forward_np(x, training=False), expected,
                                   rtol=1e-13, atol=0)

    def test_rejects_3d_input(self):
        bn = nn.BatchNorm("bn", 2)
        with pytest.raises(ShapeMismatchError):
            bn_np(bn, np.zeros((2, 2, 2)))

    def test_rejects_channel_mismatch(self):
        bn = nn.BatchNorm("bn", 3)
        with pytest.raises(ShapeMismatchError):
            bn_np(bn, np.zeros((4, 5)))


class TestWeightNorm:
    def test_reparam_hand_values(self):
        w = nn.wn_reparam_values(np.array([[3.0, 4.0]]), np.array([2.0]))
        np.testing.assert_allclose(w, [[1.2, 1.6]], rtol=0, atol=1e-15)

    def test_direction_scale_invariance(self):
        rng = Rng(5)
        v = rng.normal((3, 2, 3, 3))
        g = rng.normal((3,))
        w1 = nn.wn_reparam_values(v, g)
        w2 = nn.wn_reparam_values(7.5 * v, g)
        np.testing.assert_allclose(w1, w2, rtol=1e-12, atol=1e-14)

    def test_row_norms_equal_gamma_within_4_ulps(self):
        rng = Rng(6)
        v = rng.normal((4, 3, 3, 3))
        g = rng.normal((4,))
        w = nn.wn_reparam_values(v, g)
        norms = np.sqrt(np.sum(w * w, axis=(1, 2, 3)))
        assert np.all(np.abs(norms - np.abs(g)) <= 4 * np.spacing(np.abs(g)))

    def test_init_gamma_matches_norms_and_kernel_is_identity_reparam(self):
        layer = nn.WNConv("c", 2, 3, 3, Rng(7))
        norms = np.sqrt(np.sum(layer.v.value ** 2, axis=(1, 2, 3)))
        np.testing.assert_allclose(layer.gamma.value, norms, rtol=1e-14, atol=0)
        w = nn.wn_reparam_values(layer.v.value, layer.gamma.value)
        np.testing.assert_allclose(w, layer.v.value, rtol=1e-12, atol=1e-14)

    def test_zero_direction_rejected(self):
        v = np.zeros((2, 1, 3, 3))
        v[0] = 1.0
        with pytest.raises(nn.DegenerateNormError):
            nn.wn_reparam_values(v, np.ones(2))

    def test_paths_agree(self):
        layer = nn.WNConv("c", 2, 3, 3, Rng(8))
        model = nn.Model("m", [layer])
        x = Rng(9).normal((2, 2, 6, 6))
        np.testing.assert_allclose(run_v(model, x), model.forward_np(x, training=True),
                                   rtol=1e-12, atol=1e-12)


class TestLinearConv:
    def test_linear_hand_values(self):
        layer = nn.Linear("fc", 2, 2, Rng(0))
        values = {"fc.weight": np.array([[1.0, 2.0], [3.0, 4.0]]),
                  "fc.bias": np.array([10.0, 20.0])}
        y = layer.forward_np(np.array([[1.0, 0.0]]), values, training=True)
        np.testing.assert_array_equal(y, [[11.0, 22.0]])

    def test_conv_bias_is_per_channel(self):
        layer = nn.WNConv("c", 1, 2, 3, Rng(1))
        x = np.zeros((1, 1, 4, 4))
        values = {"c.v": layer.v.value, "c.gamma": layer.gamma.value,
                  "c.bias": np.array([1.5, -2.0])}
        y = layer.forward_np(x, values, training=True)
        np.testing.assert_array_equal(y[0, 0], np.full((4, 4), 1.5))
        np.testing.assert_array_equal(y[0, 1], np.full((4, 4), -2.0))

    def test_conv_paths_agree(self):
        layer = nn.Conv2d("c", 2, 3, 3, Rng(2))
        model = nn.Model("m", [layer])
        x = Rng(3).normal((2, 2, 6, 6))
        np.testing.assert_allclose(run_v(model, x), model.forward_np(x, training=True),
                                   rtol=1e-12, atol=1e-12)

    def test_conv_bn_relu_activations_are_c_contiguous(self):
        # NCHW in memory, not a permuted view, on both paths: batch norm's
        # reductions over (0, 2, 3) and every elementwise op see one layout
        x = Rng(5).normal((3, 2, 6, 5)).astype(np.float32)
        w = Rng(6).normal((4, 2, 3, 3)).astype(np.float32)
        assert conv2d_np(x, w).flags.c_contiguous
        graph = ad.Graph()
        y = ad.conv2d(graph.constant(x), graph.variable(w))
        assert y.value.flags.c_contiguous
        model = nn.Model("m", [nn.Conv2d("c", 2, 4, 3, Rng(7), np.float32),
                               nn.BatchNorm("bn", 4, np.float32), nn.ReLU()])
        assert run_v(model, x).flags.c_contiguous
        assert model.forward_np(x, training=True).flags.c_contiguous

    def test_default_bias_kind_is_channelwise(self):
        layer = nn.WNConv("c", 1, 2, 3, Rng(4))
        assert layer.bias.kind == ad.CHANNELWISE_1D


class TestLosses:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((2, 4))
        labels = np.array([0, 3])
        assert nn.softmax_cross_entropy_np(logits, labels) == pytest.approx(np.log(4.0))
        graph = ad.Graph()
        lv = nn.softmax_cross_entropy(graph.constant(logits), labels)
        assert float(lv.value) == pytest.approx(np.log(4.0))

    def test_cross_entropy_reference_formula(self):
        rng = Rng(10)
        logits = rng.normal((6, 5)) * 3.0
        labels = rng.integers(0, 5, (6,))
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(6), labels]))
        assert nn.softmax_cross_entropy_np(logits, labels) == pytest.approx(expected, rel=1e-12)
        graph = ad.Graph()
        lv = nn.softmax_cross_entropy(graph.constant(logits), labels)
        assert float(lv.value) == pytest.approx(expected, rel=1e-12)

    def test_shift_invariance(self):
        rng = Rng(11)
        logits = rng.normal((4, 3))
        labels = rng.integers(0, 3, (4,))
        a = nn.softmax_cross_entropy_np(logits, labels)
        b = nn.softmax_cross_entropy_np(logits + 100.0, labels)
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.array([0, -1]), np.array([0, 3])])
    def test_label_range_rejected(self, bad):
        logits = np.zeros((2, 3))
        with pytest.raises(nn.LabelRangeError):
            nn.softmax_cross_entropy_np(logits, bad)
        graph = ad.Graph()
        with pytest.raises(nn.LabelRangeError):
            nn.softmax_cross_entropy(graph.constant(logits), bad)

    def test_sum_of_squares_hand_value(self):
        y = np.array([1.0, 2.0])
        assert nn.sum_of_squares_np(y) == 2.5
        graph = ad.Graph()
        assert float(nn.sum_of_squares(graph.constant(y)).value) == 2.5


class TestModel:
    def test_duplicate_parameter_names_rejected(self):
        rng = Rng(0)
        with pytest.raises(ValueError, match="duplicate"):
            nn.Model("m", [nn.Linear("fc", 2, 2, rng), nn.Linear("fc", 2, 2, rng)])

    def test_values_returns_copies(self):
        model = nets.mlp_plain(Rng(0), in_shape=(3,), n_classes=2)
        values = model.values()
        values["fc1.weight"][:] = 0.0
        assert np.any(model.parameters()[0].value != 0.0)

    def test_set_values_roundtrip_and_shape_check(self):
        model = nets.mlp_plain(Rng(0), in_shape=(3,), n_classes=2)
        values = model.values()
        model.set_values(values)
        bad = dict(values)
        bad["fc1.weight"] = np.zeros((1, 1))
        with pytest.raises(ShapeMismatchError):
            model.set_values(bad)

    def test_parameter_kind_validation(self):
        with pytest.raises(ValueError, match="must be 1-D"):
            nn.Parameter("p", np.ones((2, 2)), ad.CHANNELWISE_1D)

    def test_unknown_model_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            nn.build_model("nope", Rng(0), in_shape=(2,), n_classes=2)


class TestTapedBatch:
    def test_train_and_the_oracle_build_model_tapes_only_here(self, tmp_path, monkeypatch):
        # a training run, a gradcheck and a tape_hdiag build each of their
        # tapes in one taped_batch call, and no other
        counts = {"graphs": 0, "batches": 0}

        class CountingGraph(ad.Graph):
            def __init__(self):
                counts["graphs"] += 1
                super().__init__()

        def counting_batch(*args, _real=nn.taped_batch, **kwargs):
            counts["batches"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(ad, "Graph", CountingGraph)
        monkeypatch.setattr(nn, "taped_batch", counting_batch)
        result = train.train(RunConfig(model="mlp-bn", epochs=1, dataset_n=100, batch_size=25,
                                       out_metrics=str(tmp_path / "m.jsonl"),
                                       out_checkpoint=str(tmp_path / "m.ckpt")))
        steps = sum(r["split"] == "train" for r in result.records)
        model = nn.build_model("mlp-bn", Rng(0), in_shape=(3,), n_classes=2)
        x, labels = Rng(1).normal((8, 3)), np.array([0, 1] * 4)
        oracle.gradcheck(model, x, "ce", labels)
        oracle.tape_hdiag(model, x, "bn1.gamma", "ce", labels)
        assert steps > 0 and counts == {"graphs": steps + 2, "batches": steps + 2}


class TestZoo:
    @pytest.mark.parametrize("name,in_shape", [
        ("mlp-bn", (4,)),
        ("mlp-bn2", (4,)),
        ("mlp-plain", (4,)),
        ("bn-terminal", (4,)),
        ("cnn-bn", (1, 8, 8)),
        ("cnn-wn", (1, 8, 8)),
    ])
    def test_output_shape_and_path_agreement(self, name, in_shape):
        build = nets.TEST_NETS.get(name, functools.partial(nn.build_model, name))
        model = build(Rng(0), in_shape=in_shape, n_classes=3)
        x = Rng(1).normal((5,) + in_shape)
        y_np = model.forward_np(x, training=True)
        expected_cols = 6 if name == "bn-terminal" else 3
        assert y_np.shape == (5, expected_cols)
        np.testing.assert_allclose(run_v(model, x), y_np, rtol=1e-10, atol=1e-10)

    def test_parameter_kinds(self):
        model = nn.build_model("cnn-bn", Rng(0), in_shape=(1, 6, 6), n_classes=2)
        kinds = {p.name: p.kind for p in model.parameters()}
        assert kinds["conv1.weight"] == ad.DENSE
        assert kinds["fc.weight"] == ad.DENSE
        # the conv layers carry no bias: each feeds a BatchNorm
        assert [n for n, k in kinds.items() if k == ad.CHANNELWISE_1D] == [
            "bn1.gamma", "bn1.beta", "bn2.gamma", "bn2.beta"]

    def test_wn_zoo_gamma_is_channelwise(self):
        model = nn.build_model("cnn-wn", Rng(0), in_shape=(1, 6, 6), n_classes=2)
        kinds = {p.name: p.kind for p in model.parameters()}
        assert kinds["conv1.gamma"] == ad.CHANNELWISE_1D
        assert kinds["conv1.bias"] == ad.CHANNELWISE_1D
        assert kinds["conv1.v"] == ad.DENSE


class TestProperties:
    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bn_training_standardizes(self, n, c, seed):
        bn = nn.BatchNorm("bn", c)
        x = Rng(seed).normal((n, c)) * 4.0 + 2.0
        y = bn_np(bn, x)
        assert np.max(np.abs(y.mean(axis=0))) < 1e-10
        # population variance of the output is var/(var + eps) <= 1
        assert np.max(y.var(axis=0)) <= 1.0 + 1e-12

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_wn_norm_identity(self, cout, seed):
        rng = Rng(seed)
        v = rng.normal((cout, 2, 3, 3))
        g = rng.normal((cout,)) + 0.1
        w = nn.wn_reparam_values(v, g)
        norms = np.sqrt(np.sum(w * w, axis=(1, 2, 3)))
        assert np.all(np.abs(norms - np.abs(g)) <= 4 * np.spacing(np.abs(g)) + 1e-300)
