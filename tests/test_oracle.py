"""The finite-difference machinery itself, the diagonality audit, and the
single-step closed-form check."""

import gc
import itertools
import os
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest

from sgdph import autodiff as ad
from sgdph import cli, nn, optim, oracle
from sgdph.tensor import Rng

import nets


class TestMaxRelErr:
    def test_hand_values(self):
        assert oracle.max_rel_err(np.array([2.0]), np.array([1.0])) == 0.5
        assert oracle.max_rel_err(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_additive_floor_tames_small_references(self):
        # |1e-9 - 0| / (1 + 0): near-zero reference entries do not explode
        assert oracle.max_rel_err(np.array([1e-9]), np.array([0.0])) == pytest.approx(1e-9)

    def test_empty(self):
        assert oracle.max_rel_err(np.array([]), np.array([])) == 0.0


class TestFdGradient:
    def test_quadratic(self):
        a = np.array([2.0, -3.0, 0.5])

        def lossfn(values):
            return float(0.5 * np.sum(a * values["w"] ** 2))

        w0 = np.array([1.0, 2.0, -1.5])
        g = oracle.fd_gradient(lossfn, {"w": w0})
        np.testing.assert_allclose(g["w"], a * w0, rtol=0, atol=1e-9)

    def test_constant_loss_gives_zeros(self):
        g = oracle.fd_gradient(lambda values: 7.0, {"w": np.ones(4)})
        np.testing.assert_array_equal(g["w"], np.zeros(4))

    def test_multiple_parameters(self):
        def lossfn(values):
            return float(np.sum(values["a"]) + np.sum(values["b"] ** 2))

        g = oracle.fd_gradient(lossfn, {"a": np.zeros(2), "b": np.array([3.0])})
        np.testing.assert_allclose(g["a"], np.ones(2), rtol=0, atol=1e-10)
        np.testing.assert_allclose(g["b"], [6.0], rtol=0, atol=1e-8)

    def test_shape_preserved(self):
        g = oracle.fd_gradient(lambda v: float(np.sum(v["w"] ** 2)), {"w": np.ones((2, 3))})
        assert g["w"].shape == (2, 3)

    def test_non_finite_loss_reported(self):
        def lossfn(values):
            return float("inf")

        with pytest.raises(oracle.NonFiniteLossError):
            oracle.fd_gradient(lossfn, {"w": np.ones(1)})

    def test_rejects_nonpositive_step(self):
        def lossfn(values):
            return float(np.sum(values["w"] ** 2))

        with pytest.raises(ValueError, match="step must be positive"):
            oracle.fd_hessian_block_1d(lossfn, {"w": np.ones(2)}, "w", h=-1e-4)


class TestFdHessianBlock:
    def test_diagonal_quadratic(self):
        a = np.array([2.0, 5.0, -1.0])

        def lossfn(values):
            return float(0.5 * np.sum(a * values["g"] ** 2))

        block = oracle.fd_hessian_block_1d(lossfn, {"g": np.ones(3)}, "g", h=0.5)
        np.testing.assert_allclose(block, np.diag(a), rtol=0, atol=1e-10)

    def test_fully_coupled_quadratic(self):
        def lossfn(values):
            return float(0.5 * np.sum(values["g"]) ** 2)

        block = oracle.fd_hessian_block_1d(lossfn, {"g": np.zeros(4)}, "g", h=0.5)
        np.testing.assert_allclose(block, np.ones((4, 4)), rtol=0, atol=1e-10)

    def test_symmetrized_output_is_symmetric(self):
        rng = Rng(0)
        a = rng.normal((3, 3))

        def lossfn(values):
            w = values["g"]
            return float(w @ a @ w + np.sum(np.sin(w)))

        block = oracle.fd_hessian_block_1d(lossfn, {"g": rng.normal((3,))}, "g")
        np.testing.assert_array_equal(block, block.T)

    def test_rejects_matrix_parameter(self):
        with pytest.raises(ValueError, match="not 1-D"):
            oracle.fd_hessian_block_1d(lambda v: 0.0, {"g": np.ones((2, 2))}, "g")

    def test_rejects_wide_blocks(self):
        with pytest.raises(ValueError, match="C <= 64"):
            oracle.fd_hessian_block_1d(lambda v: 0.0, {"g": np.ones(65)}, "g")


def counting(lossfn):
    """lossfn, plus a list whose length is the number of calls made."""
    calls = []

    def counted(values):
        calls.append(None)
        return lossfn(values)

    return counted, calls


def reference_block(lossfn, params, name, h=oracle.FD_STEP):
    """The block as four fresh loss evaluations per entry, 4 C^2 in all: the
    plain loop the memoised fd_hessian_block_1d must reproduce bit for bit."""
    base = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    c = base[name].size

    def evaluate(shifts):
        w = base[name].copy()
        for idx, s in shifts.items():
            w[idx] += s
        return float(lossfn({**base, name: w}))

    def grad_entry(j, i, si):
        sp = {i: si}
        sp[j] = sp.get(j, 0.0) + h
        sm = {i: si}
        sm[j] = sm.get(j, 0.0) - h
        return (evaluate(sp) - evaluate(sm)) / (2.0 * h)

    out = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            out[i, j] = (grad_entry(j, i, +h) - grad_entry(j, i, -h)) / (2.0 * h)
    return 0.5 * (out + out.T)


class TestMemoisedBlock:
    """Each distinct probe point is evaluated once, and the block is the
    one four evaluations per entry give."""

    def check(self, lossfn, params, name, h=oracle.FD_STEP):
        c = params[name].size
        ref_fn, ref_calls = counting(lossfn)
        new_fn, new_calls = counting(lossfn)
        ref = reference_block(ref_fn, params, name, h)
        block = oracle.fd_hessian_block_1d(new_fn, params, name, h)
        np.testing.assert_array_equal(block, ref)
        assert len(ref_calls) == 4 * c * c
        assert len(new_calls) == 2 * c * c + c

    def test_quadratic_closure(self):
        rng = Rng(5)
        a = rng.normal((5, 5))

        def lossfn(values):
            w = values["g"]
            return float(0.5 * w @ a @ w + np.sum(np.cos(w)))

        self.check(lossfn, {"g": rng.normal((5,)), "other": np.ones(2)}, "g", h=1e-3)

    @pytest.mark.parametrize("name", ["bn1.gamma", "bn2.beta"])
    def test_cnn_bn_verify_parameter(self, name):
        model, x, loss, labels = cli._verify_input("cnn-bn", 0)
        assert model.values()[name].size == (8 if name == "bn1.gamma" else 16)
        self.check(oracle.model_lossfn(model, x, loss, labels), model.values(), name)


def scratch_lossfn(model, x, loss, labels):
    """The masked forward with no reuse: masks from a plain forward at the
    model's values, then every layer run on every call."""
    base = {p.name: np.asarray(p.value, dtype=np.float64) for p in model.parameters()}
    x = np.asarray(x, dtype=np.float64)
    masks, z = [], x
    for layer in model.layers:
        masks.append(z > 0 if isinstance(layer, nn.ReLU) else None)
        z = layer.forward_np(z, base, training=True)

    def lossfn(values):
        z = x
        for layer, mask in zip(model.layers, masks):
            z = layer.forward_np(z, values, training=True) if mask is None else z * mask
        return (nn.sum_of_squares_np(z) if loss == "sos"
                else nn.softmax_cross_entropy_np(z, labels))

    return lossfn


def one_entry_steps(model, h=oracle.FD_STEP):
    """One value dict per parameter, that parameter's middle entry moved by h."""
    steps = []
    for p in model.parameters():
        values = model.values()
        values[p.name].reshape(-1)[p.value.size // 2] += h
        steps.append((p.name, values))
    return steps


class TestPrefixReuse:
    """model_lossfn reruns only the layers from the first changed one, and
    its value is the full masked forward's, bit for bit, whatever came
    before the call."""

    MODELS = ("cnn-bn", "cnn-wn", "mlp-bn", "bn-terminal")

    @pytest.mark.parametrize("model_name", MODELS)
    def test_every_one_entry_step_is_exact_in_any_order(self, model_name):
        model, x, loss, labels = cli._verify_input(model_name, 0)
        want = scratch_lossfn(model, x, loss, labels)
        steps = [values for _, values in one_entry_steps(model)]
        expected = [want(values) for values in steps]
        lossfn = oracle.model_lossfn(model, x, loss, labels)
        assert lossfn(model.values()) == want(model.values())
        assert [lossfn(values) for values in steps] == expected
        # late then early, and back: what a call computed never leaks
        assert [lossfn(values) for values in reversed(steps)] == expected[::-1]
        order = [k for pair in zip(reversed(range(len(steps))), range(len(steps)))
                 for k in pair]
        assert [lossfn(steps[k]) for k in order] == [expected[k] for k in order]
        assert len(set(expected)) > 1

    def test_a_late_step_skips_the_layers_before_it(self, monkeypatch):
        model, x, loss, labels = cli._verify_input("cnn-bn", 0)
        lossfn = oracle.model_lossfn(model, x, loss, labels)
        ran = []
        for k, layer in enumerate(model.layers):
            def traced(z, values, training, _k=k, _f=layer.forward_np):
                ran.append(_k)
                return _f(z, values, training)
            monkeypatch.setattr(layer, "forward_np", traced)
        steps = dict(one_entry_steps(model))
        names = [getattr(layer, "name", None) for layer in model.layers]
        lossfn(steps["bn2.gamma"])
        # conv1, bn1 and conv2 are skipped; the ReLUs run as held masks
        assert [names[k] for k in ran] == ["bn2", None, "fc"]
        ran.clear()
        lossfn(steps["conv1.weight"])
        assert [names[k] for k in ran] == ["conv1", "bn1", "conv2", "bn2", None, "fc"]

    def test_an_f32_prefix_parameter_runs_the_full_forward(self):
        model, x, loss, labels = cli._verify_input("cnn-bn", 0)
        lossfn = oracle.model_lossfn(model, x, loss, labels)
        values = model.values()
        values["conv1.weight"] = values["conv1.weight"].astype(np.float32)
        got = lossfn(values)
        assert got == scratch_lossfn(model, x, loss, labels)(values)
        assert got != lossfn(model.values())

    def test_in_place_change_to_the_model_does_not_reach_the_closure(self):
        model, x, loss, labels = cli._verify_input("cnn-bn", 0)
        original = model.values()
        steps = one_entry_steps(model)
        lossfn = oracle.model_lossfn(model, x, loss, labels)
        want = scratch_lossfn(model, x, loss, labels)
        before = [lossfn(values) for _, values in steps] + [lossfn(original)]
        for p in model.parameters():
            p.value += 0.5
        after = [lossfn(values) for _, values in steps] + [lossfn(original)]
        assert after == before
        # the mutated values are a new point, run in full with the held masks
        assert lossfn(model.values()) == want(model.values())


class TestModelOracles:
    def test_gradcheck_small_bn_mlp(self):
        model = nets.mlp_bn2(Rng(0), in_shape=(4,), n_classes=3)
        x = Rng(1).normal((10, 4))
        labels = Rng(2).integers(0, 3, (10,))
        errs = oracle.gradcheck(model, x, loss="ce", labels=labels)
        assert set(errs) == {p.name for p in model.parameters()}
        assert max(errs.values()) <= 1e-6

    def test_layer_registry_covers_every_case(self):
        for case in oracle.LAYER_CASES:
            model, x, loss, labels = oracle.build_layer_case(case, seed=0)
            y = model.forward_np(x, training=True)
            assert np.all(np.isfinite(y))
        with pytest.raises(ValueError, match="unknown layer case"):
            oracle.build_layer_case("nope", 0)

    def test_gradcheck_layers_single_seed(self):
        worst = oracle.gradcheck_layers([0])
        assert max(worst.values()) <= 1e-5

    def test_gradcheck_layers_keeps_a_nan_error(self, monkeypatch):
        # NaN on each case's first seed, a small error on its second: the
        # worst error is the NaN, not the later finite one
        calls = itertools.count()
        monkeypatch.setattr(oracle, "gradcheck", lambda model, *a: {
            p.name: float("nan") if next(calls) % 2 == 0 else 1e-9
            for p in model.parameters()[:1]})
        worst = oracle.gradcheck_layers([0, 1])
        assert len(worst) == len(oracle.LAYER_CASES)
        assert all(np.isnan(err) for err in worst.values())

    def test_preserve_bn_stats_restores(self):
        model = nn.build_model("mlp-bn", Rng(0), in_shape=(3,), n_classes=2)
        bn = model.layers[1]
        before = bn.running_mean.copy()
        x = Rng(1).normal((8, 3))
        with oracle.preserve_bn_stats(model):
            oracle.tape_gradients(model, x, loss="ce",
                                  labels=np.zeros(8, dtype=np.int64))
            bn.running_mean += 99.0
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_tape_gradients_leave_stats_untouched(self):
        model = nn.build_model("mlp-bn", Rng(0), in_shape=(3,), n_classes=2)
        bn = model.layers[1]
        before = bn.running_mean.copy()
        oracle.tape_gradients(model, Rng(1).normal((8, 3)), loss="ce",
                              labels=np.zeros(8, dtype=np.int64))
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_tape_hdiag_matches_fd_rowsums(self):
        model = nn.build_model("bn-terminal", Rng(3), in_shape=(4,), n_classes=2)
        x = Rng(4).normal((12, 4))
        extracted = oracle.tape_hdiag(model, x, "bn1.gamma")
        lossfn = oracle.model_lossfn(model, x)
        block = oracle.fd_hessian_block_1d(lossfn, model.values(), "bn1.gamma", h=0.25)
        np.testing.assert_allclose(extracted, block.sum(axis=1), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("call", [
        lambda m, x, y: oracle.tape_gradients(m, x, "ce", y),
        lambda m, x, y: oracle.tape_hdiag(m, x, "bn1.gamma", "ce", y),
        lambda m, x, y: oracle.gradcheck(m, x, loss="ce", labels=y),
        lambda m, x, y: oracle.newton_step_check(np.array([2.0, -1.0, 0.0]),
                                                 np.array([1.0, -0.5, 2.0]),
                                                 optim.SgdPhConfig()),
    ], ids=["tape_gradients", "tape_hdiag", "gradcheck", "newton_step_check"])
    def test_tape_is_freed_without_the_gc(self, monkeypatch, call):
        # every array the tape computed dies when the call returns, with the
        # cyclic collector off: the oracle releases the tape it built
        model = nn.build_model("mlp-bn", Rng(0), in_shape=(3,), n_classes=2)
        x, labels = Rng(1).normal((8, 3)), np.array([0, 1] * 4)
        refs = []
        backward = ad.backward

        def spy(loss, *args, **kwargs):
            grads = backward(loss, *args, **kwargs)
            refs.extend(weakref.ref(v.value) for v in loss.graph.nodes if v.parents)
            return grads

        monkeypatch.setattr(ad, "backward", spy)
        gc.collect()
        gc.disable()
        try:
            call(model, x, labels)
            alive = sum(r() is not None for r in refs)
        finally:
            gc.enable()
        assert refs and alive == 0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set through glibc's mallopt")
    def test_repeat_tape_hdiag_reuses_freed_heap(self):
        # in a fresh process, where no train() has set the heap policy: a
        # released tape's pages stay in the heap for the next call's tape
        code = "\n".join([
            "import resource",
            "from sgdph import cli, oracle",
            "cases = [cli._verify_input(m, 0) for m in ('cnn-bn', 'cnn-wn')]",
            "def audit():",
            "    for (model, x, loss, labels), p in zip(cases, ('bn1.gamma', 'conv1.gamma')):",
            "        oracle.tape_hdiag(model, x, p, loss, labels)",
            "audit()",
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "for _ in range(5):",
            "    audit()",
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        ])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) < 100, f"{out.stdout.strip()} minor faults over 10 calls"


class TestDiagonalityReport:
    def test_terminal_bn_is_diagonal(self):
        model = nn.build_model("bn-terminal", Rng(0), in_shape=(5,), n_classes=2)
        x = Rng(1).normal((16, 5))
        # terminal-BN + sum-of-squares is exactly quadratic in gamma, so a
        # large step is exact where a small one drowns in roundoff
        extracted = oracle.tape_hdiag(model, x, "bn1.gamma")
        rep = oracle.diagonality_report(model, x, "bn1.gamma", extracted, h=0.25)
        assert rep.parameter == "bn1.gamma" and rep.c == 6
        assert rep.max_abs_offdiag <= 1e-8 * (1.0 + rep.max_abs_diag)
        assert rep.extracted_vs_rowsum_relerr <= 1e-9

    def test_interior_bn_has_offdiagonal_mass(self):
        # on a deep net the block is NOT diagonal; the extraction still
        # equals the row sums, which is the identity the optimizer consumes
        model = nets.mlp_bn2(Rng(2), in_shape=(4,), n_classes=3)
        x = Rng(3).normal((10, 4))
        labels = Rng(4).integers(0, 3, (10,))
        extracted = oracle.tape_hdiag(model, x, "bn1.gamma", "ce", labels)
        rep = oracle.diagonality_report(model, x, "bn1.gamma", extracted, loss="ce",
                                        labels=labels)
        assert rep.extracted_vs_rowsum_relerr <= 1e-5
        assert rep.offdiag_mass_ratio > 0.01


class TestKinkFreezing:
    """At verify's cnn-bn seed-0 point the FD step of bn1.beta carries
    pre-ReLU values across 0. Holding the masks at the base point removes
    that false miss and still catches a tape that is slightly wrong."""

    @staticmethod
    def rowsum_err(model, x, labels, lossfn):
        block = oracle.fd_hessian_block_1d(lossfn, model.values(), "bn1.beta")
        extracted = oracle.tape_hdiag(model, x, "bn1.beta", "ce", labels)
        return oracle.max_rel_err(extracted, block.sum(axis=1))

    def test_frozen_masks_fix_the_false_miss_without_blinding_the_oracle(self, monkeypatch):
        model, x, loss, labels = cli._verify_input("cnn-bn", 0)
        assert loss == "ce"

        def unfrozen(values):
            return nn.softmax_cross_entropy_np(model.forward_np(x, values, training=True), labels)

        frozen = oracle.model_lossfn(model, x, loss, labels)
        assert self.rowsum_err(model, x, labels, unfrozen) > cli.ROWSUM_TOL
        assert self.rowsum_err(model, x, labels, frozen) <= cli.ROWSUM_TOL

        # a tape whose sqrt adjoint is 0.1% off must still fail the audit
        sqrt = ad.sqrt

        def scaled_sqrt(a):
            out = sqrt(a)
            if out.vjps:
                (vjp,) = out.vjps
                out.vjps = (lambda g: ad.cmul(vjp(g), 1.001),)
            return out

        monkeypatch.setattr(ad, "sqrt", scaled_sqrt)
        assert self.rowsum_err(model, x, labels, frozen) > cli.ROWSUM_TOL


class TestNewtonCheck:
    def test_default_config_passes(self):
        res = oracle.newton_step_check(np.array([2.0, -1.0, 0.0]),
                                       np.array([1.0, -0.5, 2.0]),
                                       optim.SgdPhConfig())
        assert res.passed and res.residual <= 1e-10

    def test_zero_gradient_is_pure_decay(self):
        cfg = optim.SgdPhConfig(eta=0.5)
        res = oracle.newton_step_check(np.array([3.0]), np.array([0.0]), cfg)
        assert res.passed
        np.testing.assert_array_equal(res.applied, res.expected)

    def test_linear_term_drives_a_zero_cell(self):
        # a = 0 makes the curvature vanish; the eps floor carries the step
        cfg = optim.SgdPhConfig()
        res = oracle.newton_step_check(np.array([0.0]), np.array([1.0]), cfg, b=2.0)
        assert res.passed
        expected = -cfg.tau * cfg.tau_so * 2.0 / cfg.eps
        np.testing.assert_allclose(res.applied, [expected], rtol=1e-10, atol=0)

    def test_requires_matching_momentum_weights(self):
        with pytest.raises(ValueError, match="alpha == beta_m"):
            oracle.newton_step_check(np.ones(1), np.ones(1),
                                     optim.SgdPhConfig(alpha=0.9, beta_m=0.8))

    def test_grid(self):
        cfg = optim.SgdPhConfig(eta=0.1)
        for a in (0.0, 0.5, 4.0):
            for g0 in (-1.0, 0.0, 2.0):
                res = oracle.newton_step_check(np.array([a]), np.array([g0]), cfg)
                assert res.passed, (a, g0, res.residual)
