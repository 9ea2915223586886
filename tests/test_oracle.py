"""The finite-difference machinery itself, the diagonality audit, and the
single-step closed-form check."""

import itertools

import numpy as np
import pytest

from sgdph import autodiff as ad
from sgdph import cli, nn, optim, oracle
from sgdph.tensor import Rng


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
            oracle.fd_gradient(lossfn, {"w": np.ones(2)}, h=0.0)
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


class TestModelOracles:
    def test_gradcheck_small_bn_mlp(self):
        model = nn.build_model("mlp-bn2", Rng(0), in_shape=(4,), n_classes=3)
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


class TestDiagonalityReport:
    def test_terminal_bn_is_diagonal(self):
        model = nn.build_model("bn-terminal", Rng(0), in_shape=(5,), n_classes=2)
        x = Rng(1).normal((16, 5))
        # terminal-BN + sum-of-squares is exactly quadratic in gamma, so a
        # large step is exact where a small one drowns in roundoff
        rep = oracle.diagonality_report(model, x, "bn1.gamma", h=0.25)
        assert rep.parameter == "bn1.gamma" and rep.c == 6
        assert rep.max_abs_offdiag <= 1e-8 * (1.0 + rep.max_abs_diag)
        assert rep.extracted_vs_rowsum_relerr <= 1e-9

    def test_interior_bn_has_offdiagonal_mass(self):
        # on a deep net the block is NOT diagonal; the extraction still
        # equals the row sums, which is the identity the optimizer consumes
        model = nn.build_model("mlp-bn2", Rng(2), in_shape=(4,), n_classes=3)
        x = Rng(3).normal((10, 4))
        labels = Rng(4).integers(0, 3, (10,))
        rep = oracle.diagonality_report(model, x, "bn1.gamma", loss="ce", labels=labels)
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
            if out.vjp is not None:
                vjp = out.vjp
                out.vjp = lambda g, want: [ad.cmul(v, 1.001) for v in vjp(g, want)]
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
