"""Optimizer update arithmetic: hand-value recursions, the degeneration
guarantee, Newton scaling, and small convergence runs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgdph import autodiff as ad
from sgdph import optim
from sgdph.nn import Parameter
from sgdph.tensor import Rng


def make_param(name="p", value=(1.0, 2.0), kind=ad.DENSE):
    return Parameter(name, np.array(value, dtype=np.float64), kind)


def fresh(params):
    return optim.OptState(params)


class TestConfig:
    def test_defaults(self):
        cfg = optim.SgdPhConfig()
        assert cfg.tau_so == 0.001
        assert cfg.alpha == 0.9 and cfg.beta_m == 0.9
        assert cfg.eps == 0.0001

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"tau": -1.0}, {"tau_so": 0.0}, {"alpha": 0.0}, {"alpha": 1.0},
        {"beta_m": 1.5}, {"eta": -0.1}, {"eps": -1e-9}, {"beta_m": 0.0},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            optim.SgdPhConfig(**kwargs)

    def test_eps_zero_admitted(self):
        assert optim.SgdPhConfig(eps=0.0).eps == 0.0


class TestMomentum:
    def test_new_term_recursion_hand_values(self):
        cfg = optim.SgdPhConfig(beta_m=0.9)
        ps = optim.ParamState(m_g=np.zeros(1))
        m1, _, _ = optim.direction(ps, np.array([1.0]), None, cfg)
        ps.m_g = m1
        m2, _, _ = optim.direction(ps, np.array([2.0]), None, cfg)
        np.testing.assert_allclose(m1, [0.9], rtol=0, atol=1e-16)
        np.testing.assert_allclose(m2, [0.1 * 0.9 + 0.9 * 2.0], rtol=0, atol=1e-16)

    def test_constant_signal_is_fixed_point(self):
        g = np.array([0.3, -0.8])
        ps = optim.ParamState(m_g=g.copy())
        out, _, _ = optim.direction(ps, g, None, optim.SgdPhConfig(beta_m=0.9))
        np.testing.assert_allclose(out, g, rtol=1e-15, atol=1e-16)

    def test_hessian_momentum_same_recursion(self):
        ps = optim.ParamState(m_g=np.zeros(1), m_h=np.zeros(1))
        _, m_h, _ = optim.direction(ps, np.zeros(1), np.array([4.0]), optim.SgdPhConfig(eps=0.0))
        np.testing.assert_allclose(m_h, [3.6], rtol=0, atol=1e-16)

    def test_rectify_hand_values(self):
        # from a zero slot, m_h = alpha * (|h| + eps) exactly
        ps = optim.ParamState(m_g=np.zeros(3), m_h=np.zeros(3))
        _, m_h, _ = optim.direction(ps, np.zeros(3), np.array([-2.0, 0.0, 3.0]),
                                    optim.SgdPhConfig(alpha=0.9, eps=0.5))
        np.testing.assert_array_equal(m_h, 0.9 * np.array([2.5, 0.5, 3.5]))


class TestDirections:
    def test_first_step_newton_ratio(self):
        # alpha == beta_m makes the momentum weights cancel on step one:
        # d = tau_so * g / (|h| + eps)
        cfg = optim.SgdPhConfig(eps=0.0)
        p = make_param(kind=ad.CHANNELWISE_1D)
        ps = fresh([p])[p.name]
        _, _, d = optim.direction(ps, np.array([1.0, 1.0]), np.array([1.0, 4.0]), cfg)
        np.testing.assert_allclose(d, cfg.tau_so * np.array([1.0, 0.25]),
                                   rtol=1e-15, atol=0)

    def test_negative_curvature_rectified(self):
        cfg = optim.SgdPhConfig(eps=0.0)
        p = make_param(kind=ad.CHANNELWISE_1D)
        ps = fresh([p])[p.name]
        _, _, d = optim.direction(ps, np.array([1.0, 1.0]), np.array([-2.0, 2.0]), cfg)
        np.testing.assert_allclose(d, cfg.tau_so * np.array([0.5, 0.5]), rtol=1e-15, atol=0)

    def test_doubled_curvature_halves_direction(self):
        cfg = optim.SgdPhConfig(eps=0.0)
        g = Rng(0).normal((6,))
        h = Rng(1).normal((6,)) + 3.0
        p = make_param(value=np.zeros(6), kind=ad.CHANNELWISE_1D)
        _, _, d1 = optim.direction(fresh([p])[p.name], g, h, cfg)
        _, _, d2 = optim.direction(fresh([p])[p.name], g, 2.0 * h, cfg)
        np.testing.assert_allclose(d2, 0.5 * d1, rtol=1e-12, atol=0)

    def test_zero_curvature_with_zero_eps_raises(self):
        cfg = optim.SgdPhConfig(eps=0.0)
        p = make_param(value=(1.0,), kind=ad.CHANNELWISE_1D)
        with pytest.raises(optim.InvariantViolation):
            optim.direction(fresh([p])[p.name], np.array([1.0]), np.array([0.0]), cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_curvature_raises(self, bad):
        # NaN compares False with everything, so a `min <= 0` guard passed it
        cfg = optim.SgdPhConfig()
        p = make_param(kind=ad.CHANNELWISE_1D)
        with pytest.raises(optim.InvariantViolation, match="1 of 2 channels"):
            optim.direction(fresh([p])[p.name], np.ones(2), np.array([1.0, bad]), cfg)

    def test_failed_check_leaves_slot_unwritten(self):
        cfg = optim.SgdPhConfig()
        p = make_param(kind=ad.CHANNELWISE_1D)
        ps = fresh([p])[p.name]
        with pytest.raises(optim.InvariantViolation):
            optim.direction(ps, np.ones(2), np.array([np.nan, 1.0]), cfg)
        np.testing.assert_array_equal(ps.m_h, np.zeros(2))
        np.testing.assert_array_equal(ps.m_g, np.zeros(2))

    def test_eps_floor_rescues_zero_curvature(self):
        cfg = optim.SgdPhConfig(eps=0.0001)
        p = make_param(value=(1.0,), kind=ad.CHANNELWISE_1D)
        _, _, d = optim.direction(fresh([p])[p.name], np.array([2.0]), np.array([0.0]), cfg)
        np.testing.assert_allclose(d, [cfg.tau_so * 2.0 / 0.0001], rtol=1e-14, atol=0)

    def test_dense_direction_is_momentum(self):
        cfg = optim.SgdPhConfig()
        p = make_param()
        g = np.array([1.0, -2.0])
        _, _, d = optim.direction(fresh([p])[p.name], g, None, cfg)
        np.testing.assert_allclose(d, 0.9 * g, rtol=0, atol=1e-16)


class TestStep:
    def test_weight_decay_applied_after_direction(self):
        cfg = optim.SgdPhConfig(tau=0.1, eta=0.5)
        p = make_param(value=(2.0,))
        state = fresh([p])
        optim.sgdm_step([p], {"p": np.array([0.0])}, cfg, state)
        # d = 0, so the update is pure decoupled decay: w -= tau*eta*w
        np.testing.assert_allclose(p.value, [2.0 - 0.1 * 0.5 * 2.0], rtol=0, atol=1e-16)

    def test_missing_gradient_rejected(self):
        cfg = optim.SgdPhConfig()
        p = make_param()
        with pytest.raises(optim.MissingUpdateError):
            optim.step([p], {}, {}, cfg, fresh([p]))

    def test_missing_curvature_rejected(self):
        cfg = optim.SgdPhConfig()
        p = make_param(kind=ad.CHANNELWISE_1D)
        with pytest.raises(optim.MissingUpdateError):
            optim.step([p], {"p": np.zeros(2)}, {}, cfg, fresh([p]))

    def test_nan_curvature_names_parameter(self):
        cfg = optim.SgdPhConfig()
        params = [make_param("w"), make_param("bn.gamma", kind=ad.CHANNELWISE_1D)]
        grads = {"w": np.ones(2), "bn.gamma": np.ones(2)}
        state = fresh(params)
        # one good step first, so the slots hold nonzero momenta
        optim.step(params, grads, {"bn.gamma": np.ones(2)}, cfg, state)
        values = [p.value.copy() for p in params]
        slots = {name: (ps.m_g.copy(), None if ps.m_h is None else ps.m_h.copy())
                 for name, ps in state.slots.items()}
        with pytest.raises(optim.InvariantViolation, match="parameter 'bn.gamma'"):
            optim.step(params, grads, {"bn.gamma": np.array([np.nan, 1.0])}, cfg, state)
        # the dense w comes first, yet nothing of the failed step is applied
        for p, before in zip(params, values):
            np.testing.assert_array_equal(p.value, before)
        for name, (m_g, m_h) in slots.items():
            np.testing.assert_array_equal(state[name].m_g, m_g)
            if m_h is None:
                assert state[name].m_h is None
            else:
                np.testing.assert_array_equal(state[name].m_h, m_h)
        assert state.steps == 1

    def test_nan_dense_gradient_leaves_step_unapplied(self):
        cfg = optim.SgdPhConfig()
        params = [make_param("bn.gamma", kind=ad.CHANNELWISE_1D), make_param("w")]
        state = fresh(params)
        with pytest.raises(optim.InvariantViolation,
                           match="parameter 'w': gradient not finite in 1 of 2 entries"):
            optim.step(params, {"bn.gamma": np.ones(2), "w": np.array([1.0, np.nan])},
                       {"bn.gamma": np.ones(2)}, cfg, state)
        for p in params:
            np.testing.assert_array_equal(p.value, [1.0, 2.0])
            np.testing.assert_array_equal(state[p.name].m_g, np.zeros(2))
        np.testing.assert_array_equal(state["bn.gamma"].m_h, np.zeros(2))
        assert state.steps == 0

    def test_overflowing_value_names_parameter(self):
        # finite gradient, but w - tau * m_g overflows to inf
        cfg = optim.SgdPhConfig(tau=10.0)
        p = make_param("w", (1e308,))
        state = fresh([p])
        with np.errstate(over="ignore"), pytest.raises(
                optim.InvariantViolation, match="parameter 'w': new value not finite"):
            optim.sgdm_step([p], {"w": np.array([-1e308])}, cfg, state)
        np.testing.assert_array_equal(p.value, [1e308])
        np.testing.assert_array_equal(state["w"].m_g, [0.0])

    def test_counters(self):
        cfg = optim.SgdPhConfig()
        a = make_param("a", (1.0,), ad.CHANNELWISE_1D)
        b = make_param("b", (1.0, 1.0))
        state = fresh([a, b])
        for _ in range(3):
            optim.step([a, b], {"a": np.ones(1), "b": np.ones(2)},
                       {"a": np.ones(1)}, cfg, state)
        assert state.steps == 3
        # the step count is the only counter: a slot holds its momenta alone
        assert [f.name for f in dataclasses.fields(optim.ParamState)] == ["m_g", "m_h"]

    def test_state_slots(self):
        a = make_param("a", (1.0,), ad.CHANNELWISE_1D)
        b = make_param("b", (1.0, 1.0))
        state = fresh([a, b])
        assert state["a"].m_h is not None and state["a"].m_h.shape == (1,)
        assert state["b"].m_h is None
        np.testing.assert_array_equal(state["b"].m_g, np.zeros(2))

    def test_step_rebinds_slots_and_never_writes_into_them(self):
        # a snapshot that holds the slot arrays (a resume checkpoint) must not
        # see a later step; direction must not touch the slot it reads either
        cfg = optim.SgdPhConfig()
        a = make_param("a", kind=ad.CHANNELWISE_1D)
        b = make_param("b")
        state = fresh([a, b])
        optim.step([a, b], {"a": np.ones(2), "b": np.ones(2)}, {"a": np.ones(2)}, cfg, state)
        held = {name: (ps.m_g, ps.m_h) for name, ps in state.slots.items()}
        copies = {name: (m_g.copy(), None if m_h is None else m_h.copy())
                  for name, (m_g, m_h) in held.items()}

        ps = state["a"]
        m_g, m_h, d = optim.direction(ps, np.array([0.5, -1.0]), np.array([3.0, -4.0]), cfg)
        assert ps.m_g is held["a"][0] and ps.m_h is held["a"][1]
        np.testing.assert_array_equal(ps.m_g, copies["a"][0])
        np.testing.assert_array_equal(ps.m_h, copies["a"][1])
        assert m_g is not ps.m_g and m_h is not ps.m_h
        assert optim.direction(state["b"], np.ones(2), None, cfg)[1] is None

        optim.step([a, b], {"a": np.array([0.5, -1.0]), "b": np.array([2.0, 3.0])},
                   {"a": np.array([3.0, -4.0])}, cfg, state)
        assert state.steps == 2
        np.testing.assert_array_equal(state["a"].m_g, m_g)
        np.testing.assert_array_equal(state["a"].m_h, m_h)
        for name, (m_g, m_h) in held.items():
            assert state[name].m_g is not m_g
            np.testing.assert_array_equal(m_g, copies[name][0])
            if m_h is not None:
                assert state[name].m_h is not m_h
                np.testing.assert_array_equal(m_h, copies[name][1])


class TestDegeneration:
    def test_dense_only_trajectories_identical(self):
        cfg = optim.SgdPhConfig(tau=0.05, eta=0.01)
        rng = Rng(42)
        pa = make_param("w", rng.normal((8,)))
        pb = make_param("w", pa.value.copy())
        sa, sb = fresh([pa]), fresh([pb])
        for t in range(100):
            g = Rng(1000 + t).normal((8,))
            optim.step([pa], {"w": g}, {}, cfg, sa)
            optim.sgdm_step([pb], {"w": g}, cfg, sb)
            np.testing.assert_array_equal(pa.value, pb.value)
            np.testing.assert_array_equal(sa["w"].m_g, sb["w"].m_g)

    def test_mixed_model_splits_branches(self):
        cfg = optim.SgdPhConfig(tau=0.1, tau_so=1.0, eps=1.0)
        gamma = make_param("g", (1.0,), ad.CHANNELWISE_1D)
        w = make_param("w", (1.0,))
        state = fresh([gamma, w])
        grads = {"g": np.array([1.0]), "w": np.array([1.0])}
        optim.step([gamma, w], grads, {"g": np.array([0.0])}, cfg, state)
        # dense: w -= tau * 0.9; 1-D: g -= tau * tau_so * 0.9g/(0.9*1)
        np.testing.assert_allclose(w.value, [1.0 - 0.09], rtol=0, atol=1e-16)
        np.testing.assert_allclose(gamma.value, [1.0 - 0.1], rtol=1e-14, atol=0)


class TestSchedule:
    def test_step_decay(self):
        assert optim.decayed_tau(0.1, 0, 60, 0.1) == pytest.approx(0.1)
        assert optim.decayed_tau(0.1, 59, 60, 0.1) == pytest.approx(0.1)
        assert optim.decayed_tau(0.1, 60, 60, 0.1) == pytest.approx(0.01)
        assert optim.decayed_tau(0.1, 120, 60, 0.1) == pytest.approx(0.001)


class TestConvergence:
    def test_sgdm_reaches_least_squares(self):
        rng = Rng(13)
        x = rng.normal((40, 3))
        w_true = np.array([1.5, -2.0, 0.5])
        y = x @ w_true
        p = make_param("w", np.zeros(3))
        cfg = optim.SgdPhConfig(tau=0.05)
        state = fresh([p])
        for _ in range(600):
            g = x.T @ (x @ p.value - y) / x.shape[0]
            optim.sgdm_step([p], {"w": g}, cfg, state)
        np.testing.assert_allclose(p.value, w_true, rtol=0, atol=1e-8)

    def test_second_order_branch_reaches_quadratic_minimum(self):
        a = np.array([4.0, 0.5, 9.0])
        t = np.array([1.0, -2.0, 0.3])
        p = make_param("g", np.zeros(3), ad.CHANNELWISE_1D)
        cfg = optim.SgdPhConfig(tau=1.0, tau_so=1.0, eps=1e-8)
        state = fresh([p])
        for _ in range(400):
            g = a * (p.value - t)
            optim.step([p], {"g": g}, {"g": a}, cfg, state)
        np.testing.assert_allclose(p.value, t, rtol=0, atol=1e-6)


class TestProperties:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_momentum_stays_in_convex_hull(self, n, seed):
        rng = Rng(seed)
        old = rng.uniform(-5.0, 5.0, (n,))
        new = rng.uniform(-5.0, 5.0, (n,))
        ps = optim.ParamState(m_g=old.copy())
        out, _, _ = optim.direction(ps, new, None, optim.SgdPhConfig(beta_m=0.9))
        lo = np.minimum(old, new) - 1e-12
        hi = np.maximum(old, new) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rectified_momentum_positive(self, n, seed):
        # any curvature sequence keeps m_h >= eps after the first update
        rng = Rng(seed)
        cfg = optim.SgdPhConfig(eps=0.001)
        p = make_param("g", np.zeros(n), ad.CHANNELWISE_1D)
        ps = fresh([p])[p.name]
        for t in range(5):
            h = rng.uniform(-10.0, 10.0, (n,))
            ps.m_g, ps.m_h, _ = optim.direction(ps, np.zeros(n), h, cfg)
        assert np.min(ps.m_h) > 0.0
