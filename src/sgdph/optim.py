"""The compound optimizer: damped-Newton steps for channelwise 1-D
parameters, SGD with momentum for everything else, plus the plain SGDM
baseline it degenerates to when no 1-D parameter exists.

Per step and 1-D parameter of curvature vector h and gradient g:

    h~   = |h| + eps                      rectification
    m_h  = (1 - alpha) m_h + alpha h~     Hessian momentum
    m_g  = (1 - beta)  m_g + beta  g      gradient momentum
    d    = tau_so * m_g / m_h             damped Newton direction
    w   -= tau * (d + eta w)              update with decoupled decay

Dense parameters skip the first two lines and use d = m_g. Both momentum
recursions place the weight on the NEW term. `direction` computes these
lines for one parameter and writes nothing; a step commits every
parameter's results at once, or none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


class MissingUpdateError(KeyError):
    pass


class InvariantViolation(RuntimeError):
    pass


@dataclass
class SgdPhConfig:
    tau: float = 0.01
    tau_so: float = 0.001
    alpha: float = 0.9
    beta_m: float = 0.9
    eta: float = 0.0
    eps: float = 0.0001

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.tau_so > 0:
            raise ValueError(f"tau_so must be positive, got {self.tau_so}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not 0 < self.beta_m < 1:
            raise ValueError(f"beta_m must lie in (0,1), got {self.beta_m}")
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        # eps = 0 is admitted here so the pure Newton scaling property is
        # testable; RunConfig adds eps > 0 for training runs
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")


@dataclass
class ParamState:
    m_g: np.ndarray
    m_h: np.ndarray | None = None


class OptState:
    """Momentum slots keyed by parameter name, zero-initialized; m_h exists
    only for channelwise-1d parameters."""

    def __init__(self, params):
        self.slots: dict[str, ParamState] = {}
        for p in params:
            m_h = np.zeros_like(p.value) if p.kind == ad.CHANNELWISE_1D else None
            self.slots[p.name] = ParamState(m_g=np.zeros_like(p.value), m_h=m_h)

    def __getitem__(self, name: str) -> ParamState:
        return self.slots[name]


def _mix(old: np.ndarray, new: np.ndarray, weight_new: float) -> np.ndarray:
    return (1.0 - weight_new) * old + weight_new * new


def _check_finite(a: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(a)
    if bad.any():
        raise InvariantViolation(f"{what} not finite in {int(bad.sum())} of {bad.size} entries")


def direction(ps: ParamState, g: np.ndarray, h: np.ndarray | None,
              cfg: SgdPhConfig) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The new momenta (m_g, m_h) of one parameter and its direction d,
    computed from the slot ps without writing it. h=None marks a dense
    parameter: its m_h passes through and d = m_g. Raises on a non-finite
    gradient or a Hessian momentum that is not finite and positive."""
    _check_finite(g, "gradient")
    m_g = _mix(ps.m_g, g, cfg.beta_m)
    if h is None:
        return m_g, ps.m_h, m_g
    m_h = _mix(ps.m_h, np.abs(h) + cfg.eps, cfg.alpha)
    # written so that NaN fails it: every comparison with NaN is False
    bad = ~(np.isfinite(m_h) & (m_h > 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise InvariantViolation(
            f"hessian momentum not finite and positive in {int(bad.sum())} of {m_h.size} "
            f"channels (channel {i}: {m_h[i]:.3e}); "
            "non-finite curvature, or eps = 0 with zero curvature?"
        )
    return m_g, m_h, cfg.tau_so * m_g / m_h


def _step(params, grads: dict, hdiags: dict | None, cfg: SgdPhConfig,
          state: OptState) -> None:
    """Updates every parameter or none. The first loop stages each
    parameter's momenta and new value, and raises before anything is
    written: on a missing gradient or curvature, a non-finite gradient or
    new value, or a failing Hessian momentum. The second loop commits them
    all; the slots' old arrays are never written into. hdiags=None treats
    every parameter as dense."""
    staged = []
    for p in params:
        if p.name not in grads:
            raise MissingUpdateError(f"no gradient supplied for parameter {p.name!r}")
        h = None
        if hdiags is not None and p.kind == ad.CHANNELWISE_1D:
            if p.name not in hdiags:
                raise MissingUpdateError(f"no curvature supplied for 1-D parameter {p.name!r}")
            h = hdiags[p.name]
        ps = state[p.name]
        try:
            m_g, m_h, d = direction(ps, grads[p.name], h, cfg)
            # decoupled decay: w -= tau * (d + eta * w)
            value = p.value - cfg.tau * (d + cfg.eta * p.value)
            _check_finite(value, "new value")
        except InvariantViolation as e:
            raise InvariantViolation(f"parameter {p.name!r}: {e}") from None
        staged.append((p, ps, m_g, m_h, value))
    for p, ps, m_g, m_h, value in staged:
        ps.m_g, ps.m_h = m_g, m_h
        p.value = value


def step(params, grads: dict, hdiags: dict, cfg: SgdPhConfig, state: OptState) -> None:
    """One compound update of a parameter list. grads must cover every
    parameter; hdiags must cover every channelwise-1d parameter. A failing
    parameter leaves every parameter and slot as it was."""
    _step(params, grads, hdiags, cfg, state)


def sgdm_step(params, grads: dict, cfg: SgdPhConfig, state: OptState) -> None:
    """Baseline: the compound update with every parameter treated as dense."""
    _step(params, grads, None, cfg, state)


def decayed_tau(base_tau: float, epoch: int, decay_every: int, decay_factor: float) -> float:
    """Step-decay schedule: tau shrinks by decay_factor every decay_every
    (>= 1) epochs. Only tau is scheduled; tau_so stays constant and the
    effective second-order step still shrinks because tau multiplies the
    whole direction."""
    return base_tau * decay_factor ** (epoch // decay_every)
