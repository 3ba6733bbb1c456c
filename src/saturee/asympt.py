"""Large-system expressions: asymptotic SINRs, rate bounds, RZF equivalents.

Everything here is a function of the configuration only, no channel draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .sysmodel import SystemConfig, derive_power_model, total_power

_FP_RESIDUAL = 1e-10


def sinr_mrt_asymptotic(p, cfg: SystemConfig, n0: float):
    """Deterministic MRT SINR under equal power, M P / ((N - 1) P + N n0)."""
    return cfg.M * p / ((cfg.N - 1) * p + cfg.N * n0)


def rate_lower_bound(p, cfg: SystemConfig):
    """Closed-form lower envelope N M P / ((N + M - 1) P + N n0)."""
    pm = derive_power_model(cfg)
    return cfg.N * cfg.M * p / ((cfg.N + cfg.M - 1) * p + cfg.N * pm.n0)


def ee_lower_bound(p, cfg: SystemConfig):
    pm = derive_power_model(cfg)
    return rate_lower_bound(p, cfg) / total_power(p, pm, cfg.xi)


def rate_upper_bound(p, cfg: SystemConfig):
    """Interference-free envelope N log(1 + M P / (N n0))."""
    pm = derive_power_model(cfg)
    return cfg.N * np.log1p(cfg.M * p / (cfg.N * pm.n0))


def ee_upper_bound(p, cfg: SystemConfig):
    pm = derive_power_model(cfg)
    return rate_upper_bound(p, cfg) / total_power(p, pm, cfg.xi)


@dataclass(frozen=True)
class DetEquivParams:
    """Deterministic-equivalent constants for RZF at a fixed loading.

    m0 is the limiting normalized trace of the regularized resolvent,
    gamma0 the interference coefficient, psi0 the normalization
    coefficient, alpha the loading they were computed for, and ratio the
    user-to-antenna ratio N / M.
    """

    m0: float
    gamma0: float
    psi0: float
    alpha: float
    ratio: float


def _fixed_point_m(alpha: float, ratio: float) -> float:
    """Solve m = 1 / (alpha + ratio / (1 + m)) by damped iteration.

    The quadratic it implies seeds the iteration, which then certifies
    the residual below 1e-10.
    """
    b = alpha + ratio - 1.0
    m = (-b + math.sqrt(b * b + 4.0 * alpha)) / (2.0 * alpha)
    damp = 0.7
    for _ in range(500):
        g = 1.0 / (alpha + ratio / (1.0 + m))
        if abs(m - g) <= _FP_RESIDUAL * max(1.0, m):
            return m
        m = (1.0 - damp) * m + damp * g
    raise NumericalError(
        f"resolvent fixed point stalled at alpha={alpha}, ratio={ratio}")


def det_equiv_rzf(cfg: SystemConfig, alpha: float) -> DetEquivParams:
    """Analytic deterministic equivalents for uncorrelated channels.

    With c = N / M and m0 the fixed point of m = 1 / (alpha + c / (1 + m)),
    the derivative quantity m2 = m0^2 / (1 - c m0^2 / (1 + m0)^2) yields

        gamma0 = m0 - alpha m2,      psi0 = c m2 / (1 + m0)^2.
    """
    if not alpha > 0.0:
        raise ValueError(f"loading must be positive, got {alpha}")
    ratio = cfg.N / cfg.M
    m0 = _fixed_point_m(alpha, ratio)
    shrink = 1.0 - ratio * m0 * m0 / (1.0 + m0) ** 2
    m2 = m0 * m0 / shrink
    gamma0 = m0 - alpha * m2
    psi0 = ratio * m2 / (1.0 + m0) ** 2
    params = DetEquivParams(m0=m0, gamma0=gamma0, psi0=psi0, alpha=alpha,
                            ratio=ratio)
    for name in ("m0", "gamma0", "psi0"):
        val = getattr(params, name)
        if not (math.isfinite(val) and val > 0.0):
            raise NumericalError(f"deterministic equivalent {name} = {val}")
    return params


def sinr_rzf_asymptotic(p, de: DetEquivParams, n0: float):
    """Deterministic RZF SINR, m0^2 P / (gamma0 P + psi0 (1 + m0)^2 n0)."""
    a = de.psi0 * (1.0 + de.m0) ** 2 * n0
    return de.m0 ** 2 * p / (de.gamma0 * p + a)


def ee_rzf_asymptotic(p, cfg: SystemConfig, de: DetEquivParams):
    """Efficiency along the deterministic RZF rate curve."""
    pm = derive_power_model(cfg)
    rate = cfg.N * np.log1p(sinr_rzf_asymptotic(p, de, pm.n0))
    return rate / total_power(p, pm, cfg.xi)
