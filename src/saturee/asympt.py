"""Large-system expressions: asymptotic SINRs, rate bounds, RZF equivalents.

Everything here is a function of the configuration only, no channel draws.
"""
from __future__ import annotations

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

    m0 is the limiting normalized trace of the regularized resolvent and
    psi0 the normalization coefficient, which for uncorrelated channels
    equals the interference coefficient too; both shaped like the loading.
    """

    m0: np.ndarray
    psi0: np.ndarray


def det_equiv_rzf(cfg: SystemConfig, alpha) -> DetEquivParams:
    """Analytic deterministic equivalents for uncorrelated channels.

    With c = N / M, m0 is the positive root of the fixed point
    m = 1 / (alpha + c / (1 + m)), that is of the quadratic
    alpha m^2 + b m - 1 = 0 with b = alpha + c - 1.  For r = sqrt(b^2 +
    4 alpha) the root is (r - b) / (2 alpha) when b <= 0 and the equal
    2 / (b + r) when b > 0, so no branch subtracts nearly equal numbers.
    Each entry of the loadings divides in its own branch alone, as
    2 / (b + r) can be 2 / 0 at b <= 0.

    The derivative quantity m2 = m0^2 / (1 - c m0^2 / (1 + m0)^2) gives
    the normalization coefficient psi0 = c m2 / (1 + m0)^2, evaluated as
    c m0^2 / (1 + 2 m0 + (1 - c) m0^2) to avoid the cancelling shrink
    factor.  The interference coefficient gamma0 = m0 - alpha m2 equals
    psi0.  Put D = (1 + m0)^2 - c m0^2, so m2 = m0^2 (1 + m0)^2 / D; the
    fixed point gives alpha = 1 / m0 - c / (1 + m0), and then

        gamma0 = m0 - m2 / m0 + c m2 / (1 + m0)
               = m0 (D - (1 + m0)^2 + c m0 (1 + m0)) / D
               = c m0^2 / D = psi0.

    Evaluated as a difference, gamma0 cancels to 0 at small loadings or
    few users per antenna; the identity has nothing to cancel.
    """
    a = np.asarray(alpha, dtype=float)
    if not np.all(a > 0.0):
        raise ValueError(f"loading must be positive, got {alpha}")
    ratio = cfg.N / cfg.M
    # ratio - 1 is exact for ratio in [1/2, 2]; alpha + ratio would drop
    # the digits of a loading far below 1.
    b = a + (ratio - 1.0)
    r = np.sqrt(b * b + 4.0 * a)
    m0 = np.divide(r - b, 2.0 * a, where=b <= 0.0, out=np.empty_like(b))
    m0 = np.divide(2.0, b + r, where=b > 0.0, out=m0)
    residual = m0 - 1.0 / (a + ratio / (1.0 + m0))
    psi0 = ratio * m0 * m0 / (1.0 + 2.0 * m0 + (1.0 - ratio) * m0 * m0)
    bad = ~((np.abs(residual) <= _FP_RESIDUAL * np.maximum(1.0, m0))
            & (m0 > 0.0) & np.isfinite(psi0) & (psi0 > 0.0))
    if bad.any():
        raise NumericalError(f"deterministic equivalents uncertified at "
                             f"alpha={a[bad][0]}, ratio={ratio}: "
                             f"m0={m0[bad][0]}, psi0={psi0[bad][0]}")
    return DetEquivParams(m0=m0, psi0=psi0)


def sinr_rzf_asymptotic(p, de: DetEquivParams, n0: float):
    """Deterministic RZF SINR, (m0^2 / psi0) P / (P + (1 + m0)^2 n0)."""
    return de.m0 * de.m0 / de.psi0 * p / (p + (1.0 + de.m0) * (1.0 + de.m0) * n0)


def ee_rzf_asymptotic(p, cfg: SystemConfig, de: DetEquivParams):
    """Efficiency along the deterministic RZF rate curve."""
    pm = derive_power_model(cfg)
    rate = cfg.N * np.log1p(sinr_rzf_asymptotic(p, de, pm.n0))
    return rate / total_power(p, pm, cfg.xi)
