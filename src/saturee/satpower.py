"""Closed-form saturation powers and the interpolated operating point.

The pipeline: two closed forms bracket the efficiency-optimal transmit
power (one from the pessimistic rate envelope, one from the
interference-free envelope), a deterministic RZF curve calibrates where
between the two brackets the true optimum sits, and the result is a
single power at which one spectral-efficiency solve replaces a full
fractional program.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import asympt, beamform, optim
from .asympt import DetEquivParams
from .errors import NumericalError
from .scalar_opt import bisect_root_log
from .specfun import lambert_w0
from .sysmodel import SystemConfig, derive_power_model


def toy_rate(p):
    """Single-link rate log(1 + P) in normalized units."""
    return np.log1p(p)


def toy_ee(p, p_static: float):
    """Single-link efficiency log(1 + P) / (P + P_static)."""
    return np.log1p(p) / (p + p_static)


def p_ee_toy(p_static: float) -> float:
    """Power maximizing :func:`toy_ee`, exp(W0((P_static - 1)/e) + 1) - 1."""
    if not (p_static > 0.0 and math.isfinite(p_static)):
        raise ValueError(f"static power must be positive, got {p_static}")
    return math.exp(lambert_w0((p_static - 1.0) / math.e) + 1.0) - 1.0


def p_lb(cfg: SystemConfig) -> float:
    """Saturation power of the lower rate envelope.

    Stationary point of the envelope's efficiency:
    sqrt(N n0 Pconst / (xi (N + M - 1))).
    """
    pm = derive_power_model(cfg)
    return math.sqrt(cfg.N * pm.n0 * pm.Pconst / (cfg.xi * (cfg.N + cfg.M - 1)))


def p_ub(cfg: SystemConfig) -> float:
    """Saturation power of the interference-free envelope.

    (N n0 / M) (exp(1 + W0((M Pconst / (N n0 xi) - 1) / e)) - 1).
    """
    pm = derive_power_model(cfg)
    t = cfg.M * pm.Pconst / (cfg.N * pm.n0 * cfg.xi)
    w = lambert_w0((t - 1.0) / math.e)
    return cfg.N * pm.n0 / cfg.M * (math.exp(1.0 + w) - 1.0)


def _stationarity_rzf(p: float, g: float, a: float,
                      pconst_over_xi: float) -> float:
    """Sign function whose unique root is the RZF saturation power.

    The deterministic RZF curve is SINR(p) = g p / (p + a) with
    g = m0^2 / psi0 and a = (1 + m0)^2 n0.  The function is negative
    below its efficiency peak and positive above it; it tends to
    -g Pconst / (xi a) at 0 and to log(1 + g) at infinity.
    """
    num = g * a * (p + pconst_over_xi)
    den = (p + a) * ((1.0 + g) * p + a)
    return math.log1p(g * p / (p + a)) - num / den


def p_rzf(cfg: SystemConfig, de: DetEquivParams) -> float:
    """Root of the RZF stationarity condition, bracketed and bisected."""
    pm = derive_power_model(cfg)
    pconst_over_xi = pm.Pconst / cfg.xi
    g = de.m0 * de.m0 / de.psi0
    a = (1.0 + de.m0) * (1.0 + de.m0) * pm.n0
    f = lambda p: _stationarity_rzf(p, g, a, pconst_over_xi)

    scale = max(a / g, pconst_over_xi)
    lo = scale * 1e-12
    for _ in range(100):
        if f(lo) < 0.0:
            break
        lo *= 1e-3
    else:
        raise NumericalError("no negative bracket end for the RZF stationarity")
    hi = scale
    for _ in range(300):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise NumericalError("no positive bracket end for the RZF stationarity")
    return bisect_root_log(f, lo, hi, rel_tol=1e-8, f_tol=1e-8)


@dataclass(frozen=True)
class SaturationBand:
    """The bracket [p_lb, p_ub] plus the interpolated operating power.

    gamma_* are the peak efficiencies of the corresponding curves;
    gamma_se_est = beta * gamma_rzf is the calibrated estimate of the
    true optimum's efficiency; omega weights the lower end of the bracket
    (see :func:`interpolate`).
    """

    p_lb: float
    p_ub: float
    p_rzf: float
    p_prop: float
    gamma_lb: float
    gamma_ub: float
    gamma_rzf: float
    gamma_se_est: float
    beta: float
    omega: float


def interpolate(gamma_lb: float, gamma_ub: float, gamma_rzf: float,
                beta: float, p_lb: float, p_ub: float,
                p_rzf: float) -> SaturationBand:
    """Place the operating power inside [p_lb, p_ub].

    The estimate beta * gamma_rzf of the optimal efficiency is compared
    against the bracket efficiencies: gap = (gamma_ub - est)/(est -
    gamma_lb), omega = gap/(1 + gap), and p = omega p_lb + (1 - omega)
    p_ub.  Estimates at or beyond a bracket end clamp to that end.
    """
    if not (gamma_lb > 0.0 and gamma_ub > 0.0 and gamma_rzf > 0.0):
        raise ValueError("peak efficiencies must be positive")
    if not gamma_ub > gamma_lb:
        raise ValueError(
            f"invalid band: gamma_ub={gamma_ub} not above gamma_lb={gamma_lb}")
    if not (0.0 < p_lb < p_ub):
        raise ValueError(f"invalid band: [{p_lb}, {p_ub}]")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    est = beta * gamma_rzf
    if est >= gamma_ub:
        omega = 0.0
    elif est <= gamma_lb:
        omega = 1.0
    else:
        gap = (gamma_ub - est) / (est - gamma_lb)
        omega = gap / (1.0 + gap)
    p_prop = omega * p_lb + (1.0 - omega) * p_ub
    return SaturationBand(p_lb=p_lb, p_ub=p_ub, p_rzf=p_rzf, p_prop=p_prop,
                          gamma_lb=gamma_lb, gamma_ub=gamma_ub,
                          gamma_rzf=gamma_rzf, gamma_se_est=est, beta=beta,
                          omega=omega)


def compute_band(cfg: SystemConfig) -> SaturationBand:
    """Full band computation for a configuration, calibrated by cfg.beta.

    The band is that of the served cell of min(N, M) users: past M users
    the efficient solutions serve about M, while the RZF curve of all N
    is interference-limited and peaks far below their power.

    The RZF deterministic equivalents need a loading: the MMSE-style value
    at the geometric midpoint of the bracket, which keeps the calibration
    curve representative of the whole band.
    """
    cfg = replace(cfg, N=min(cfg.N, cfg.M))
    plb = p_lb(cfg)
    pub = p_ub(cfg)
    gamma_lb = float(asympt.ee_lower_bound(plb, cfg))
    gamma_ub = float(asympt.ee_upper_bound(pub, cfg))
    alpha = beamform.mmse_loading_alpha(cfg, math.sqrt(plb * pub))
    de = asympt.det_equiv_rzf(cfg, alpha)
    przf = p_rzf(cfg, de)
    gamma_rzf = float(asympt.ee_rzf_asymptotic(przf, cfg, de))
    return interpolate(gamma_lb, gamma_ub, gamma_rzf, cfg.beta, plb, pub,
                       p_rzf=przf)


def proposed_scheme(h: np.ndarray, cfg: SystemConfig,
                    p_budget, band: SaturationBand) -> optim.WmmseResult:
    """One spectral-efficiency solve per entry of a stack of channels
    h (E, N, M), at the clamped powers min(p_prop, budget) of the budgets
    p_budget (E,): the :func:`optim.wmmse` result, with each entry's
    beamformers, sum rate and sum power.

    The solve starts from equal-power RZF beamformers at the operating
    power.  A maximum-ratio start can abandon a user whose channel is
    strongly correlated with another's; the regularized inverse starts
    with every user separated, which lands reliably in the basin where
    all of them are served.
    """
    p = np.minimum(band.p_prop, optim._budgets(h, p_budget))
    b0 = beamform.rzf(h, beamform.mmse_loading_alpha(cfg, p))
    b0 *= np.sqrt(p / cfg.N)[..., None, None]
    return optim.wmmse(h, cfg, p, init=b0)
