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
from .scalar_opt import bisect_root_log
from .specfun import lambert_w0
from .sysmodel import SystemConfig, derive_power_model


def toy_ee(p, p_static: float):
    """Single-link efficiency log(1 + P) / (P + P_static)."""
    return np.log1p(p) / (p + p_static)


def _saturation_root(t: float) -> float:
    """The root z > 0 of phi(z) = (1 + z) log1p(z) - z = t; a t outside
    (0, inf), underflowed or overflowed, raises ValueError.

    From t = 1 on, the closed form exp(1 + W0((t - 1) / e)) - 1.  Below,
    t - 1 rounds t away, so z starts from the branch series of W0 in
    p = sqrt(2 t) (Corless et al., Adv. Comput. Math. 5, 1996),
    z = p + p^2 / 6 - p^3 / 72 + ..., and takes three Newton steps on
    phi, whose slope is log1p(z).  Below z = 0.1, where the closed form
    of phi cancels, phi is its series, the sum over n >= 2 of
    (-z)^n / (n (n - 1)), to n = 17.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"saturation root needs t > 0 and finite, got t = {t}")
    if t >= 1.0:
        return math.exp(1.0 + lambert_w0((t - 1.0) / math.e)) - 1.0
    p = math.sqrt(2.0 * t)
    z = p * (1.0 + p * (1.0 / 6.0 - p / 72.0))
    for _ in range(3):
        phi = ((1.0 + z) * math.log1p(z) - z if z >= 0.1 else
               sum((-z) ** n / (n * (n - 1)) for n in range(17, 1, -1)))
        z -= (phi - t) / math.log1p(z)
    return z


def p_ee_toy(p_static: float) -> float:
    """Power maximizing :func:`toy_ee`: its stationarity condition is
    (1 + p) log1p(p) - p = P_static."""
    return _saturation_root(p_static)


def p_lb(cfg: SystemConfig) -> float:
    """Saturation power of the lower rate envelope.

    Stationary point of the envelope's efficiency:
    sqrt(N n0 Pconst / (xi (N + M - 1))).
    """
    pm = derive_power_model(cfg)
    return math.sqrt(cfg.N * pm.n0 * pm.Pconst / (cfg.xi * (cfg.N + cfg.M - 1)))


def p_ub(cfg: SystemConfig) -> float:
    """Saturation power of the interference-free envelope.

    (N n0 / M) z, where z is the saturation root of
    t = M Pconst / (N n0 xi).
    """
    pm = derive_power_model(cfg)
    t = cfg.M * pm.Pconst / (cfg.N * pm.n0 * cfg.xi)
    return cfg.N * pm.n0 / cfg.M * _saturation_root(t)


def p_rzf(cfg: SystemConfig, de: DetEquivParams) -> float:
    """Efficiency peak of the deterministic RZF curve, by one bisection.

    The curve is SINR(p) = g p / (p + a) with g = m0^2 / psi0 and
    a = (1 + m0)^2 n0.  With c = Pconst / xi, x = SINR(p) and
    D = (p + a) ((1 + g) p + a) > 0, the efficiency's slope has the sign
    of -f, where f(p) = log1p(x) - g a (p + c) / D.  Since
    x / (1 + x) < log1p(x) < x for x > 0, f lies strictly between
    g (p^2 - a c) / D and g ((1 + g) p^2 - a c) / D.  So f < 0 at and
    below sqrt(a c / (1 + g)) and f > 0 at and above sqrt(a c), and f
    is bisected on that bracket.

    Below x = 0.1 (far below noise) the two terms of f cancel to about x
    of their size, so f is summed there as g ((1 + g) p^2 - a c) / D
    + (log1p(x) - x), the last term by its series to n = 17.
    """
    pm = derive_power_model(cfg)
    c = pm.Pconst / cfg.xi
    g = de.m0 * de.m0 / de.psi0
    a = (1.0 + de.m0) * (1.0 + de.m0) * pm.n0

    def f(p: float) -> float:
        den = (p + a) * ((1.0 + g) * p + a)
        x = g * p / (p + a)
        if x >= 0.1:
            return math.log1p(x) - g * a * (p + c) / den
        return (g * ((1.0 + g) * p * p - a * c) / den
                - sum((-x) ** n / n for n in range(17, 1, -1)))

    return bisect_root_log(f, math.sqrt(a * c / (1.0 + g)), math.sqrt(a * c),
                           rel_tol=1e-8, f_tol=1e-8)


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
    against the bracket efficiencies: with gap = (gamma_ub - est)/(est -
    gamma_lb), omega = gap/(1 + gap) = (gamma_ub - est)/(gamma_ub -
    gamma_lb), and p = omega p_lb + (1 - omega) p_ub.  Estimates at or
    beyond a bracket end give exactly that end, gamma_ub's first.

    Below t = 1e-30 the two peaks agree to rounding, either way round, so
    a gamma_ub below gamma_lb by at most 1e-15 relative, and a point band
    p_lb = p_ub, are bands: the estimate lies at or beyond an end there,
    and omega divides by no gap.
    """
    if not (gamma_lb > 0.0 and gamma_ub > 0.0 and gamma_rzf > 0.0):
        raise ValueError("peak efficiencies must be positive")
    if not gamma_ub >= gamma_lb * (1.0 - 1e-15):
        raise ValueError(
            f"invalid band: gamma_ub={gamma_ub} below gamma_lb={gamma_lb}")
    if not (0.0 < p_lb <= p_ub):
        raise ValueError(f"invalid band: [{p_lb}, {p_ub}]")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    est = beta * gamma_rzf
    omega = (0.0 if est >= gamma_ub else 1.0 if est <= gamma_lb else
             min((gamma_ub - est) / (gamma_ub - gamma_lb), 1.0))
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
    power on the served cell of :func:`optim._served_cell`, the one
    :func:`compute_band` sizes the band for, runs there, and only its
    beamformers are lifted back.  A maximum-ratio start can abandon a
    user whose channel is strongly correlated with another's; the
    regularized inverse starts with every served user separated, which
    lands reliably in the basin where all of them are served.
    """
    p = np.minimum(band.p_prop, optim._budgets(h, p_budget))
    h, alpha, amp, lift = optim._served_cell(h, cfg, p)
    run = optim.wmmse(h, cfg, p, init=beamform.rzf(h, alpha) * amp)
    return replace(run, b=lift(run.b))
