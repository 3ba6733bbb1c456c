"""Reference computations the tests check the package against.

None of these is reached by the command line, so they live beside the
tests rather than in the package.
"""
import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np

from saturee import beamform, channel, optim, satpower
from saturee.asympt import sinr_mrt_asymptotic
from saturee.scalar_opt import golden_section_max
from saturee.sysmodel import (SystemConfig, derive_power_model, total_power,
                              watt_to_dbm)


def energy_efficiency(sum_rate: float, consumed: float):
    """Rate over consumed power; nat/J for per-Hz inputs."""
    return sum_rate / consumed


def normalized_config(M: int, N: int, Pconst: float, xi: float = 1.0) -> SystemConfig:
    """Dimensionless setup: unit bandwidth, unit noise density.

    Convenient for trade-off studies quoted in normalized units where the
    static consumption is a plain number.  The per-antenna circuit density
    is pinned at 1, so Pconst must exceed M; the remainder goes into the
    static term.
    """
    if Pconst <= M:
        raise ValueError(f"normalized Pconst must exceed M={M}, got {Pconst}")
    return SystemConfig(
        M=M,
        N=N,
        W=1.0,
        T=1.0,
        noise_psd_dbm_per_hz=30.0,   # 1 W/Hz
        noise_figure_db=0.0,
        xi=xi,
        Pc_prime_dbm=30.0,           # 1 W over a 1 Hz band
        Po_prime_dbm=watt_to_dbm(float(Pconst - M)),
    )


def instantaneous_ee(h: np.ndarray, b: np.ndarray, cfg: SystemConfig) -> float:
    """Sum rate over total consumed power for one realization."""
    pm = derive_power_model(cfg)
    rate = beamform.sum_rate(beamform.sinr(h, b, pm.n0))
    consumed = total_power(float(np.sum(np.abs(b) ** 2)), pm, cfg.xi)
    return rate / consumed


def rescale_objective(h: np.ndarray, b: np.ndarray, n0: float, ridge: float):
    """The power-scale objective tau -> sum log(1 + SINR) - ridge tau psum
    of the beamformers sqrt(tau) b, on numpy arrays."""
    _, sig, inter = beamform.link_gains(h, b)
    psum = float(np.sum(np.abs(b) ** 2))

    def gain(tau: float) -> float:
        rate = float(np.sum(np.log1p(tau * sig / (tau * inter + n0))))
        return rate - ridge * tau * psum
    return gain


def rescale_tau(h: np.ndarray, b: np.ndarray, n0: float, budget: float,
                ridge: float) -> float:
    """The power scale tau the Dinkelbach power-scale step picks: the
    golden-section argmax of :func:`rescale_objective` over
    [1e-20 tau_hi, tau_hi], tau_hi = budget / psum, unless tau = 1 scores
    at least as high."""
    gain = rescale_objective(h, b, n0, ridge)
    tau_hi = budget / float(np.sum(np.abs(b) ** 2))
    tau = golden_section_max(gain, 1e-20 * tau_hi, tau_hi, rel_tol=1e-10)
    return 1.0 if gain(tau) <= gain(1.0) else tau


def multiplier(r: np.ndarray, base: np.ndarray, budget: float) -> float:
    """The multiplier search of ``optim._multiplier`` for one entry's
    kept modes r, base (K,), as a float loop over the modes: the
    per-entry form the stacked search must match bit for bit."""
    modes = list(zip(r.tolist(), base.tolist()))

    def power(mu: float) -> tuple[float, float]:
        p = half_slope = 0.0                   # P and -P'/2
        for ri, bi in modes:
            x = 1.0 / (bi + mu)
            t = ri * x * x
            p += t
            half_slope += t * x
        return p, half_slope

    p, slope = power(0.0)
    if p <= budget * (1.0 + optim._ON_BUDGET_RTOL):
        return 0.0
    target = budget * (1.0 - 0.5 * optim._POWER_RTOL)
    lo, hi = 0.0, math.sqrt(sum(ri for ri, _ in modes) / budget)
    mu = lo
    for _ in range(200):
        nxt = mu + p / slope * (math.sqrt(p / target) - 1.0)
        mu = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        p, slope = power(mu)
        if p > budget:
            lo = mu
        elif budget - p <= optim._POWER_RTOL * budget:
            return mu
        else:
            hi = mu
        if hi - lo <= 1e-15 * hi:
            break
    return hi


def rescale(sig: np.ndarray, inter: np.ndarray, psum: float, n0: float,
            budget: float, ridge: float) -> float:
    """The power scale tau of ``optim._rescale`` for one entry's signal
    and interference powers sig, inter (N,), as a float loop over the
    users: the per-entry form the stacked step must match bit for bit."""
    if psum <= 0.0:
        return 1.0
    tau_hi = budget / psum
    if not tau_hi >= 1.0 - optim._ON_BUDGET_RTOL:
        return 1.0
    links = list(zip(sig.tolist(), inter.tolist()))

    def gain(tau: float) -> float:
        rate = 0.0
        for s, q in links:
            rate += math.log1p(tau * s / (tau * q + n0))
        return rate - ridge * tau * psum

    slope = -ridge * psum
    for s, q in links:
        slope += s * n0 / ((tau_hi * q + n0) * (tau_hi * (s + q) + n0))
    if slope >= 0.0:
        tau = tau_hi
    else:
        tau = golden_section_max(gain, 1e-20 * tau_hi, tau_hi, rel_tol=1e-10)
    if gain(tau) <= gain(1.0):
        return 1.0
    return tau


def _one_entry(res):
    """A stacked solver result with its per-entry fields cut down to the
    single entry of a one-entry stack."""
    per_entry = ("b", "sum_rate", "p_sum", "lambda_star")
    return dataclasses.replace(res, **{name: getattr(res, name)[0]
                                       for name in per_entry
                                       if hasattr(res, name)})


def wmmse_one(h: np.ndarray, cfg: SystemConfig, budget: float,
              init: np.ndarray | None = None) -> optim.WmmseResult:
    """``optim.wmmse`` on one problem h (N, M), as a one-entry stack."""
    return _one_entry(optim.wmmse(h[None], cfg, np.array([budget]),
                                  init=None if init is None else init[None]))


def dinkelbach_one(h: np.ndarray, cfg: SystemConfig,
                   budget: float) -> optim.DinkelbachResult:
    """``optim.dinkelbach_ee`` on one problem h (N, M), as a one-entry
    stack."""
    return _one_entry(optim.dinkelbach_ee(h[None], cfg, np.array([budget])))


def proposed_one(h: np.ndarray, cfg: SystemConfig, budget: float,
                 band) -> optim.WmmseResult:
    """``satpower.proposed_scheme`` on one problem h (N, M), as a
    one-entry stack."""
    return _one_entry(satpower.proposed_scheme(h[None], cfg,
                                               np.array([budget]), band))


def dinkelbach_outer_loop(h: np.ndarray, cfg: SystemConfig, budget: float):
    """Dinkelbach's method of ``optim.dinkelbach_ee`` on one problem
    h (N, M) with N >= M, as a float loop over its outer steps, each a
    plain one-entry ``optim._descend`` at the ridge lam xi from the last
    step's beamformers: the per-entry form the stacked bookkeeping must
    match bit for bit.  (A wide cell would redo its row-space projection
    on every step.)  Returns the last beamformers, the efficiency and the
    lam and F(lam) of every outer step."""
    pm = derive_power_model(cfg)
    stack, p = h[None], np.array([budget])
    b = (beamform.rzf(stack, beamform.mmse_loading_alpha(cfg, p))
         * np.sqrt(p / cfg.N)[:, None, None])
    lam, lams, fs = 0.0, [], []
    while True:
        run = optim._descend(stack, pm.n0, p, np.array([lam * cfg.xi]), b)
        rate = float(run.rate[0])
        consumed = total_power(float(run.p_sum[0]), pm, cfg.xi)
        lams.append(lam)
        fs.append(rate - lam * consumed)
        lam = rate / consumed
        if abs(fs[-1]) <= optim._DELTA or len(fs) == optim._MAX_OUTER:
            return run.b[0], lam, lams, fs
        b = run.b


def beam_step(h: np.ndarray, u: np.ndarray, w: np.ndarray, budget: float,
              ridge: float) -> np.ndarray:
    """``optim._beam_step`` on one problem h (N, M), as a one-entry
    stack."""
    return optim._beam_step(h[None], u[None], w[None], [budget], [ridge])[0]


def rescale_step(sig: np.ndarray, inter: np.ndarray, psum: float,
                 n0: float, budget: float, ridge: float) -> float:
    """``optim._rescale`` on one problem's link statistics sig, inter
    (N,), as a one-entry stack."""
    return float(optim._rescale(sig[:, None], inter[:, None],
                                np.array([psum]), n0, np.array([budget]),
                                np.array([ridge]))[0])


def iterate_recomputing(h: np.ndarray, n0: float, budget: float,
                        ridge: float, b0: np.ndarray):
    """The WMMSE block descent of ``optim._descend`` with the link
    statistics taken afresh at the top of every iterate.  Returns the
    last beamformers and the objective history."""
    b = b0
    history = []
    for it in range(optim._MAX_ITER + 1):
        d, sig, inter = beamform.link_gains(h, b)
        e = inter + n0
        sinr = sig / e
        obj = (float(np.sum(np.log1p(sinr)))
               - ridge * float(np.sum(np.abs(b) ** 2)))
        history.append(obj)
        if (it > 0 and abs(obj - history[-2])
                <= optim._TOL * max(1.0, abs(obj))):
            break
        if it == optim._MAX_ITER:
            break
        b = beam_step(h, d / (e + sig), 1.0 + sinr, budget, ridge)
        if ridge > 0.0:
            _, sig, inter = beamform.link_gains(h, b)
            tau = rescale_step(sig, inter, float(np.sum(np.abs(b) ** 2)),
                               n0, budget, ridge)
            b = b * math.sqrt(tau)
    return b, history


def ee_mrt_asymptotic(p, cfg: SystemConfig):
    """Efficiency along the asymptotic MRT rate curve."""
    pm = derive_power_model(cfg)
    rate = cfg.N * np.log1p(sinr_mrt_asymptotic(p, cfg, pm.n0))
    return rate / total_power(p, pm, cfg.xi)


def det_equiv_rzf_decimal(m: int, n: int, alpha: float):
    """m0, gamma0 and psi0 of the RZF deterministic equivalents in
    50-digit decimal arithmetic, each as its defining formula reads.

    m0 is the quadratic formula's root (-b + sqrt(b^2 + 4 alpha)) /
    (2 alpha) of alpha m^2 + b m - 1 = 0, b = alpha + N / M - 1, and with
    m2 = m0^2 / (1 - c m0^2 / (1 + m0)^2), gamma0 = m0 - alpha m2 and
    psi0 = c m2 / (1 + m0)^2.  Those subtractions cancel up to about 35
    digits over loadings from 1e-30 to 1e6 and up to 256 users or
    antennas, which 50 digits absorb.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(alpha)
        c = Decimal(n) / Decimal(m)
        b = a + c - 1
        m0 = (-b + (b * b + 4 * a).sqrt()) / (2 * a)
        m2 = m0 * m0 / (1 - c * m0 * m0 / (1 + m0) ** 2)
        return float(m0), float(m0 - a * m2), float(c * m2 / (1 + m0) ** 2)


def det_equiv_rzf_empirical(cfg: SystemConfig, alpha: float, size: int = 256,
                            seed: int = 0) -> tuple[float, float, float]:
    """Estimate the RZF deterministic-equivalent constants m0, gamma0 and
    psi0 from one large channel realization.

    Keeps the user-to-antenna ratio of cfg but blows the dimensions up to
    `size` antennas; measures the resolvent trace, the mean signal gain
    and the mean interference gain of actual RZF directions, then inverts
    the limiting relations.  Serves as the independent check on
    :func:`saturee.asympt.det_equiv_rzf`, whose interference coefficient
    is psi0 by an identity this estimate does not assume.
    """
    if not alpha > 0.0:
        raise ValueError(f"loading must be positive, got {alpha}")
    mb = size
    nb = max(1, round(size * cfg.N / cfg.M))
    ratio = nb / mb
    h = channel._draw(mb, nb, seed, 0)

    resolvent = np.linalg.inv(h.T @ h.conj() / mb + alpha * np.eye(mb))
    m_hat = float(np.trace(resolvent).real) / mb

    dirs = beamform.rzf(h, alpha)
    gains = np.abs(h.conj() @ dirs.T) ** 2
    sig = float(np.mean(np.diagonal(gains)))
    interf = float(np.mean(np.sum(gains, axis=1) - np.diagonal(gains)))

    m2_hat = mb * m_hat * m_hat / sig
    gamma_hat = interf * m_hat * m_hat / sig
    psi_hat = ratio * m2_hat / (1.0 + m_hat) ** 2
    return m_hat, gamma_hat, psi_hat
