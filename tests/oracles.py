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


def rescale_bracket(sig, inter, psum: float, n0: float, tau_hi: float,
                    ridge: float):
    """The bracket [lo, hi] the power-scale step searches for the
    argmax of its objective, as float loops over the users' signal and
    interference powers sig, inter (N,): hi is the smaller of tau_hi and
    where an upper bound on the slope reaches zero, and lo the larger of
    where a lower bound on it does and where the slope's tangent at hi
    does, clamped to hi.  None when the slope at tau = 0 is not
    positive, so the objective falls from there."""
    links = list(zip(sig.tolist(), inter.tolist()))
    cost = ridge * psum
    total = widest = share = 0.0
    for s, q in links:
        total += s
        widest = max(widest, s + q)
        if s > 0.0:
            share += s / (s + q)
    reach = math.sqrt(n0 * total / cost) - n0
    if not reach > 0.0:
        return None
    hi = min(tau_hi, share / cost)
    lo, slope, curve = reach / widest, -cost, 0.0
    for s, q in links:
        near, far = hi * q + n0, hi * (s + q) + n0
        term = s * n0 / (near * far)
        slope += term
        curve -= term * (q / near + (s + q) / far)
    if curve < 0.0:
        lo = max(lo, hi - slope / curve)
    return min(lo, hi), hi


def rescale_argmax(gain, bracket) -> float:
    """The power scale the step takes from the bracket: the
    golden-section argmax of gain over it to optim._TAU_RTOL, or its
    upper end when rounding closed it, unless the point lies within
    optim._TAU_RTOL of 1 or scores no higher than tau = 1."""
    if bracket is None:
        return 1.0
    lo, hi = bracket
    tau = (hi if lo >= hi else
           golden_section_max(gain, lo, hi, rel_tol=optim._TAU_RTOL))
    if abs(tau - 1.0) <= optim._TAU_RTOL or gain(tau) <= gain(1.0):
        return 1.0
    return tau


def rescale_tau(h: np.ndarray, b: np.ndarray, n0: float, budget: float,
                ridge: float) -> float:
    """The power scale tau the Dinkelbach power-scale step picks, on
    :func:`rescale_objective`'s numpy arrays: the argmax
    (:func:`rescale_argmax`) over :func:`rescale_bracket` with
    tau_hi = budget / psum."""
    _, sig, inter = beamform.link_gains(h, b)
    psum = float(np.sum(np.abs(b) ** 2))
    return rescale_argmax(rescale_objective(h, b, n0, ridge), rescale_bracket(
        sig, inter, psum, n0, budget / psum, ridge))


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
        return tau_hi if tau_hi > 1.0 else 1.0
    return rescale_argmax(gain, rescale_bracket(sig, inter, psum, n0, tau_hi,
                                                ridge))


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


def served_users(h: np.ndarray) -> list[int]:
    """The users ``beamform.served_users`` picks on one draw h (N, M), as
    a float loop: every user when N <= M, else M greedy picks, each the
    user whose channel keeps the largest part after Gram-Schmidt against
    the parts picked so far, the lowest index among equals."""
    n, m = h.shape
    if n <= m:
        return list(range(n))
    rows = [[complex(x) for x in row] for row in h.tolist()]
    basis, picks = [], []
    for _ in range(m):
        best, best_size, best_part = -1, -1.0, None
        for i, row in enumerate(rows):
            if i in picks:
                continue
            part = row
            for q in basis:
                c = sum(a * b.conjugate() for a, b in zip(part, q))
                part = [a - c * b for a, b in zip(part, q)]
            size = sum(abs(a) ** 2 for a in part)
            if size > best_size:
                best, best_size, best_part = i, size, part
        picks.append(best)
        if best_size > 0.0:
            norm = math.sqrt(best_size)
            basis.append([a / norm for a in best_part])
    return sorted(picks)


def served_start(h: np.ndarray, cfg: SystemConfig, p: float) -> np.ndarray:
    """The solvers' start on one draw h (N, W) at the power p: equal-power
    RZF beamformers over the users :func:`served_users` picks, with the
    loading and per-user power of a cell of those users alone, and zero
    beamformers for the rest.  h holds the cell's channels (W = M), or
    the K x K channels of ``optim._served_cell`` (a wide cell's effective
    channels r^T, with h^T = q r, or an overloaded cell's served rows),
    on which the loading is scaled by M / W, so that it loads the RZF as
    the full channels do."""
    served = served_users(h)
    k = len(served)
    alpha = beamform.mmse_loading_alpha(dataclasses.replace(cfg, N=k), p)
    b = np.zeros(h.shape, dtype=complex)
    b[served] = beamform.rzf(h[served], alpha * (cfg.M / h.shape[-1])) \
        * math.sqrt(p / k)
    return b


def served_channels(h: np.ndarray, cfg: SystemConfig, p: float):
    """The K x K channels ``optim._served_cell`` gives one draw h (N, M)
    at the power p."""
    return optim._served_cell(h[None], cfg, np.array([p]))[0][0]


def dinkelbach_outer_loop(h: np.ndarray, cfg: SystemConfig, budget: float,
                          start: np.ndarray | None = None):
    """Dinkelbach's method of ``optim.dinkelbach_ee`` on one problem
    h (N, M), as a float loop over its outer steps, each a plain
    one-entry ``optim._descend`` at the ridge lam xi from the last
    step's beamformers, their link statistics taken afresh, and lam
    starting at the efficiency of the first beamformers: the per-entry
    form the stacked bookkeeping must match bit for bit.  By default the
    loop runs where the solver does, on the K x K channels of
    ``optim._served_cell``, from :func:`served_start` on them.  Given
    beamformers start on h, it runs on all N rows, in the row space a
    wide cell is factored to once, from start projected there.  Returns
    the last beamformers, the efficiency and the lam and F(lam) of every
    outer step."""
    pm = derive_power_model(cfg)
    p = np.array([budget])
    if start is None:
        stack, _, _, lift = optim._served_cell(h[None], cfg, p)
        c = served_start(stack[0], cfg, budget)[None]
    else:
        stack, project, lift = optim._row_space(h[None])
        c = project(start[None])
    _, sig, inter, psum = optim._stats(stack, c)
    lam = (float(np.log1p(sig / (inter + pm.n0)).sum(axis=-1)[0])
           / total_power(float(psum[0]), pm, cfg.xi))
    lams, fs = [], []
    while True:
        run = optim._descend(stack, pm.n0, p, np.array([lam * cfg.xi]), c,
                             optim._stats(stack, c))
        rate = float(run.rate[0])
        consumed = total_power(float(run.stats[-1][0]), pm, cfg.xi)
        lams.append(lam)
        fs.append(rate - lam * consumed)
        lam = rate / consumed
        if abs(fs[-1]) <= optim._DELTA or len(fs) == optim._MAX_OUTER:
            return lift(run.b)[0], lam, lams, fs
        c = run.b


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
                        ridge: float, b0: np.ndarray, opening: bool = True):
    """The WMMSE block descent of ``optim._descend`` with the link
    statistics taken afresh at the top of every iterate.  A positive
    ridge takes a power-scale step after every beam step and, when
    opening is set, one on the start before the first (the start's
    statistics must lie in the float range ``optim._descend`` opens in).
    Returns the last beamformers and the objective history."""
    def scaled(b):
        _, sig, inter = beamform.link_gains(h, b)
        tau = rescale_step(sig, inter, float(np.sum(np.abs(b) ** 2)),
                           n0, budget, ridge)
        return b * math.sqrt(tau)

    b = scaled(b0) if opening and ridge > 0.0 else b0
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
            b = scaled(b)
    return b, history


def dinkelbach_beam_first(h: np.ndarray, cfg: SystemConfig, budget: float):
    """Dinkelbach's method of ``optim.dinkelbach_ee`` on one problem
    h (N, M), on the channels of :func:`served_channels`, from the
    solvers' served start and lam at its efficiency, with every descent
    that of :func:`iterate_recomputing` opening with a beam step: the
    block order before descents opened with their power-scale step.
    Returns the efficiency of the last beamformers and the beam steps
    taken."""
    pm = derive_power_model(cfg)
    stack = served_channels(h, cfg, budget)
    c = served_start(stack, cfg, budget)
    lam, steps = instantaneous_ee(stack, c, cfg), 0
    for _ in range(optim._MAX_OUTER):
        c, hist = iterate_recomputing(stack, pm.n0, budget, lam * cfg.xi, c,
                                      opening=False)
        steps += len(hist) - 1
        rate = beamform.sum_rate(beamform.sinr(stack, c, pm.n0))
        consumed = total_power(float(np.sum(np.abs(c) ** 2)), pm, cfg.xi)
        f, lam = rate - lam * consumed, rate / consumed
        if abs(f) <= optim._DELTA:
            break
    return lam, steps


def linear_ee_upper_bound(h: np.ndarray, cfg: SystemConfig,
                          budget: float) -> float:
    """An upper bound on the efficiency of any linear beamformer on one
    draw h (N, M) with sum power at most budget.

    By Cauchy-Schwarz SINR_k <= |h_k|^2 p_k / n0, where p_k is user k's
    beam power, so the efficiency is at most the peak of
    R(p) / C(p) = sum log1p(g_k p_k) / (xi sum p + Pconst) over p >= 0,
    sum p <= budget.  Dinkelbach's method from lam = 0 finds it:
    F(lam) = max R - lam C is water-filling at the level
    min(1 / (lam xi), nu), nu the level that spends the budget.  Every
    iterate has F(lam) >= 0, so R / C <= lam + F(lam) / C <= lam +
    F(lam) / Pconst for every feasible p, and the bound holds wherever
    the loop stops.
    """
    pm = derive_power_model(cfg)
    inv_g = np.sort(pm.n0 / np.sum(np.abs(h) ** 2, axis=-1))
    for k in range(inv_g.size, 0, -1):
        nu = (budget + inv_g[:k].sum()) / k
        if nu > inv_g[k - 1]:
            break

    def step(lam):
        level = nu if lam == 0.0 else min(nu, 1.0 / (lam * cfg.xi))
        p = np.maximum(level - inv_g, 0.0)
        rate = float(np.sum(np.log1p(p / inv_g)))
        consumed = total_power(float(p.sum()), pm, cfg.xi)
        return rate - lam * consumed, rate / consumed

    lam = 0.0
    f, ee = step(lam)
    for _ in range(50):
        if f <= 1e-12 * lam * pm.Pconst:
            break
        lam = ee
        f, ee = step(lam)
    # F(lam) >= 0 in exact arithmetic; a rounded one may read just below.
    return lam + max(f, 0.0) / pm.Pconst


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


def saturation_root_decimal(t: float) -> float:
    """The root z > 0 of (1 + z) ln(1 + z) - z = t by Newton's method in
    420-digit decimal arithmetic, the left side as it reads.

    Below t = 1e-300 the root is about sqrt(2 t) > 1e-150, so 1 + z keeps
    z to some 270 digits and the subtraction cancels at most 300 of
    them.  Newton runs from sqrt(2 t) until its step is below 1e-40 of z.
    """
    with localcontext() as ctx:
        ctx.prec = 420
        target = Decimal(t)
        z = (2 * target).sqrt()
        while True:
            log = (1 + z).ln()
            step = ((1 + z) * log - z - target) / log
            z -= step
            if abs(step) <= z * Decimal("1e-40"):
                return float(z)


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
    h = channel.generate(SystemConfig(M=mb, N=nb), seed, 0)

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


def path_loss_draws(h: np.ndarray, spread_db: float = 20.0) -> np.ndarray:
    """Draws h (..., N, M) with user k's row scaled by a power gain; the
    gains fall evenly in dB across the users over spread_db and are
    normalized to mean 1."""
    gains = 10.0 ** (np.linspace(0.0, -spread_db, h.shape[-2]) / 10.0)
    return h * np.sqrt(gains / gains.mean())[:, None]


def correlated_draws(h: np.ndarray, rho: float = 0.95) -> np.ndarray:
    """Draws h (..., N, M) given the transmit correlation rho^|i - j|
    between antennas i and j: each row times the transposed Cholesky
    factor of that matrix."""
    k = np.arange(h.shape[-1])
    return h @ np.linalg.cholesky(rho ** np.abs(k[:, None] - k)).T
