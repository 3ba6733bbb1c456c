"""Iterative reference optimizers: WMMSE and a Dinkelbach outer loop.

The WMMSE block coordinate descent maximizes the downlink sum rate under
a sum power constraint.  The Dinkelbach routine wraps it into a
fractional program for energy efficiency and serves as the baseline the
one-shot scheme is judged against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamform import link_gains, mmse_loading_alpha, mrt, rzf
from .scalar_opt import golden_section_max
from .sysmodel import SystemConfig, derive_power_model, total_power

_POWER_RTOL = 1e-10
# A power this little above the budget is rounding, not a binding
# constraint: from an RZF start the first beam step lands a few hundred
# ulps off the budget.
_ON_BUDGET_RTOL = 1e-12
_TOL = 1e-4          # block descent stop: relative objective change
_DELTA = 1e-3        # Dinkelbach stop: |F(lam)| at most this
_MAX_ITER = 200      # block descent cap, WMMSE or one Dinkelbach inner
_MAX_OUTER = 100     # Dinkelbach parametric steps


@dataclass
class WmmseState:
    """Where the block descent stopped: the number of beam steps taken."""

    iteration: int


@dataclass
class WmmseResult:
    """Beamformer matrix b (N, M) of the last iterate, its sum rate and
    sum power, and the objective after every iteration."""

    b: np.ndarray
    state: WmmseState
    converged: bool
    sum_rate: float
    p_sum: float
    objective_history: np.ndarray


@dataclass
class DinkelbachResult:
    """Beamformer matrix b (N, M) of the last inner solve, its efficiency
    lambda_star, and the parameter and F(lam) of every outer step."""

    b: np.ndarray
    lambda_star: float
    converged: bool
    lambda_history: np.ndarray
    f_history: np.ndarray


def _multiplier(r: np.ndarray, base: np.ndarray, budget: float) -> float:
    """Smallest mu >= 0 with P(mu) = sum_i r_i / (base_i + mu)^2 <= budget,
    to within _POWER_RTOL below the budget.

    Newton runs on the secular form P(mu)^-1/2 - target^-1/2, which is
    exactly linear in mu for one mode and concave otherwise, so from
    mu = 0 (the infeasible side) it rises monotonically to the root.
    The target sits half the tolerance inside the budget, so that rising
    sequence crosses the budget and stops on the feasible side.  A step
    that leaves the bracket or fails to shrink it is replaced by
    bisection.

    P and its slope are summed on Python floats: a beam step has at most
    as many modes as users, and for the users of a cell (up to N = 16 in
    every shipped config) a plain loop costs a fraction of numpy's
    per-call dispatch on tiny arrays.  The two break even near 50 modes.
    """
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
    if p <= budget * (1.0 + _ON_BUDGET_RTOL):
        return 0.0
    target = budget * (1.0 - 0.5 * _POWER_RTOL)
    # P(mu) < sum(r) / mu^2, so this upper end is feasible.
    lo, hi = 0.0, math.sqrt(sum(ri for ri, _ in modes) / budget)
    mu = lo
    for _ in range(200):
        nxt = mu + p / slope * (math.sqrt(p / target) - 1.0)
        mu = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        p, slope = power(mu)
        if p > budget:
            lo = mu
        elif budget - p <= _POWER_RTOL * budget:
            return mu
        else:
            hi = mu
        if hi - lo <= 1e-15 * hi:
            break
    return hi


def _beam_step(h: np.ndarray, u: np.ndarray, w: np.ndarray, budget: float,
               ridge: float) -> np.ndarray:
    """Beamformer update b_k = (sum_j w_j |u_j|^2 h_j h_j^H + (ridge + mu) I)^-1
    h_k u_k w_k with mu >= 0 the smallest multiplier keeping the sum power
    within budget.

    The weighted Gram matrix is never formed: near zero-forcing points
    the user weights span ten-plus orders, and squaring them into a Gram
    matrix buries the weakest user's direction below double precision.
    Instead the update runs on the SVD of the weighted channel stack
    sqrt(w |u|^2) h^H, whose right-hand side projections collapse to the
    exact identity qt[i, k] = s_i conj(U[k, i]) sqrt(w_k) phase(u_k).
    Every factor there is well scaled, so no huge column ever multiplies
    a small basis error, and the power becomes a cheap rational function
    of mu, P(mu) = sum_i r_i / (lam_i + ridge + mu)^2, whose root
    _multiplier finds by safeguarded Newton on scalars.
    """
    absu = np.abs(u)
    coeff = w * absu ** 2
    root = np.sqrt(coeff)[:, None] * h.conj()
    uu, s, vh = np.linalg.svd(root, full_matrices=False)
    # Dropped tail = rounding residue: the stack has exactly as many
    # genuine singular values as users carrying positive weight, and the
    # right-hand side lies in their span.
    rank = min(np.count_nonzero(coeff), s.size)
    lam = s * s
    while rank > 0 and lam[rank - 1] <= 1e-150:
        # Modes of users fading to shutoff underflow when squared again
        # inside the power function; they carry no recoverable signal.
        rank -= 1
    s, lam, uu, vh = s[:rank], lam[:rank], uu[:, :rank], vh[:rank]
    # u_k is exactly 0 where |u_k| is, so its phase comes out 0 there.
    phase = u / np.where(absu > 0.0, absu, 1.0)
    qt = s[:, None] * (uu.conj().T * (np.sqrt(w) * phase))
    base = lam + ridge
    mu = _multiplier(lam * (w @ (np.abs(uu) ** 2)), base, budget)
    return (vh.conj().T @ (qt / (base + mu)[:, None])).T


def _rescale(sig: np.ndarray, inter: np.ndarray, psum: float, n0: float,
             budget: float, ridge: float) -> float:
    """Ascent step on a uniform power scale tau of all beamformers, given
    their signal and interference powers sig, inter and sum power psum.

    The regularized beamformer step alone moves total power extremely
    slowly once the leakage is nulled (the ridge is buried under the
    weighted Gram spectrum), so the descent stalls far from the
    stationary power.  The objective restricted to b -> sqrt(tau) b is
    concave in tau, which makes this one-dimensional refinement exact
    and cheap; it keeps tau = 1 unless the chosen tau beats it, so it
    never decreases the objective.  A rounding excess over the budget is feasible.

    Where the closed-form slope
    sum_k s_k n0 / ((tau q_k + n0)(tau (s_k + q_k) + n0)) - ridge psum
    is still nonnegative at the budget's tau_hi, concavity makes tau_hi
    the argmax and no search runs.  Otherwise the golden-section search
    evaluates the objective some sixty times, on Python floats: for the
    few users of a cell (up to N = 16 in every shipped config) that is
    several times cheaper than numpy's per-call dispatch on tiny arrays.
    The two break even near N = 60, and in a cell that large the beam
    step's SVDs dwarf the search, so there is one path.
    """
    if psum <= 0.0:
        return 1.0
    tau_hi = budget / psum
    if not tau_hi >= 1.0 - _ON_BUDGET_RTOL:
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


def _iterate(h: np.ndarray, n0: float, budget: float, ridge: float,
             b0: np.ndarray) -> WmmseResult:
    """Shared block descent from b0.  ridge = lambda * xi regularizes the
    beamformer step for the fractional inner problems; ridge = 0 gives
    plain sum-rate maximization.

    Each iterate takes its link statistics once: a power-scale step that
    keeps tau = 1 leaves them as the beam step's output had them.

    The objective history holds the sum rate minus ridge times sum
    power, so just the sum rate when ridge is zero.
    """
    b = b0
    d, sig, inter = link_gains(h, b0)
    psum = float((np.abs(b) ** 2).sum())
    history = []
    prev = None
    converged = False
    for it in range(_MAX_ITER + 1):
        e = inter + n0
        sinr_vals = sig / e
        rate = float(np.log1p(sinr_vals).sum())
        obj = rate - ridge * psum
        history.append(obj)
        if prev is not None and abs(obj - prev) <= _TOL * max(1.0, abs(obj)):
            converged = True
            break
        prev = obj
        if it == _MAX_ITER:
            break
        b = _beam_step(h, d / (e + sig), 1.0 + sinr_vals, budget, ridge)
        d, sig, inter = link_gains(h, b)
        psum = float((np.abs(b) ** 2).sum())
        if ridge > 0.0:
            tau = _rescale(sig, inter, psum, n0, budget, ridge)
            if tau != 1.0:
                b = b * math.sqrt(tau)
                d, sig, inter = link_gains(h, b)
                psum = float((np.abs(b) ** 2).sum())
    return WmmseResult(b=b, state=WmmseState(iteration=it),
                       converged=converged, sum_rate=rate, p_sum=psum,
                       objective_history=np.array(history))


def wmmse(h: np.ndarray, cfg: SystemConfig, p_budget: float,
          init: np.ndarray | None = None) -> WmmseResult:
    """Sum-rate maximization by weighted-MMSE block coordinate descent.

    Starts from equal-power maximum-ratio beamformers (or the given
    beamformer matrix) and stops when the relative objective change
    drops below _TOL.  The returned objective history is nondecreasing up
    to rounding; if the iteration cap runs out first the last iterate is
    returned with converged = False.
    """
    if not p_budget > 0.0:
        raise ValueError(f"power budget must be positive, got {p_budget}")
    pm = derive_power_model(cfg)
    if init is None:
        b0 = mrt(h) * math.sqrt(p_budget / cfg.N)
    else:
        b0 = np.asarray(init, dtype=complex)
        if b0.shape != h.shape:
            raise ValueError(
                f"init shape {b0.shape} does not match channel {h.shape}")
    return _iterate(h, pm.n0, p_budget, 0.0, b0)


def dinkelbach_ee(h: np.ndarray, cfg: SystemConfig,
                  p_budget: float) -> DinkelbachResult:
    """Energy-efficiency maximization by Dinkelbach's parametric method.

    Each outer step solves max sum-rate minus lam times consumed power
    (same block descent, with lam xi folded into the beamformer
    regularizer), warm-started from the previous beamformers so the lam
    sequence is nondecreasing.  Stops once the parametric value F(lam)
    falls within _DELTA of zero; the returned lambda_star is the achieved
    efficiency of the final solution.

    The very first solve starts from equal-power RZF beamformers: a
    maximum-ratio start can strand the whole continuation in a basin
    where a strongly correlated user is abandoned.
    """
    if not p_budget > 0.0:
        raise ValueError(f"power budget must be positive, got {p_budget}")
    pm = derive_power_model(cfg)
    dirs = rzf(h, mmse_loading_alpha(cfg, p_budget))
    b = dirs * math.sqrt(p_budget / cfg.N)
    lam = 0.0
    lam_hist: list[float] = []
    f_hist: list[float] = []
    ok = False
    for _ in range(_MAX_OUTER):
        run = _iterate(h, pm.n0, p_budget, lam * cfg.xi, b)
        b, rate = run.b, run.sum_rate
        consumed = total_power(run.p_sum, pm, cfg.xi)
        f_val = rate - lam * consumed
        lam_hist.append(lam)
        f_hist.append(f_val)
        if abs(f_val) <= _DELTA:
            ok = True
            break
        lam = rate / consumed
    return DinkelbachResult(b=b, lambda_star=rate / consumed, converged=ok,
                            lambda_history=np.array(lam_hist),
                            f_history=np.array(f_hist))
