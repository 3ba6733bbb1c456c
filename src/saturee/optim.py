"""Iterative reference optimizers: WMMSE and a Dinkelbach outer loop.

The WMMSE block coordinate descent maximizes the downlink sum rate under
a sum power constraint.  The Dinkelbach routine wraps it into a
fractional program for energy efficiency and serves as the baseline the
one-shot scheme is judged against.

Both solve one problem, a channel h (N, M) and a budget, or a stack of
them, h (E, N, M) with one budget or E.  Each entry of a stack follows
the single problem's algorithm to the last bit, with its own stop, cap
and Dinkelbach parameter, and leaves the stack when it finishes; the
stack only shares numpy's per-call cost among the entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamform import link_gains, mmse_loading_alpha, mrt, rzf
from .scalar_opt import golden_section_max
from .sysmodel import (DerivedPowerModel, SystemConfig, derive_power_model,
                       total_power)

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
    """Where the block descent stopped: the number of beam steps taken,
    summed over the entries of a stack."""

    iteration: int


@dataclass
class WmmseResult:
    """Beamformer matrix b (N, M) of the last iterate, its sum rate and
    sum power, and the objective after every iteration.

    For a stack, b is (E, N, M) and sum_rate and p_sum have one value
    per entry; converged holds only if every entry converged, and the
    entries' objective histories are concatenated in entry order."""

    b: np.ndarray
    state: WmmseState
    converged: bool
    sum_rate: float | np.ndarray
    p_sum: float | np.ndarray
    objective_history: np.ndarray


@dataclass
class DinkelbachResult:
    """Beamformer matrix b (N, M) of the last inner solve, its efficiency
    lambda_star, and the parameter and F(lam) of every outer step.

    For a stack, b is (E, N, M) and lambda_star has one value per entry;
    converged holds only if every entry converged, and the entries'
    histories are concatenated in entry order."""

    b: np.ndarray
    lambda_star: float | np.ndarray
    converged: bool
    lambda_history: np.ndarray
    f_history: np.ndarray


def _lead_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, row by row in index order, as a float
    loop adds its terms.  np.sum along axis 0 does that too, except on a
    one-column stack, which numpy reduces as a flat vector, pairwise from
    8 rows on; an accumulation is row by row for every shape."""
    return np.add.accumulate(a)[-1]


def _multiplier(r: np.ndarray, base: np.ndarray,
                budget: np.ndarray) -> np.ndarray:
    """For each column e of the spectra r, base (K, E), the smallest
    mu >= 0 with P(mu) = sum_i r_ie / (base_ie + mu)^2 <= budget_e, to
    within _POWER_RTOL below the budget.  A mode a column does not keep
    has r = 0 and a positive base, so it adds nothing.

    Newton runs on the secular form P(mu)^-1/2 - target^-1/2, which is
    exactly linear in mu for one mode and concave otherwise, so from
    mu = 0 (the infeasible side) it rises monotonically to the root.
    The target sits half the tolerance inside the budget, so that rising
    sequence crosses the budget and stops on the feasible side.  A step
    that leaves the bracket or fails to shrink it is replaced by
    bisection.

    One pass serves the whole stack: the columns still searching step
    together and leave as they finish, and every column takes the steps
    and sums (over the leading axis, see _lead_sum) of a float loop over
    its modes alone.  On a 2-core VM a search over 50 entries takes
    about 0.3 ms and one over a single entry about 0.2 ms, against
    0.01 ms (3 modes) to 0.03 ms (16 modes) per entry for that float
    loop, so a stack breaks even near 30 entries of 3 modes and 8 of 16.
    The first beam steps of a sweep stack 100-200 entries: 20 trials of
    the default 3x3 sweep spend 1.0 ms in this search against 11.4 ms
    entry by entry.
    """
    def power(r, base, mu):
        x = 1.0 / (base + mu)
        t = r * x * x
        return _lead_sum(t), _lead_sum(t * x)      # P and -P'/2

    mu = np.zeros(budget.shape)
    p, slope = power(r, base, 0.0)
    act = np.flatnonzero(p > budget * (1.0 + _ON_BUDGET_RTOL))
    if not act.size:
        return mu
    r, base, budget = r[:, act], base[:, act], budget[act]
    p, slope = p[act], slope[act]
    target = budget * (1.0 - 0.5 * _POWER_RTOL)
    tol = _POWER_RTOL * budget
    # P(mu) < sum(r) / mu^2, so this upper end is feasible.
    lo, hi = np.zeros(act.size), np.sqrt(_lead_sum(r) / budget)
    m = lo
    for _ in range(200):
        if not act.size:
            break
        nxt = m + p / slope * (np.sqrt(p / target) - 1.0)
        m = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
        p, slope = power(r, base, m)
        over = p > budget
        # A column on the budget within tolerance takes mu = m = hi.
        lo, hi = np.where(over, m, lo), np.where(over, hi, m)
        done = ~over & (budget - p <= tol) | (hi - lo <= 1e-15 * hi)
        if done.any():
            mu[act[done]] = hi[done]
            go = ~done
            act, r, base, budget, target, tol = (
                act[go], r[:, go], base[:, go], budget[go], target[go],
                tol[go])
            p, slope, lo, hi, m = p[go], slope[go], lo[go], hi[go], m[go]
    mu[act] = hi
    return mu


def _beam_step(h: np.ndarray, u: np.ndarray, w: np.ndarray, budget,
               ridge) -> np.ndarray:
    """Beamformer update b_k = (sum_j w_j |u_j|^2 h_j h_j^H + (ridge + mu) I)^-1
    h_k u_k w_k with mu >= 0 the smallest multiplier keeping the sum power
    within budget, for a stack of channels h (E, N, M) with E budgets and
    ridges.

    The weighted Gram matrix is never formed: near zero-forcing points
    the user weights span ten-plus orders, and squaring them into a Gram
    matrix buries the weakest user's direction below double precision.
    Instead the update runs on the SVD of the weighted channel stack
    sqrt(w |u|^2) h^H, whose right-hand side projections collapse to the
    exact identity qt[i, k] = s_i conj(U[k, i]) sqrt(w_k) phase(u_k).
    Every factor there is well scaled, so no huge column ever multiplies
    a small basis error, and the power becomes a cheap rational function
    of mu, P(mu) = sum_i r_i / (lam_i + ridge + mu)^2, whose roots
    _multiplier finds by one safeguarded Newton over the whole stack.

    Every entry runs at the SVD's full width K = min(N, M), and a mask
    gives the modes past its rank (the count it keeps, see below) zero
    power, so an entry's bits do not depend on the rest of its stack.
    The result is a C-ordered (E, N, M) array.
    """
    absu = np.abs(u)
    coeff = w * absu ** 2
    root = h.conj()
    root *= np.sqrt(coeff)[..., None]
    uu, s, vh = np.linalg.svd(root, full_matrices=False)
    del root
    lam = s * s
    # Masked tail = rounding residue: the stack has exactly as many
    # genuine singular values as users carrying positive weight, and the
    # right-hand side lies in their span.  Modes of users fading to
    # shutoff underflow when squared again inside the power function;
    # they carry no recoverable signal either.
    ranks = np.minimum(np.count_nonzero(coeff, axis=-1),
                       np.count_nonzero(lam > 1e-150, axis=-1))
    # u_k is exactly 0 where |u_k| is, so its phase comes out 0 there.
    gain = np.sqrt(w) * (u / np.where(absu > 0.0, absu, 1.0))
    base = lam + np.asarray(ridge, dtype=float)[:, None]
    r = lam * (w[:, None, :] @ (np.abs(uu) ** 2))[:, 0, :]
    kept = np.arange(s.shape[-1]) < ranks[:, None]
    mu = _multiplier(np.where(kept, r, 0.0).T, np.where(kept, base, 1.0).T,
                     np.asarray(budget, dtype=float))
    # The tail's infinite denominator gives it zero power without a 0/0.
    scale = s / np.where(kept, base + mu[:, None], np.inf)
    np.conjugate(vh, out=vh)        # in place: vh is as large as h
    return (gain[..., None] * uu.conj() * scale[:, None, :]) @ vh


def _rescale(sig: np.ndarray, inter: np.ndarray, psum: np.ndarray,
             n0: float, budget: np.ndarray, ridge: np.ndarray) -> np.ndarray:
    """Ascent step on a uniform power scale tau of each entry's
    beamformers, given the signal and interference powers sig, inter
    (N, E) of its users and its sum power psum (E,), under budget and
    ridge (E,).

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
    the argmax and no search runs.  Otherwise a golden-section search
    evaluates the objective some sixty times, entry by entry on Python
    floats.  tau_hi, the slope and the test against tau = 1 run once
    over the stack, summed over the users' axis as a float loop adds
    them (see _lead_sum).  numpy's log1p may differ from math.log1p, the
    search's, in the last bit, so a test that lands within that rounding
    of a tie is redone on the entry's Python floats: every entry gets
    the tau a float loop over its users alone would give.  On a 2-core
    VM the power-scale steps of 20 default 3x3 sweep trials take 4.8 ms
    against 8.6 ms entry by entry; on the 64x16 cell every entry
    searches, and the searches are nearly all of its 21 ms per 20
    compare trials.
    """
    tau = np.ones(psum.shape)
    live = np.flatnonzero(psum > 0.0)
    tau_hi = budget[live] / psum[live]
    on = tau_hi >= 1.0 - _ON_BUDGET_RTOL
    live, tau_hi = live[on], tau_hi[on]
    s, q, p, rg = sig[:, live], inter[:, live], psum[live], ridge[live]
    slope = _lead_sum(np.concatenate((
        (-rg * p)[None],
        s * n0 / ((tau_hi * q + n0) * (tau_hi * (s + q) + n0)))))

    def objective(j: int):
        """Entry j's objective tau -> sum log1p(SINR) - ridge tau psum."""
        links = list(zip(s[:, j].tolist(), q[:, j].tolist()))
        ridge_j, psum_j = float(rg[j]), float(p[j])

        def gain(t: float) -> float:
            rate = 0.0
            for sk, qk in links:
                rate += math.log1p(t * sk / (t * qk + n0))
            return rate - ridge_j * t * psum_j
        return gain

    best = tau_hi.copy()
    for j in np.flatnonzero(~(slope >= 0.0)).tolist():
        best[j] = golden_section_max(objective(j), 1e-20 * tau_hi[j],
                                     tau_hi[j], rel_tol=1e-10)
    rate_t = _lead_sum(np.log1p(best * s / (best * q + n0)))
    rate_1 = _lead_sum(np.log1p(s / (q + n0)))
    cost_t, cost_1 = rg * best * p, rg * p
    diff = (rate_t - cost_t) - (rate_1 - cost_1)
    # Each log1p is within an ulp of the other's, and each sum and
    # difference rounds once per user: twice their bound.
    slack = 1e-15 * (s.shape[0] + 2) * (rate_t + cost_t + rate_1 + cost_1)
    beats = diff > slack
    for j in np.flatnonzero(~(np.abs(diff) > slack)).tolist():
        gain = objective(j)
        beats[j] = not gain(best[j]) <= gain(1.0)
    tau[live[beats]] = best[beats]
    return tau


def _stats(h: np.ndarray, b: np.ndarray):
    """Link statistics of each entry's beamformers (see link_gains) and
    their sum power."""
    return (*link_gains(h, b), (np.abs(b) ** 2).sum(axis=(-2, -1)))


@dataclass
class _Descent:
    """Per-entry outcome of :func:`_descend`: the last iterate b (E, N, M),
    its sum rate and sum power, the beam steps, convergence flag and
    objectives of the last inner descent, and the Dinkelbach parameter
    and F(lam) of every outer step (empty for a plain descent)."""

    b: np.ndarray
    rate: list[float]
    p_sum: list[float]
    steps: list[int]
    converged: list[bool]
    history: list[list[float]]
    lam: list[list[float]]
    f: list[list[float]]


def _descend(h: np.ndarray, n0: float, budget: list[float],
             ridge: list[float], b: np.ndarray,
             outer: tuple[DerivedPowerModel, float] | None = None
             ) -> _Descent:
    """Block descent of a stack of entries, channels h (E, N, M) from the
    beamformers b (E, N, M), each under its own budget and ridge.

    ridge = lambda * xi regularizes the beamformer step for the
    fractional inner problems, and a positive ridge adds a power-scale
    step after each beam step; ridge = 0 gives plain sum-rate
    maximization.  An entry's descent stops when its objective (sum
    rate minus ridge times sum power) changes by at most _TOL relative,
    or after _MAX_ITER beam steps.

    With outer = (power model, xi) each entry runs Dinkelbach's
    parametric method instead: when its descent stops, F(lam) = rate -
    lam * consumed power is taken, and unless |F(lam)| <= _DELTA or
    _MAX_OUTER outer steps are spent, the descent restarts from the
    entry's beamformers with lam = rate / consumed power.

    A wide cell (M > N) descends in its channels' row space: with the QR
    factorization h^T = q r, coefficients c on the N x N effective
    channels r^T see the link gains and spend the power of the
    beamformers c q^T.  A component no channel sees changes no link gain
    and only spends power, so the start is projected, b conj(q), which
    drops only that part, and the finished beamformers are lifted back
    with q^T.  A cell with N >= M has nothing to drop and descends as
    given.

    Each iterate takes its link statistics once: a power-scale step
    that keeps tau = 1 leaves them as the beam step's output had them,
    and a restarted descent starts from the statistics the last one
    ended on.  Every iterate is a C-ordered array, the start included,
    and each beam step runs every entry at full width with a masked tail
    (see _beam_step), so an entry's bits do not depend on the stack it
    shares.
    """
    basis = None
    if h.shape[-1] > h.shape[-2]:
        basis, r = np.linalg.qr(np.swapaxes(h, -1, -2))
        h = np.ascontiguousarray(np.swapaxes(r, -1, -2))
        b = b @ basis.conj()
    count = len(budget)
    ridge = list(ridge)
    rates_out, psums_out = [0.0] * count, [0.0] * count
    steps, conv = [0] * count, [False] * count
    history: list[list[float]] = [[] for _ in range(count)]
    lam_hist: list[list[float]] = [[] for _ in range(count)]
    f_hist: list[list[float]] = [[] for _ in range(count)]
    lam = [0.0] * count
    prev: list[float | None] = [None] * count
    ids = list(range(count))            # the entry at each stack position
    last_b = np.empty(b.shape, dtype=complex)
    d, sig, inter, psum = _stats(h, b)
    while ids:
        e = inter + n0
        sinr = sig / e
        rates = np.log1p(sinr).sum(axis=-1).tolist()
        psums = psum.tolist()
        keep = []
        for j, i in enumerate(ids):
            rate, p_sum = rates[j], psums[j]
            while True:
                obj = rate - ridge[i] * p_sum
                history[i].append(obj)
                last = prev[i]
                prev[i] = obj
                converged = (last is not None and abs(obj - last)
                             <= _TOL * max(1.0, abs(obj)))
                if not converged and steps[i] < _MAX_ITER:
                    keep.append(j)
                    break
                rates_out[i], psums_out[i] = rate, p_sum
                conv[i] = converged
                if outer is None:
                    break
                pm, xi = outer
                consumed = total_power(p_sum, pm, xi)
                f_val = rate - lam[i] * consumed
                lam_hist[i].append(lam[i])
                f_hist[i].append(f_val)
                conv[i] = abs(f_val) <= _DELTA
                lam[i] = rate / consumed
                if conv[i] or len(f_hist[i]) == _MAX_OUTER:
                    break
                ridge[i] = lam[i] * xi
                prev[i] = None
                steps[i] = 0
                history[i] = []
        if len(keep) < len(ids):
            stepping = set(keep)
            done = [j for j in range(len(ids)) if j not in stepping]
            last_b[[ids[j] for j in done]] = b[done]
            if not keep:
                break
            pos = np.array(keep)
            ids = [ids[j] for j in keep]
            h, d, sig, e, sinr = h[pos], d[pos], sig[pos], e[pos], sinr[pos]
        del b                           # before the step allocates the next
        b = _beam_step(h, d / (e + sig), 1.0 + sinr,
                       [budget[i] for i in ids], [ridge[i] for i in ids])
        d, sig, inter, psum = _stats(h, b)
        for i in ids:
            steps[i] += 1
        pos = [j for j, i in enumerate(ids) if ridge[i] > 0.0]
        if pos:
            tau = _rescale(sig[pos].T, inter[pos].T, psum[pos], n0,
                           np.array([budget[ids[j]] for j in pos]),
                           np.array([ridge[ids[j]] for j in pos]))
            moved = tau != 1.0
            pos = np.array(pos)[moved]
            if pos.size:
                b[pos] *= np.sqrt(tau[moved])[:, None, None]
                d[pos], sig[pos], inter[pos], psum[pos] = _stats(h[pos],
                                                                 b[pos])
    if basis is not None:
        last_b = last_b @ np.swapaxes(basis, -1, -2)
    return _Descent(b=last_b, rate=rates_out, p_sum=psums_out, steps=steps,
                    converged=conv, history=history, lam=lam_hist, f=f_hist)


def _stack(h: np.ndarray, p_budget) -> tuple[np.ndarray, np.ndarray]:
    """The channels of a call as a stack (E, N, M) and its budgets as an
    array (E,): h is one channel (N, M) with one budget, or a stack with
    one budget or one per channel."""
    budget = np.asarray(p_budget, dtype=float)
    if not np.all(budget > 0.0):
        raise ValueError(f"power budget must be positive, got {p_budget}")
    if budget.shape not in ((), h.shape[:-2]) or h.ndim not in (2, 3):
        raise ValueError(f"budgets of shape {budget.shape} do not match "
                         f"channels of shape {h.shape}")
    stack = h.reshape((-1,) + h.shape[-2:])
    return stack, np.broadcast_to(budget, stack.shape[:1])


def _one(h: np.ndarray, values: list):
    """The per-entry values as an array, or the single value of an
    unstacked call."""
    return values[0] if h.ndim == 2 else np.array(values)


def wmmse(h: np.ndarray, cfg: SystemConfig, p_budget,
          init: np.ndarray | None = None) -> WmmseResult:
    """Sum-rate maximization by weighted-MMSE block coordinate descent.

    Starts from equal-power maximum-ratio beamformers (or the given
    beamformer matrix, of the shape of h) and stops when the relative
    objective change drops below _TOL.  The returned objective history
    is nondecreasing up to rounding; if the iteration cap runs out first
    the last iterate is returned with converged = False.  h is one
    channel (N, M) or a stack (E, N, M), p_budget one budget or E.
    """
    stack, budget = _stack(h, p_budget)
    pm = derive_power_model(cfg)
    if init is None:
        b0 = mrt(stack) * np.sqrt(budget / cfg.N)[:, None, None]
    else:
        b0 = np.ascontiguousarray(init, dtype=complex)
        if b0.shape != h.shape:
            raise ValueError(
                f"init shape {b0.shape} does not match channel {h.shape}")
        b0 = b0.reshape(stack.shape)
    budgets = budget.tolist()
    run = _descend(stack, pm.n0, budgets, [0.0] * len(budgets), b0)
    return WmmseResult(
        b=run.b[0] if h.ndim == 2 else run.b,
        state=WmmseState(iteration=sum(run.steps)),
        converged=all(run.converged), sum_rate=_one(h, run.rate),
        p_sum=_one(h, run.p_sum),
        objective_history=np.array([v for hist in run.history
                                    for v in hist]))


def dinkelbach_ee(h: np.ndarray, cfg: SystemConfig,
                  p_budget) -> DinkelbachResult:
    """Energy-efficiency maximization by Dinkelbach's parametric method.

    Each outer step solves max sum-rate minus lam times consumed power
    (same block descent, with lam xi folded into the beamformer
    regularizer), warm-started from the previous beamformers so the lam
    sequence is nondecreasing.  Stops once the parametric value F(lam)
    falls within _DELTA of zero; the returned lambda_star is the achieved
    efficiency of the final solution.  h is one channel (N, M) or a
    stack (E, N, M), p_budget one budget or E.

    The very first solve starts from equal-power RZF beamformers: a
    maximum-ratio start can strand the whole continuation in a basin
    where a strongly correlated user is abandoned.
    """
    stack, budget = _stack(h, p_budget)
    pm = derive_power_model(cfg)
    scale = np.sqrt(budget / cfg.N)[:, None, None]
    budgets = budget.tolist()
    # The start is built inline: the descent drops it after one step.
    run = _descend(stack, pm.n0, budgets, [0.0] * len(budgets),
                   rzf(stack, mmse_loading_alpha(cfg, budget)) * scale,
                   outer=(pm, cfg.xi))
    lambda_star = [rate / total_power(p_sum, pm, cfg.xi)
                   for rate, p_sum in zip(run.rate, run.p_sum)]
    return DinkelbachResult(
        b=run.b[0] if h.ndim == 2 else run.b,
        lambda_star=_one(h, lambda_star), converged=all(run.converged),
        lambda_history=np.array([v for lam in run.lam for v in lam]),
        f_history=np.array([v for f in run.f for v in f]))
