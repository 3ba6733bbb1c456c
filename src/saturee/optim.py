"""Iterative reference optimizers: WMMSE and a Dinkelbach outer loop.

The WMMSE block coordinate descent maximizes the downlink sum rate under
a sum power constraint.  The Dinkelbach routine wraps it into a
fractional program for energy efficiency and serves as the baseline the
one-shot scheme is judged against.

Both solve a stack of problems, channels h (E, N, M) with budgets (E,);
one problem is a one-entry stack.  Each entry has its own stop, cap and
Dinkelbach parameter, kept with the rest of the descent's state in (E,)
arrays, and leaves the stack when it finishes.  Its arithmetic does not
depend on the other entries, so the stack only shares numpy's per-call
cost among them.
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
    """Beamformers b (E, N, M) of each entry's last iterate, their sum
    rates and sum powers (E,), and the objective after every iteration,
    the entries' histories concatenated in entry order.  converged holds
    only if every entry converged."""

    b: np.ndarray
    state: WmmseState
    converged: bool
    sum_rate: np.ndarray
    p_sum: np.ndarray
    objective_history: np.ndarray


@dataclass
class DinkelbachResult:
    """Beamformers b (E, N, M) of each entry's last inner solve, their
    efficiencies lambda_star (E,), and the parameter and F(lam) of every
    outer step, the entries' histories concatenated in entry order.
    converged holds only if every entry converged."""

    b: np.ndarray
    lambda_star: np.ndarray
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
    """Outcome of :func:`_descend`, one array over the entries per field:
    the last iterate b (E, N, M), its sum rate and sum power, and the
    beam steps and convergence flag of the last inner descent; then the
    objective after every iteration of a plain descent (empty with a
    Dinkelbach loop) and the parameter and F(lam) of every outer step
    (empty without one), each concatenated in entry order."""

    b: np.ndarray
    rate: np.ndarray
    p_sum: np.ndarray
    steps: np.ndarray
    converged: np.ndarray
    history: np.ndarray
    lam: np.ndarray
    f: np.ndarray


def _by_entry(log: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The values of a log of (entries, values) pairs, entry by entry,
    each entry's in the order they were logged."""
    if not log:
        return np.empty(0)
    at, values = (np.concatenate(part) for part in zip(*log))
    return values[np.argsort(at, kind="stable")]


def _descend(h: np.ndarray, n0: float, budget: np.ndarray,
             ridge: np.ndarray, b: np.ndarray,
             outer: tuple[DerivedPowerModel, float] | None = None
             ) -> _Descent:
    """Block descent of a stack of entries, channels h (E, N, M) from the
    beamformers b (E, N, M), each under its own budget and ridge (E,).

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

    The state of the entries still stepping (objective, ridge, lam,
    step and outer-step counts) is kept in arrays, and each beam step
    does its bookkeeping in array passes over them: the stop test, F(lam)
    and the restart of the entries that stopped, and the removal of the
    finished ones from the stack, state and all.  Each pass applies the
    float operations a scalar loop over the entries would, so an entry
    gets the same bits.  A missing previous objective is NaN, which no
    stop test passes.

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
    at = np.arange(count)               # the entry at each stack position
    prev = np.full(count, np.nan)
    lam = np.zeros(count)
    steps = np.zeros(count, dtype=int)
    outer_steps = np.zeros(count, dtype=int)
    rate_out, psum_out = np.empty(count), np.empty(count)
    steps_out, conv_out = np.empty(count, dtype=int), np.empty(count, bool)
    history, lam_log, f_log = [], [], []
    last_b = np.empty(b.shape, dtype=complex)
    d, sig, inter, psum = _stats(h, b)
    while at.size:
        e = inter + n0
        sinr = sig / e
        rate = np.log1p(sinr).sum(axis=-1)
        obj = rate - ridge * psum
        converged = np.abs(obj - prev) <= _TOL * np.maximum(1.0, np.abs(obj))
        prev = obj
        stop = converged | ~(steps < _MAX_ITER)
        if outer is None:
            history.append((at, obj))
        elif stop.any():
            pm, xi = outer
            consumed = total_power(psum, pm, xi)
            f = rate - lam * consumed
            lam_log.append((at[stop], lam[stop]))
            f_log.append((at[stop], f[stop]))
            converged = np.where(stop, np.abs(f) <= _DELTA, converged)
            lam = np.where(stop, rate / consumed, lam)
            outer_steps += stop
            restart = stop & ~converged & (outer_steps < _MAX_OUTER)
            ridge = np.where(restart, lam * xi, ridge)
            prev = np.where(restart, rate - ridge * psum, prev)
            steps[restart] = 0
            stop &= ~restart
        if stop.any():
            done = at[stop]
            last_b[done] = b[stop]
            rate_out[done], psum_out[done] = rate[stop], psum[stop]
            steps_out[done], conv_out[done] = steps[stop], converged[stop]
            if stop.all():
                break
            go = ~stop
            (at, budget, ridge, prev, lam, steps, outer_steps, h, d, sig, e,
             sinr) = (a[go] for a in (at, budget, ridge, prev, lam, steps,
                                      outer_steps, h, d, sig, e, sinr))
        del b                           # before the step allocates the next
        b = _beam_step(h, d / (e + sig), 1.0 + sinr, budget, ridge)
        d, sig, inter, psum = _stats(h, b)
        steps += 1
        pos = np.flatnonzero(ridge > 0.0)
        if pos.size:
            tau = _rescale(sig[pos].T, inter[pos].T, psum[pos], n0,
                           budget[pos], ridge[pos])
            moved = tau != 1.0
            pos = pos[moved]
            if pos.size:
                b[pos] *= np.sqrt(tau[moved])[:, None, None]
                d[pos], sig[pos], inter[pos], psum[pos] = _stats(h[pos],
                                                                 b[pos])
    if basis is not None:
        last_b = last_b @ np.swapaxes(basis, -1, -2)
    return _Descent(b=last_b, rate=rate_out, p_sum=psum_out, steps=steps_out,
                    converged=conv_out, history=_by_entry(history),
                    lam=_by_entry(lam_log), f=_by_entry(f_log))


def _budgets(h: np.ndarray, p_budget) -> np.ndarray:
    """The budgets of a call as an array (E,), checked against its stack
    of channels h (E, N, M)."""
    budget = np.asarray(p_budget, dtype=float)
    if not np.all(budget > 0.0):
        raise ValueError(f"power budget must be positive, got {p_budget}")
    if h.ndim != 3 or budget.shape != h.shape[:1]:
        raise ValueError(f"budgets of shape {budget.shape} do not match a "
                         f"stack of channels (E, N, M), got {h.shape}")
    return budget


def wmmse(h: np.ndarray, cfg: SystemConfig, p_budget,
          init: np.ndarray | None = None) -> WmmseResult:
    """Sum-rate maximization by weighted-MMSE block coordinate descent of
    a stack of channels h (E, N, M) under the budgets p_budget (E,).

    Starts from equal-power maximum-ratio beamformers (or the given
    beamformers init, of the shape of h) and stops each entry when its
    relative objective change drops below _TOL.  The returned objective
    history is nondecreasing up to rounding; an entry whose iteration
    cap runs out first returns its last iterate, with converged = False.
    """
    budget = _budgets(h, p_budget)
    pm = derive_power_model(cfg)
    if init is None:
        init = mrt(h) * np.sqrt(budget / cfg.N)[:, None, None]
    elif np.shape(init) != h.shape:
        raise ValueError(f"init shape {np.shape(init)} does not match "
                         f"channels {h.shape}")
    run = _descend(h, pm.n0, budget, np.zeros(budget.size),
                   np.ascontiguousarray(init, dtype=complex))
    return WmmseResult(
        b=run.b, state=WmmseState(iteration=int(run.steps.sum())),
        converged=bool(run.converged.all()), sum_rate=run.rate,
        p_sum=run.p_sum, objective_history=run.history)


def dinkelbach_ee(h: np.ndarray, cfg: SystemConfig,
                  p_budget) -> DinkelbachResult:
    """Energy-efficiency maximization by Dinkelbach's parametric method,
    for a stack of channels h (E, N, M) under the budgets p_budget (E,).

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
    budget = _budgets(h, p_budget)
    pm = derive_power_model(cfg)
    scale = np.sqrt(budget / cfg.N)[:, None, None]
    # The start is built inline: the descent drops it after one step.
    run = _descend(h, pm.n0, budget, np.zeros(budget.size),
                   rzf(h, mmse_loading_alpha(cfg, budget)) * scale,
                   outer=(pm, cfg.xi))
    return DinkelbachResult(
        b=run.b, lambda_star=run.rate / total_power(run.p_sum, pm, cfg.xi),
        converged=bool(run.converged.all()), lambda_history=run.lam,
        f_history=run.f)
