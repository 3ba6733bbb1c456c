"""Iterative reference optimizers: WMMSE and a Dinkelbach outer loop.

The WMMSE block coordinate descent maximizes the downlink sum rate under
a sum power constraint.  The Dinkelbach routine wraps it into a
fractional program for energy efficiency and serves as the baseline the
one-shot scheme is judged against.

Both solve a stack of problems, channels h (E, N, M) with budgets (E,);
one problem is a one-entry stack.  One block descent serves both: the
WMMSE solve runs it once, and the Dinkelbach loop once per outer step
at the entries' current parameters.  Each entry has its own stop and
cap, kept with the rest of the state in (E,) arrays, and leaves the
stack when it finishes.  Its arithmetic does not depend on the other
entries, so the stack only shares numpy's per-call cost among them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .beamform import (link_gains, mmse_loading_alpha, mrt, rzf,
                       served_users)
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
# The power-scale search's relative width in tau.  An error d in log tau
# costs the objective O(d^2), far below _TOL, and moves the sum power by
# d, 10x inside the harness's slack test (harness._SLACK_RTOL = 1e-6).
_TAU_RTOL = 1e-7
# The square root of the largest float: a square past it overflows.
_SQRT_MAX = math.sqrt(np.finfo(float).max)


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
    The first beam steps of a default 3x3 sweep stack 19-20 entries per
    draw, so a group of two draws is past that.
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
    stationary power.  The objective restricted to b -> sqrt(tau) b,
    sum_k log1p(tau s_k / (tau q_k + n0)) - ridge tau psum, is concave in
    tau, which makes this one-dimensional refinement exact and cheap.
    An entry with no power keeps tau = 1, and so does one whose power
    lies above its budget by more than rounding; a rounding excess is
    feasible.

    Each other entry is decided once, by the sign of the closed-form
    slope g(tau) = sum_k s_k n0 / ((tau q_k + n0)(tau (s_k + q_k) + n0))
    - ridge psum at the budget's tau_hi, summed over the users as a float
    loop adds them (see _lead_sum).  A nonnegative slope makes tau_hi
    the argmax by concavity, so the entry takes tau_hi if that is above
    1 and keeps tau = 1 otherwise, and evaluates no objective.

    On a negative slope the argmax lies in a bracket read off bounds on
    each term of g, with S = max_k (s_k + q_k): a term is at least
    s_k n0 / (tau S + n0)^2, so g >= 0 up to
    tau_lo = (sqrt(n0 sum_k s_k / (ridge psum)) - n0) / S, and at most
    s_k / (tau (s_k + q_k)), so g < 0 from
    tau_up = sum_k s_k / (s_k + q_k) / (ridge psum) on.  tau_lo <= 0
    means g(0) <= 0: the objective falls from tau = 0, and the entry
    keeps tau = 1.  Otherwise the upper end is hi = min(tau_hi, tau_up),
    and one tangent step from there tightens the lower end: each term of
    g is s_k n0 times two positive, falling, convex factors of tau, so g
    is convex and falling, and its tangent at hi crosses zero at or
    below the argmax.  The lower end is therefore
    lo = min(max(tau_lo, hi - g(hi) / g'(hi)), hi), both taken entry by
    entry on Python floats.  Where tau_up is tight (little interference
    and a high SINR at the argmax, as at the usual budgets) the step
    lands within rounding of the argmax, the bracket starts narrower than
    _TAU_RTOL, and the golden-section search over it returns its
    geometric midpoint without evaluating the objective.  A looser
    bracket (an interference-limited cell, a budget far above the
    efficient power) is searched to a relative width of _TAU_RTOL.  A
    bracket that rounding closed (lo = hi) takes hi.  That point
    replaces tau = 1 only if it lies farther than _TAU_RTOL from 1 and
    scores higher on the same Python-float objective, so the step never
    lowers the objective.
    The bracket needs no floor: the power may fall as far below the
    budget as the argmax does.
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
    rises = slope >= 0.0
    tau[live] = np.where(rises & (tau_hi > 1.0), tau_hi, 1.0)
    for j in np.flatnonzero(~rises).tolist():
        links = list(zip(s[:, j].tolist(), q[:, j].tolist()))
        ridge_j, psum_j = float(rg[j]), float(p[j])
        cost = ridge_j * psum_j
        total = widest = share = 0.0
        for sk, qk in links:
            total += sk
            widest = max(widest, sk + qk)
            if sk > 0.0:
                share += sk / (sk + qk)
        reach = math.sqrt(n0 * total / cost) - n0
        if not reach > 0.0:
            continue
        hi = min(float(tau_hi[j]), share / cost)
        lo, slope, curve = reach / widest, -cost, 0.0
        for sk, qk in links:
            near, far = hi * qk + n0, hi * (sk + qk) + n0
            term = sk * n0 / (near * far)
            slope += term
            curve -= term * (qk / near + (sk + qk) / far)
        if curve < 0.0:
            lo = max(lo, hi - slope / curve)
        lo = min(lo, hi)

        def gain(t: float) -> float:
            rate = 0.0
            for sk, qk in links:
                rate += math.log1p(t * sk / (t * qk + n0))
            return rate - ridge_j * t * psum_j
        best = (hi if lo >= hi else
                golden_section_max(gain, lo, hi, rel_tol=_TAU_RTOL))
        if abs(best - 1.0) > _TAU_RTOL and gain(best) > gain(1.0):
            tau[live[j]] = best
    return tau


def _stats(h: np.ndarray, b: np.ndarray):
    """Link statistics of each entry's beamformers (see link_gains) and
    their sum power."""
    return (*link_gains(h, b), (np.abs(b) ** 2).sum(axis=(-2, -1)))


@dataclass
class _Descent:
    """Outcome of :func:`_descend`, one array over the entries per field:
    the last iterate b (E, N, M), its sum rate, its link statistics and
    sum power as _stats gives them, the beam steps and convergence flag.
    log holds the objective after every iteration as (entries, values)
    pairs in the order they were taken; _by_entry orders it."""

    b: np.ndarray
    rate: np.ndarray
    stats: tuple[np.ndarray, ...]
    steps: np.ndarray
    converged: np.ndarray
    log: list[tuple[np.ndarray, np.ndarray]]


def _by_entry(log: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The values of a log of (entries, values) pairs, entry by entry,
    each entry's in the order they were logged."""
    if not log:
        return np.empty(0)
    at, values = (np.concatenate(part) for part in zip(*log))
    return values[np.argsort(at, kind="stable")]


def _row_space(h: np.ndarray):
    """The channels a solve of the stack h (E, N, M) descends on, the
    projection of a start given on h onto them, and the lift of its
    result back.

    A wide cell (M > N) descends in its channels' row space: with the QR
    factorization h^T = q r, coefficients c on the N x N effective
    channels r^T see the link gains and spend the power of the
    beamformers c q^T.  A component no channel sees changes no link gain
    and only spends power, so a start b on h is projected, b conj(q),
    which drops only that part, and the lift is c -> c q^T.  A start
    built on r^T itself, as both solvers build theirs (see _served_cell),
    needs no projection.  A cell with N >= M has nothing to drop and
    descends as given, with no factorization.
    """
    if h.shape[-1] <= h.shape[-2]:
        return h, (lambda b: b), (lambda c: c)
    q, r = np.linalg.qr(np.swapaxes(h, -1, -2))
    qt = np.swapaxes(q, -1, -2)
    return (np.ascontiguousarray(np.swapaxes(r, -1, -2)),
            lambda b: b @ q.conj(), lambda c: c @ qt)


def _served_cell(h: np.ndarray, cfg: SystemConfig, p):
    """The K x K cell, K = min(N, M), that a solve of the stack h
    (E, N, M) at the powers p (E,) descends on from its built start: its
    channels, the start's RZF loading and per-user amplitude sqrt(p / K),
    and the lift of a result back to (E, N, M).

    A square cell is h itself.  A wide cell is its effective channels
    r^T (see _row_space).  An overloaded cell is the M rows served_users
    picks, lifted into zero beamformers for the other users, who stay
    unserved.  The loading is a K-user cell's times M / K: rzf loads by
    the width of the channels it is given, so the start on r^T is the
    full channels' start times conj(q).
    """
    n, m = h.shape[-2:]
    k = min(n, m)
    if n > m:
        cell, shape = replace(cfg, N=m), h.shape
        rows = np.arange(len(h))[:, None], served_users(h)
        h = h[rows]

        def lift(c):
            b = np.zeros(shape, dtype=complex)
            b[rows] = c
            return b
    else:
        cell = cfg
        h, _, lift = _row_space(h)
    alpha = mmse_loading_alpha(cell, p) * (cfg.M / k)
    return h, alpha, np.sqrt(np.asarray(p) / k)[:, None, None], lift


def _scale(h: np.ndarray, n0: float, budget: np.ndarray,
           ridge: np.ndarray, pos: np.ndarray, b: np.ndarray, stats):
    """The power-scale step (see _rescale) of the entries pos of a stack
    with channels h, iterate b and its statistics stats = _stats(h, b),
    written into b and stats in place: an entry that moves is scaled and
    takes its statistics afresh, and one that keeps tau = 1 is left as
    it was."""
    d, sig, inter, psum = stats
    tau = _rescale(sig[pos].T, inter[pos].T, psum[pos], n0, budget[pos],
                   ridge[pos])
    moved = tau != 1.0
    pos = pos[moved]
    if pos.size:
        b[pos] *= np.sqrt(tau[moved])[:, None, None]
        d[pos], sig[pos], inter[pos], psum[pos] = _stats(h[pos], b[pos])


def _descend(h: np.ndarray, n0: float, budget: np.ndarray,
             ridge: np.ndarray, b: np.ndarray, stats) -> _Descent:
    """Block descent of a stack of entries, channels h (E, N, M) from the
    beamformers b (E, N, M) with their statistics stats = _stats(h, b),
    each under its own budget and ridge (E,).

    ridge = lambda * xi regularizes the beamformer step for the
    fractional inner problems, and a positive ridge adds a power-scale
    step before the first beam step and after each one; ridge = 0 gives
    plain sum-rate maximization.  The scale step maximizes exactly over
    the power at fixed ridge, so the opening one sets the power that
    beam steps alone move only slowly, and a second one before a beam
    step would change nothing.  An entry's descent stops when its
    objective (sum rate minus ridge times sum power) changes by at most
    _TOL relative, or after _MAX_ITER beam steps; the first objective is
    the scaled start's.

    The opening step's slope (see _rescale) multiplies
    (tau_hi q_k + n0)(tau_hi (s_k + q_k) + n0) at the budget's scale
    tau_hi.  For a start on its budget (tau_hi = 1) each product is at
    most (s_k + q_k + n0)^2, and for an iterate a scale step left they
    are the products that step formed.  An entry where that square
    leaves the float range skips the opening step and descends from the
    start as given.  The caller's b and stats are not written to.

    The state of the entries still stepping (previous objective, ridge,
    step count) is kept in arrays, and each beam step does its
    bookkeeping in array passes over them: the stop test, the cap and
    the removal of the finished entries from the stack, state and all.
    Each pass applies the float operations a scalar loop over the
    entries would, so an entry gets the same bits.  The previous
    objective starts as NaN, which no stop test passes.

    Each iterate takes its link statistics once: a power-scale step
    that keeps tau = 1 leaves them as the beam step's output had them,
    and the last iterate's come back with it, so a descent continued
    from there takes none afresh.
    Every iterate is a C-ordered array, the start included, and each
    beam step runs every entry at full width with a masked tail (see
    _beam_step), so an entry's bits do not depend on the stack it
    shares.
    """
    count = len(budget)
    at = np.arange(count)               # the entry at each stack position
    prev = np.full(count, np.nan)
    steps = np.zeros(count, dtype=int)
    rate_out = np.empty(count)
    stats_out = tuple(np.empty(a.shape, a.dtype) for a in stats)
    steps_out, conv_out = np.empty(count, dtype=int), np.empty(count, bool)
    log = []
    last_b = np.empty(b.shape, dtype=complex)
    d, sig, inter, psum = stats
    # s_k + q_k + n0 <= _SQRT_MAX, in a form that cannot overflow.
    inside = (sig <= _SQRT_MAX - n0 - inter).all(axis=-1)
    pos = np.flatnonzero((ridge > 0.0) & inside)
    if pos.size:
        b, stats = b.copy(), tuple(a.copy() for a in stats)
        _scale(h, n0, budget, ridge, pos, b, stats)
        d, sig, inter, psum = stats
    while at.size:
        e = inter + n0
        sinr = sig / e
        rate = np.log1p(sinr).sum(axis=-1)
        obj = rate - ridge * psum
        log.append((at, obj))
        converged = np.abs(obj - prev) <= _TOL * np.maximum(1.0, np.abs(obj))
        prev = obj
        stop = converged | ~(steps < _MAX_ITER)
        if stop.any():
            done = at[stop]
            last_b[done], rate_out[done] = b[stop], rate[stop]
            for out, a in zip(stats_out, (d, sig, inter, psum)):
                out[done] = a[stop]
            steps_out[done], conv_out[done] = steps[stop], converged[stop]
            if stop.all():
                break
            go = ~stop
            at, budget, ridge, prev, steps, h, d, sig, e, sinr = (
                a[go] for a in (at, budget, ridge, prev, steps, h, d, sig, e,
                                sinr))
        del b                           # before the step allocates the next
        b = _beam_step(h, d / (e + sig), 1.0 + sinr, budget, ridge)
        d, sig, inter, psum = _stats(h, b)
        steps += 1
        pos = np.flatnonzero(ridge > 0.0)
        if pos.size:
            _scale(h, n0, budget, ridge, pos, b, (d, sig, inter, psum))
    return _Descent(b=last_b, rate=rate_out, stats=stats_out, steps=steps_out,
                    converged=conv_out, log=log)


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
    h, project, lift = _row_space(h)
    c = project(np.ascontiguousarray(init, dtype=complex))
    run = _descend(h, pm.n0, budget, np.zeros(budget.size), c, _stats(h, c))
    return WmmseResult(
        b=lift(run.b), state=WmmseState(iteration=int(run.steps.sum())),
        converged=bool(run.converged.all()), sum_rate=run.rate,
        p_sum=run.stats[-1], objective_history=_by_entry(run.log))


def dinkelbach_ee(h: np.ndarray, cfg: SystemConfig,
                  p_budget) -> DinkelbachResult:
    """Energy-efficiency maximization by Dinkelbach's parametric method,
    for a stack of channels h (E, N, M) under the budgets p_budget (E,).

    The first descent starts from equal-power RZF beamformers at the
    full budget on the served cell (see _served_cell), and every descent
    runs there; only the returned beamformers are lifted back.  A
    maximum-ratio start can strand the whole continuation in a basin
    where a strongly correlated user is abandoned.

    Every entry starts at lam = the efficiency of its start, Dinkelbach's
    own start from a feasible point: the first descent then begins at
    F(lam) = 0 and can only raise it.  Each outer step runs one block
    descent over the entries still open, maximizing sum rate minus lam
    times consumed power (lam xi folded into the beamformer regularizer)
    from their last beamformers, so the lam sequence is nondecreasing,
    and takes those beamformers' link statistics from the last descent.
    It takes F(lam) = rate - lam * consumed power and then lam = rate /
    consumed power, the achieved efficiency.  An entry finishes once
    |F(lam)| <= _DELTA, or unconverged after _MAX_OUTER outer steps; its
    lambda_star is the efficiency of its last beamformers.
    """
    budget = _budgets(h, p_budget)
    pm = derive_power_model(cfg)
    h, alpha, amp, lift = _served_cell(h, cfg, budget)
    c = rzf(h, alpha) * amp
    at = np.arange(budget.size)         # the entry at each stack position
    c_out, lam_out = np.empty(c.shape, dtype=complex), np.empty(budget.size)
    conv_out = np.zeros(budget.size, dtype=bool)
    lam_log, f_log = [], []
    stats = _stats(h, c)
    _, sig, inter, psum = stats
    lam = (np.log1p(sig / (inter + pm.n0)).sum(axis=-1)
           / total_power(psum, pm, cfg.xi))
    for _ in range(_MAX_OUTER):
        run = _descend(h, pm.n0, budget, lam * cfg.xi, c, stats)
        consumed = total_power(run.stats[-1], pm, cfg.xi)
        f = run.rate - lam * consumed
        lam_log.append((at, lam))
        f_log.append((at, f))
        lam, c, stats = run.rate / consumed, run.b, run.stats
        done = np.abs(f) <= _DELTA
        c_out[at], lam_out[at], conv_out[at] = c, lam, done
        go = ~done
        if not go.any():
            break
        at, h, budget, lam, c, *stats = (
            a[go] for a in (at, h, budget, lam, c, *stats))
    return DinkelbachResult(
        b=lift(c_out), lambda_star=lam_out, converged=bool(conv_out.all()),
        lambda_history=_by_entry(lam_log), f_history=_by_entry(f_log))
