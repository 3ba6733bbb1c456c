"""Linear beamforming, per-user SINR and sum rate.

The channel h and a beamformer matrix b are both (N, M): row k of h is
user k's channel, row k of b user k's beamformer and |b_k|^2 the power
density in W/Hz radiated for that user.  Every function also takes
stacks of them, with leading axes in front of (N, M), and treats each
matrix of a stack exactly as it treats a single one, to the last bit.
"""
from __future__ import annotations

import numpy as np

from .sysmodel import SystemConfig, derive_power_model


def mrt(h: np.ndarray) -> np.ndarray:
    """Maximum ratio directions, v_k = h_k / ||h_k||."""
    norms = np.linalg.norm(h, axis=-1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate channel: some user has a zero vector")
    return h / norms[..., None]


def rzf(h: np.ndarray, alpha) -> np.ndarray:
    """Regularized zero-forcing directions, alpha > 0 the loading factor:
    one float, or one per matrix of a stack h.

    Row k of H (N, M) is user k's channel and v_k the normalized column k
    of (H^T H* + M alpha I_M)^-1 H^T = H^T (H* H^T + M alpha I_N)^-1 (the
    push-through identity), so the rows of V solve the N x N user-dimension
    system (H H^H + M alpha I_N) V = H instead of an M x M one.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(alpha > 0.0):
        raise ValueError(f"rzf loading must be positive, got {alpha}")
    n, m = h.shape[-2:]
    gram = h @ np.swapaxes(h.conj(), -1, -2)  # [k, j] = h_k^T h_j^*, (N, N)
    diag = np.arange(n)
    gram[..., diag, diag] += (m * alpha)[..., None]
    dirs = np.linalg.solve(gram, h)
    norms = np.linalg.norm(dirs, axis=-1)
    if not norms.all():
        raise ValueError("degenerate channel: regularized directions collapsed")
    return dirs / norms[..., None]


def served_users(h: np.ndarray) -> np.ndarray:
    """The users each channel matrix of h (N, M) serves: K = min(N, M) of
    them, as increasing indices (K,), or (..., K) for a stack.

    With N <= M that is every user.  Otherwise the users are picked
    greedily (Yoo and Goldsmith's semi-orthogonal selection, IEEE JSAC
    24(3), 2006): each pick is the user whose channel has the largest
    part orthogonal to the channels already picked, ties going to the
    lowest index.  Those parts are kept by deflating every channel along
    each pick's part in turn.
    """
    n, m = h.shape[-2:]
    if n <= m:
        return np.broadcast_to(np.arange(n), (*h.shape[:-2], n)).copy()
    rest = np.array(h, dtype=complex).reshape(-1, n, m)
    at = np.arange(len(rest))[:, None]
    picks = np.empty((len(rest), 0), dtype=int)
    for _ in range(m):
        size = (rest.real ** 2 + rest.imag ** 2).sum(axis=-1)
        size[at, picks] = -1.0
        pick = np.argmax(size, axis=-1)[:, None]       # first of equals
        picks = np.concatenate((picks, pick), axis=-1)
        # A pick with no part left (rank below M) deflates nothing.
        norm = np.sqrt(size[at, pick])[..., None]
        q = rest[at, pick] / np.where(norm > 0.0, norm, 1.0)
        rest -= (rest @ np.swapaxes(q.conj(), -1, -2)) * q
    return np.sort(picks, axis=-1).reshape(*h.shape[:-2], m)


def mmse_loading_alpha(cfg: SystemConfig, p):
    """MMSE-style loading N / (M rho) with rho = p / n0, for one power or
    an array of them."""
    if not np.all(np.greater(p, 0.0)):
        raise ValueError(f"transmit power must be positive, got {p}")
    pm = derive_power_model(cfg)
    return cfg.N * pm.n0 / (cfg.M * p)


def link_gains(h: np.ndarray, b: np.ndarray):
    """Per-user link statistics of the beamformers b on the channels h:
    d_k = h_k^H b_k, the signal power |d_k|^2 and the interference power
    sum over j != k of |h_k^H b_j|^2.

    The interference power is summed over the off-diagonal entries
    directly.  Subtracting the signal term from a full row sum would
    cancel catastrophically near zero-forcing points, where the leakage
    sits ten or more orders below the signal.
    """
    cross = h.conj() @ np.swapaxes(b, -1, -2)  # [k, j] = h_k^H b_j
    d = np.diagonal(cross, axis1=-2, axis2=-1).copy()
    gains = np.abs(cross) ** 2
    sig = np.diagonal(gains, axis1=-2, axis2=-1).copy()
    diag = np.arange(gains.shape[-1])
    gains[..., diag, diag] = 0.0
    return d, sig, gains.sum(axis=-1)


def sinr(h: np.ndarray, b: np.ndarray, n0: float) -> np.ndarray:
    """Per-user SINR under the beamformer matrix b."""
    _, sig, inter = link_gains(h, b)
    return sig / (inter + n0)


def sum_rate(sinrs: np.ndarray) -> np.ndarray:
    """Sum of log(1 + SINR_k) over the users' (last) axis, nat/s/Hz."""
    return np.log1p(sinrs).sum(axis=-1)

