"""Linear beamforming, per-user SINR and instantaneous efficiency."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .sysmodel import SystemConfig, derive_power_model, total_power


@dataclass(frozen=True, eq=False)
class BeamformingSolution:
    """Unit-norm directions v (N, M) plus per-user powers p (N,) in W/Hz."""

    v: np.ndarray
    p: np.ndarray


def mrt(ch: ChannelRealization) -> np.ndarray:
    """Maximum ratio directions, v_k = h_k / ||h_k||."""
    norms = np.linalg.norm(ch.h, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate channel: some user has a zero vector")
    return ch.h / norms[:, None]


def rzf(ch: ChannelRealization, alpha: float) -> np.ndarray:
    """Regularized zero-forcing directions, alpha > 0 the loading factor.

    Row k of H (N, M) is user k's channel and v_k the normalized column k
    of (H^T H* + M alpha I_M)^-1 H^T = H^T (H* H^T + M alpha I_N)^-1 (the
    push-through identity), so the rows of V solve the N x N user-dimension
    system (H H^H + M alpha I_N) V = H instead of an M x M one.
    """
    if not alpha > 0.0:
        raise ValueError(f"rzf loading must be positive, got {alpha}")
    h = ch.h
    n, m = h.shape
    gram = h @ h.conj().T                     # [k, j] = h_k^T h_j^*, (N, N)
    dirs = np.linalg.solve(gram + (m * alpha) * np.eye(n), h)
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("degenerate channel: regularized directions collapsed")
    return dirs / norms[:, None]


def mmse_loading_alpha(cfg: SystemConfig, p: float) -> float:
    """MMSE-style loading N / (M rho) with rho = p / n0."""
    if not p > 0.0:
        raise ValueError(f"transmit power must be positive, got {p}")
    pm = derive_power_model(cfg)
    return cfg.N * pm.n0 / (cfg.M * p)


def equal_power(n_users: int, p: float) -> np.ndarray:
    """Split a sum power budget evenly, p_k = p / N."""
    if p < 0.0:
        raise ValueError(f"power budget cannot be negative, got {p}")
    return np.full(n_users, p / n_users)


def sinr(ch: ChannelRealization, sol: BeamformingSolution, n0: float) -> np.ndarray:
    """Per-user SINR under the given directions and powers."""
    cross = ch.h.conj() @ sol.v.T             # [k, j] = h_k^H v_j
    gains = np.abs(cross) ** 2
    signal = np.diagonal(gains) * sol.p
    # Sum the interference off-diagonals directly; subtracting the signal
    # from a full row sum would cancel catastrophically once the leakage
    # sits many orders below the signal.
    leak = gains.copy()
    np.fill_diagonal(leak, 0.0)
    interference = leak @ sol.p
    return signal / (interference + n0)


def sum_rate(sinrs: np.ndarray) -> float:
    """Sum of log(1 + SINR_k), nat/s/Hz."""
    return float(np.sum(np.log1p(sinrs)))


def instantaneous_ee(ch: ChannelRealization, sol: BeamformingSolution,
                     cfg: SystemConfig) -> float:
    """Sum rate over total consumed power for one realization."""
    pm = derive_power_model(cfg)
    rate = sum_rate(sinr(ch, sol, pm.n0))
    consumed = total_power(float(np.sum(sol.p)), pm, cfg.xi)
    return rate / consumed
