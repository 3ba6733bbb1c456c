"""Linear beamforming, per-user SINR and instantaneous efficiency.

A beamformer matrix b is (N, M): row k is user k's beamformer and
|b_k|^2 the power density in W/Hz radiated for that user.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelRealization
from .sysmodel import SystemConfig, derive_power_model, total_power


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


def link_gains(h: np.ndarray, b: np.ndarray):
    """Per-user link statistics of the beamformers b on the channels h:
    d_k = h_k^H b_k, the signal power |d_k|^2 and the interference power
    sum over j != k of |h_k^H b_j|^2.

    The interference power is summed over the off-diagonal entries
    directly.  Subtracting the signal term from a full row sum would
    cancel catastrophically near zero-forcing points, where the leakage
    sits ten or more orders below the signal.
    """
    cross = h.conj() @ b.T                    # [k, j] = h_k^H b_j
    d = np.diagonal(cross).copy()
    gains = np.abs(cross) ** 2
    sig = np.diagonal(gains).copy()
    np.fill_diagonal(gains, 0.0)
    return d, sig, np.sum(gains, axis=1)


def sinr(ch: ChannelRealization, b: np.ndarray, n0: float) -> np.ndarray:
    """Per-user SINR under the beamformer matrix b."""
    _, sig, inter = link_gains(ch.h, b)
    return sig / (inter + n0)


def sum_rate(sinrs: np.ndarray) -> float:
    """Sum of log(1 + SINR_k), nat/s/Hz."""
    return float(np.sum(np.log1p(sinrs)))


def instantaneous_ee(ch: ChannelRealization, b: np.ndarray,
                     cfg: SystemConfig) -> float:
    """Sum rate over total consumed power for one realization."""
    pm = derive_power_model(cfg)
    rate = sum_rate(sinr(ch, b, pm.n0))
    consumed = total_power(float(np.sum(np.abs(b) ** 2)), pm, cfg.xi)
    return rate / consumed
