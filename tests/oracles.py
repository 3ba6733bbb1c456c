"""Reference computations the tests check the package against.

None of these is reached by the command line, so they live beside the
tests rather than in the package.
"""
import numpy as np

from saturee import beamform, channel
from saturee.asympt import DetEquivParams, sinr_mrt_asymptotic
from saturee.sysmodel import SystemConfig, derive_power_model, total_power


def energy_efficiency(sum_rate: float, consumed: float):
    """Rate over consumed power; nat/J for per-Hz inputs."""
    return sum_rate / consumed


def ee_mrt_asymptotic(p, cfg: SystemConfig):
    """Efficiency along the asymptotic MRT rate curve."""
    pm = derive_power_model(cfg)
    rate = cfg.N * np.log1p(sinr_mrt_asymptotic(p, cfg, pm.n0))
    return rate / total_power(p, pm, cfg.xi)


def det_equiv_rzf_empirical(cfg: SystemConfig, alpha: float, size: int = 256,
                            seed: int = 0) -> DetEquivParams:
    """Estimate the RZF deterministic-equivalent constants from one large
    channel realization.

    Keeps the user-to-antenna ratio of cfg but blows the dimensions up to
    `size` antennas; measures the resolvent trace, the mean signal gain
    and the mean interference gain of actual RZF directions, then inverts
    the limiting relations.  Serves as the independent check on
    :func:`saturee.asympt.det_equiv_rzf`.
    """
    if not alpha > 0.0:
        raise ValueError(f"loading must be positive, got {alpha}")
    mb = size
    nb = max(1, round(size * cfg.N / cfg.M))
    ratio = nb / mb
    h = channel._draw(mb, nb, seed, 0)
    big = channel.ChannelRealization(h=h, seed=seed, trial_index=0)

    resolvent = np.linalg.inv(h.T @ h.conj() / mb + alpha * np.eye(mb))
    m_hat = float(np.trace(resolvent).real) / mb

    dirs = beamform.rzf(big, alpha)
    gains = np.abs(h.conj() @ dirs.T) ** 2
    sig = float(np.mean(np.diagonal(gains)))
    interf = float(np.mean(np.sum(gains, axis=1) - np.diagonal(gains)))

    m2_hat = mb * m_hat * m_hat / sig
    gamma_hat = interf * m_hat * m_hat / sig
    psi_hat = ratio * m2_hat / (1.0 + m_hat) ** 2
    return DetEquivParams(m0=m_hat, gamma0=gamma_hat, psi0=psi_hat,
                          alpha=alpha, ratio=ratio)
