"""System configuration and the power / energy-efficiency arithmetic.

A cell is one :class:`SystemConfig`, the band's calibration factor beta
included, and a config file is that object as flat JSON (:func:`load_config`).

Unit conventions, used everywhere in this package:

* transmit and circuit powers are carried as spectral densities in W/Hz
  (total watts divided by the bandwidth W), so the symbol-time and
  bandwidth normalizations cancel out of every efficiency ratio;
* rates are in nat/s/Hz (natural logarithm);
* energy efficiency is their ratio, nat/J (the CLI can rescale to bits).

Config files and CLI flags speak dBm and Hz; the conversion into densities
happens exactly once, in :func:`derive_power_model`.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path


def dbm_to_watt(dbm: float) -> float:
    """Convert a dBm figure to watts; inf past the float range."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def watt_to_dbm(watt: float) -> float:
    """Convert watts to dBm. Requires a strictly positive argument."""
    if watt <= 0.0:
        raise ValueError(f"cannot express {watt} W in dBm")
    return 10.0 * math.log10(watt) + 30.0


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one downlink cell.

    M / N are transmit antenna and single-antenna user counts.  W is the
    bandwidth in Hz and T the transmission interval in seconds; both are
    kept only for bookkeeping because every internal quantity is already
    normalized per second and per Hz.  Powers are dBm figures over the
    whole band: Pc_prime_dbm is the per-antenna circuit power and
    Po_prime_dbm the static overhead.  xi >= 1 is the amplifier
    inefficiency multiplying the radiated power.  beta > 0 is the safety
    factor on the RZF peak efficiency that places the operating power
    inside the saturation band.
    """

    M: int
    N: int
    W: float = 20e6
    T: float = 1e-3
    noise_psd_dbm_per_hz: float = -174.0
    noise_figure_db: float = 7.0
    xi: float = 1.0
    Pc_prime_dbm: float = 30.0
    Po_prime_dbm: float = 40.0
    beta: float = 1.3

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subtype, so a JSON true would pass as 1.
            kind = int if f.name in ("M", "N") else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is int else "a number"
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.M < 1 or self.N < 1:
            raise ValueError(f"need M >= 1 and N >= 1, got M={self.M}, N={self.N}")
        if not self.W > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.W}")
        if not self.T > 0.0:
            raise ValueError(f"transmission interval must be positive, got {self.T}")
        if not self.xi >= 1.0:
            raise ValueError(f"amplifier inefficiency must be >= 1, got {self.xi}")
        if self.noise_figure_db < 0.0:
            raise ValueError("noise figure cannot be negative")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        # Finite dBm figures can still leave the float range as densities.
        pm = derive_power_model(self)
        for names, value, positive in (
                ("noise_psd_dbm_per_hz, noise_figure_db", pm.n0, True),
                ("Pc_prime_dbm, W", pm.Pc, False),
                ("Po_prime_dbm, W", pm.Po, False),
                ("M, Pc_prime_dbm, Po_prime_dbm", pm.Pconst, True)):
            if not (math.isfinite(value) and (value > 0.0 or not positive)):
                need = "finite and positive" if positive else "finite"
                raise ValueError(f"{names} give a power density of {value} "
                                 f"W/Hz, which must be {need}")


@dataclass(frozen=True)
class DerivedPowerModel:
    """Per-Hz power densities derived from a :class:`SystemConfig`.

    n0 is the effective noise spectral density (thermal PSD plus receiver
    noise figure), Pc the per-antenna circuit density, Po the static
    density and Pconst = M * Pc + Po the total power consumed before a
    single symbol is radiated.  All in W/Hz.
    """

    n0: float
    Pc: float
    Po: float
    Pconst: float


def derive_power_model(cfg: SystemConfig) -> DerivedPowerModel:
    """Fold dBm figures and the noise figure into W/Hz densities."""
    n0 = dbm_to_watt(cfg.noise_psd_dbm_per_hz + cfg.noise_figure_db)
    pc = dbm_to_watt(cfg.Pc_prime_dbm) / cfg.W
    po = dbm_to_watt(cfg.Po_prime_dbm) / cfg.W
    return DerivedPowerModel(n0=n0, Pc=pc, Po=po, Pconst=cfg.M * pc + po)


def total_power(p_sum: float, pm: DerivedPowerModel, xi: float):
    """Total consumed power density xi * p_sum + Pconst, in W/Hz.

    p_sum is the radiated sum power density; accepts arrays transparently.
    """
    return xi * p_sum + pm.Pconst


def transmit_power_from_dbm(dbm: float, cfg: SystemConfig) -> float:
    """Map a dBm transmit budget over the whole band to a W/Hz density."""
    return dbm_to_watt(dbm) / cfg.W


def transmit_power_to_dbm(p: float, cfg: SystemConfig) -> float:
    """Inverse of :func:`transmit_power_from_dbm`."""
    return watt_to_dbm(p * cfg.W)


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


_CONFIG_FIELDS = {f.name for f in fields(SystemConfig)}


def load_config(path: str | Path) -> SystemConfig:
    """Read a flat JSON config file into a :class:`SystemConfig`.

    Keys are the dataclass fields; unknown keys are an error so typos
    never pass silently.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
    if "M" not in raw or "N" not in raw:
        raise ValueError(f"config file {path} must set M and N")
    try:
        return SystemConfig(**raw)
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
