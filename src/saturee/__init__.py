"""Saturation-power energy-efficiency maximization for the MU-MISO downlink."""

__version__ = "0.1.0"
