"""Saturation-power energy-efficiency maximization for the MU-MISO downlink."""

from .asympt import (DetEquivParams, det_equiv_rzf, ee_lower_bound,
                     ee_rzf_asymptotic, ee_upper_bound, rate_lower_bound,
                     rate_upper_bound, sinr_mrt_asymptotic,
                     sinr_rzf_asymptotic)
from .beamform import (instantaneous_ee, mmse_loading_alpha, mrt, rzf, sinr,
                       sum_rate)
from .channel import ChannelRealization, generate
from .errors import NumericalError
from .optim import (DinkelbachResult, WmmseResult, dinkelbach_ee, wmmse)
from .satpower import (SaturationBand, compute_band, interpolate, p_ee_toy,
                       p_lb, p_rzf, p_ub, proposed_scheme, toy_ee, toy_rate)
from .specfun import lambert_w0
from .sysmodel import (DerivedPowerModel, SystemConfig, dbm_to_watt,
                       derive_power_model, load_config, normalized_config,
                       total_power, transmit_power_from_dbm,
                       transmit_power_to_dbm, watt_to_dbm)

__version__ = "0.1.0"
