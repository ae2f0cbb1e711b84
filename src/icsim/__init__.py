"""Desk-scale simulator of an underwater inductive-coupling power-carrier
telemetry link: frame codec, DPSK modem, coupled channel with receive front
end, master/slave polling protocol and power/energy accounting."""

from .frame_codec import Address, CodecError, ErrorKind, Frame, address_matches, compute_checks, decode_frame, encode_frame
from .modem import ModemConfig, bytes_to_bits, bits_to_bytes, demodulate, ebn0_to_noise_sigma, modulate, theoretical_dpsk_ber
from .channel import ChannelConfig, FrontEndConfig, condition, coupling_gain, propagate, superpose
from .power import PowerMode, UnitBudget, charge_consumed, standby_current
from .nodes import MasterState, SlaveState, encode_temperature, master_step, slave_step
from .harness import Report, Scenario, SlaveSpec, emit_report, measure_ber, run_scenario
from .scenarios import load_scenario, multi_point_scenario, scenario_from_dict, single_point_scenario

__version__ = "0.1.0"
