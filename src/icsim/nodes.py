"""Protocol state machines for the surface controller and underwater nodes.

Both machines are pure value transformers: ``step`` takes a state and an
event and returns the successor state plus a list of actions for the
simulation harness to execute (power transitions, frame transmissions,
reports).  A sleeping node whose address does not match an incoming frame
stays exactly where it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .frame_codec import Address, Frame, address_matches
from .modem import frame_airtime_s
from .power import MODE_TABLE

COMMAND_PAYLOAD = bytes([0x12, 0x34])  # data-acquisition request
FUNCTION_TEST_PAYLOAD = bytes([0x00, 0xFF])
REPLY_RELAY_DEPTH = 1


class OutOfRange(ValueError):
    pass


def encode_temperature(celsius: float) -> tuple[int, int]:
    """(integer part, first decimal digit) as two binary octets."""
    if not 0.0 <= celsius < 100.0:
        raise OutOfRange(f"temperature {celsius} outside [0, 100)")
    tenths = round(celsius * 10)
    return tenths // 10, tenths % 10


# --- actions emitted toward the harness -------------------------------------

@dataclass(frozen=True)
class SetPowerMode:
    mode: str
    latency_s: float


@dataclass(frozen=True)
class TransmitFrame:
    frame: Frame


@dataclass(frozen=True)
class StartTimer:
    timeout_s: float


@dataclass(frozen=True)
class Report:
    target: Address
    payload: Optional[bytes]  # None marks a timeout


@dataclass(frozen=True)
class Log:
    message: str


Action = Union[SetPowerMode, TransmitFrame, StartTimer, Report, Log]


# --- events -----------------------------------------------------------------

@dataclass(frozen=True)
class FrameReceived:
    frame: Frame


@dataclass(frozen=True)
class TxDone:
    pass


@dataclass(frozen=True)
class PollRequest:
    target: Address


@dataclass(frozen=True)
class Timeout:
    pass


# --- slave ------------------------------------------------------------------

@dataclass(frozen=True)
class SlaveState:
    address: Address
    phase: str = "STANDBY"  # STANDBY (asleep in STOP1) | TRANSMIT (in RUN)
    mode: str = "function_test"  # function_test | sensor
    temperature_c: float = 20.0


def slave_reply_payload(state: SlaveState) -> bytes:
    if state.mode == "function_test":
        return FUNCTION_TEST_PAYLOAD
    return bytes(encode_temperature(state.temperature_c))


def slave_step(state: SlaveState, event) -> tuple[SlaveState, list[Action]]:
    """Advance a slave by one event.

    A matching command while in standby runs the whole wake -> acquire ->
    transmit pipeline in one step: the harness spaces the emitted actions in
    time using the returned wake latency.
    """
    if state.phase == "STANDBY" and isinstance(event, FrameReceived):
        if not address_matches(event.frame.address, state.address):
            return state, []  # stay asleep, no power change
        reply = Frame(REPLY_RELAY_DEPTH, state.address, slave_reply_payload(state))
        wake = SetPowerMode("RUN", MODE_TABLE["STOP1"].wakeup_time_s)
        return replace(state, phase="TRANSMIT"), [wake, TransmitFrame(reply)]
    if state.phase == "TRANSMIT" and isinstance(event, TxDone):
        return replace(state, phase="STANDBY"), [SetPowerMode("STOP1", 0.0)]
    return state, [Log(f"slave ignored {type(event).__name__} in {state.phase}")]


# --- master -----------------------------------------------------------------

@dataclass(frozen=True)
class MasterState:
    phase: str = "IDLE"  # IDLE | AWAIT_REPLY
    pending_target: Optional[Address] = None
    timeout_s: float = 0.1

    def __post_init__(self):
        if self.phase == "AWAIT_REPLY" and self.pending_target is None:
            raise ValueError("AWAIT_REPLY requires a pending target")


def master_step(state: MasterState, event) -> tuple[MasterState, list[Action]]:
    if isinstance(event, PollRequest):
        if state.phase != "IDLE":
            return state, [Log("poll refused: command already outstanding")]
        cmd = Frame(REPLY_RELAY_DEPTH, event.target, COMMAND_PAYLOAD)
        next_state = replace(state, phase="AWAIT_REPLY", pending_target=event.target)
        return next_state, [TransmitFrame(cmd), StartTimer(state.timeout_s)]
    if state.phase == "AWAIT_REPLY" and isinstance(event, FrameReceived):
        if not address_matches(event.frame.address, state.pending_target):
            return state, []  # someone else's reply; timer keeps running
        report = Report(state.pending_target, event.frame.payload)
        return replace(state, phase="IDLE", pending_target=None), [report]
    if state.phase == "AWAIT_REPLY" and isinstance(event, Timeout):
        report = Report(state.pending_target, None)
        return replace(state, phase="IDLE", pending_target=None), [report]
    if isinstance(event, TxDone):
        return state, []
    return state, [Log(f"master ignored {type(event).__name__} in {state.phase}")]


def default_master_timeout_s(cmd_bytes: int, reply_bytes: int, modem_cfg) -> float:
    """Twice the command airtime + wake latency + reply airtime."""
    wake = MODE_TABLE["STOP1"].wakeup_time_s
    return 2.0 * (frame_airtime_s(cmd_bytes, modem_cfg) + wake
                  + frame_airtime_s(reply_bytes, modem_cfg))
