"""Protocol state machines for the surface controller and underwater nodes.

Both machines are pure value transformers: ``step`` takes a state and an
event and returns the successor state plus a list of actions for the
simulation harness to execute (power transitions, frame transmissions,
reports).  ``accepts`` decides which frames a node takes: a sleeping node
whose address does not match an incoming frame stays exactly where it is.
The machines decide every timer and frame end too: the master ignores a
timeout of a poll already answered, and a slave leaves TRANSMIT only when
its reply ends, not when a frame injected into it does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .frame_codec import ADDRESS_LEN, HEADER_LEN, TRAILER_LEN, Address, Frame, address_matches
from .modem import frame_airtime_s
from .power import MODE_TABLE

COMMAND_PAYLOAD = bytes([0x12, 0x34])  # data-acquisition request
FUNCTION_TEST_PAYLOAD = bytes([0x00, 0xFF])
REPLY_RELAY_DEPTH = 1
# Bytes in every frame sent: commands and replies both carry two payload bytes.
FRAME_LEN = HEADER_LEN + len(COMMAND_PAYLOAD) + TRAILER_LEN


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
    injected: bool = False  # sent for an Inject, not as the node's protocol step


@dataclass(frozen=True)
class StartTimer:
    timeout_s: float
    poll: int  # the poll it times


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
    injected: bool = False  # the ended frame's TransmitFrame.injected


@dataclass(frozen=True)
class PollRequest:
    target: Address


@dataclass(frozen=True)
class Timeout:
    poll: int  # its StartTimer's poll


@dataclass(frozen=True)
class Inject:
    """Transmit the node's own frame now, whatever its phase."""


# --- slave ------------------------------------------------------------------

@dataclass(frozen=True)
class SlaveState:
    address: Address
    phase: str = "STANDBY"  # STANDBY (asleep in STOP1) | TRANSMIT (in RUN)
    mode: str = "function_test"  # function_test | sensor
    temperature_c: float = 20.0


def slave_reply_frame(state: SlaveState) -> Frame:
    if state.mode == "function_test":
        return Frame(REPLY_RELAY_DEPTH, state.address, FUNCTION_TEST_PAYLOAD)
    return Frame(REPLY_RELAY_DEPTH, state.address, bytes(encode_temperature(state.temperature_c)))


def slave_step(state: SlaveState, event) -> tuple[SlaveState, list[Action]]:
    """Advance a slave by one event.

    A matching command while in standby runs the whole wake -> acquire ->
    transmit pipeline in one step: the harness runs the actions after the
    wake once the node is in RUN, the returned wake latency later.
    """
    if isinstance(event, Inject):
        return state, [TransmitFrame(slave_reply_frame(state), injected=True)]
    if state.phase == "STANDBY" and isinstance(event, FrameReceived):
        if not accepts(state, event.frame):
            return state, []  # stay asleep, no power change
        wake = SetPowerMode("RUN", MODE_TABLE["STOP1"].wakeup_time_s)
        return replace(state, phase="TRANSMIT"), [wake, TransmitFrame(slave_reply_frame(state))]
    if state.phase == "TRANSMIT" and isinstance(event, TxDone) and not event.injected:
        return replace(state, phase="STANDBY"), [SetPowerMode("STOP1", 0.0)]
    return state, [Log(f"slave ignored {type(event).__name__} in {state.phase}")]


# --- master -----------------------------------------------------------------

@dataclass(frozen=True)
class MasterState:
    phase: str = "IDLE"  # IDLE | AWAIT_REPLY
    pending_target: Optional[Address] = None
    timeout_s: float = 0.1
    polls: int = 0  # polls sent; the last one is pending in AWAIT_REPLY

    def __post_init__(self):
        if self.phase == "AWAIT_REPLY" and self.pending_target is None:
            raise ValueError("AWAIT_REPLY requires a pending target")


def master_step(state: MasterState, event) -> tuple[MasterState, list[Action]]:
    if isinstance(event, Inject):  # a command to the all-zero address
        return state, [TransmitFrame(Frame(REPLY_RELAY_DEPTH, Address(bytes(ADDRESS_LEN)),
                                           COMMAND_PAYLOAD), injected=True)]
    if isinstance(event, PollRequest):
        if state.phase != "IDLE":
            return state, [Log("poll refused: command already outstanding")]
        cmd = Frame(REPLY_RELAY_DEPTH, event.target, COMMAND_PAYLOAD)
        next_state = replace(state, phase="AWAIT_REPLY", pending_target=event.target,
                             polls=state.polls + 1)
        return next_state, [TransmitFrame(cmd), StartTimer(state.timeout_s, next_state.polls)]
    if state.phase == "AWAIT_REPLY" and isinstance(event, FrameReceived):
        if not accepts(state, event.frame):
            return state, []  # someone else's reply; timer keeps running
        report = Report(state.pending_target, event.frame.payload)
        return replace(state, phase="IDLE", pending_target=None), [report]
    if isinstance(event, Timeout):
        if state.phase != "AWAIT_REPLY" or event.poll != state.polls:
            return state, []  # the timer of a poll already answered
        report = Report(state.pending_target, None)
        return replace(state, phase="IDLE", pending_target=None), [report]
    if isinstance(event, TxDone):
        return state, []
    return state, [Log(f"master ignored {type(event).__name__} in {state.phase}")]


def accepts(state: SlaveState | MasterState, frame: Frame) -> bool:
    """A slave takes frames to its own address, the master a reply from the target it awaits."""
    if isinstance(state, MasterState):
        return state.phase == "AWAIT_REPLY" and address_matches(frame.address, state.pending_target)
    return address_matches(frame.address, state.address)


def master_timeout_s(modem_cfg, prop_delay_s: float) -> float:
    """Twice the command airtime + wake latency + reply airtime, plus the
    command's and the reply's propagation delay."""
    wake = MODE_TABLE["STOP1"].wakeup_time_s
    return 2.0 * (frame_airtime_s(FRAME_LEN, modem_cfg) + wake
                  + frame_airtime_s(FRAME_LEN, modem_cfg)) + 2 * prop_delay_s
