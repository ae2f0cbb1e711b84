"""Byte-exact codec for the polling-link frame format.

Wire layout, in transmission order::

    [relay_depth][address x 6][length][payload x length][sum_check][xor_check]

``sum_check`` is the arithmetic sum modulo 256 and ``xor_check`` the bitwise
XOR, both taken over every byte before the two trailers.  A frame is therefore
always ``10 + length`` bytes long: an 8-byte header, the payload and the two
check bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

ADDRESS_LEN = 6
HEADER_LEN = 1 + ADDRESS_LEN + 1  # relay depth + address + length byte
TRAILER_LEN = 2
MIN_FRAME_LEN = HEADER_LEN + TRAILER_LEN
MAX_PAYLOAD = 255


class ErrorKind(Enum):
    TRUNCATED = "Truncated"
    LENGTH_MISMATCH = "LengthMismatch"
    SUM_CHECK_FAILED = "SumCheckFailed"
    XOR_CHECK_FAILED = "XorCheckFailed"


class CodecError(ValueError):
    """A byte sequence that does not parse as a frame.

    ``kind`` identifies which frame invariant failed and ``offset`` the byte
    index at which the failure was detected.  The message is formatted only
    when asked for, because corruption sweeps raise millions of these.
    """

    def __init__(self, kind: ErrorKind, offset: int):
        # BaseException.__new__ has already stored (kind, offset) as args.
        self.kind = kind
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.kind.value} at byte offset {self.offset}"


@dataclass(frozen=True)
class Address:
    """Fixed six-octet node address."""

    octets: bytes

    def __post_init__(self):
        if len(self.octets) != ADDRESS_LEN:
            raise ValueError(f"address must be {ADDRESS_LEN} bytes, got {len(self.octets)}")

    def hex(self) -> str:
        return " ".join(f"{b:02x}" for b in self.octets)


@dataclass(frozen=True)
class Frame:
    relay_depth: int
    address: Address
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.relay_depth <= 0xFF:
            raise ValueError("relay_depth must fit in one octet")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(f"payload exceeds {MAX_PAYLOAD} bytes")

    @property
    def length(self) -> int:
        return len(self.payload)


def compute_checks(span: bytes) -> tuple[int, int]:
    """Sum-modulo-256 and XOR-fold trailer bytes over ``span``."""
    xor = 0
    for b in span:
        xor ^= b
    return sum(span) & 0xFF, xor


def encode_frame(frame: Frame) -> bytes:
    body = bytes([frame.relay_depth]) + frame.address.octets + bytes([frame.length]) + frame.payload
    s, x = compute_checks(body)
    return body + bytes([s, x])


def decode_frame(data: bytes) -> Frame:
    """Parse ``data`` as one complete frame.

    Raises :class:`CodecError` on any violation.  The input must be exactly
    one frame: trailing bytes beyond the declared length are a
    ``LengthMismatch``.  When both trailers mismatch, the sum failure is
    reported.
    """
    if len(data) < MIN_FRAME_LEN:
        raise CodecError(ErrorKind.TRUNCATED, len(data))
    length = data[HEADER_LEN - 1]
    total = HEADER_LEN + length + TRAILER_LEN
    if len(data) < total:
        raise CodecError(ErrorKind.TRUNCATED, len(data))
    if len(data) > total:
        raise CodecError(ErrorKind.LENGTH_MISMATCH, total)
    body = data[: total - TRAILER_LEN]
    # Staged check: sum first (also the reported error when both fail), XOR
    # only if the sum passes.  Keeps exhaustive corruption sweeps cheap.
    if sum(body) & 0xFF != data[total - 2]:
        raise CodecError(ErrorKind.SUM_CHECK_FAILED, total - 2)
    if compute_checks(body)[1] != data[total - 1]:
        raise CodecError(ErrorKind.XOR_CHECK_FAILED, total - 1)
    return Frame(
        relay_depth=data[0],
        address=Address(data[1 : 1 + ADDRESS_LEN]),
        payload=bytes(data[HEADER_LEN : HEADER_LEN + length]),
    )


def address_matches(frame_addr: Address, node_addr: Address) -> bool:
    """True iff all six octets are equal."""
    return frame_addr.octets == node_addr.octets
