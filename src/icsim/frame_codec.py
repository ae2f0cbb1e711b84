"""Byte-exact codec for the polling-link frame format.

Wire layout, in transmission order::

    [relay_depth][address x 6][length][payload x length][sum_check][xor_check]

``sum_check`` is the arithmetic sum modulo 256 and ``xor_check`` the bitwise
XOR, both taken over every byte before the two trailers.  A frame is therefore
always ``10 + length`` bytes long: an 8-byte header, the payload and the two
check bytes.
"""

from __future__ import annotations

import functools
import operator
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

    Built as ``CodecError(kind, offset)``: ``kind`` identifies which frame
    invariant failed and ``offset`` the byte index at which the failure was
    detected.  Both are read from ``args``, and the message is formatted
    only when asked for, because corruption sweeps raise millions of these.
    """

    @property
    def kind(self) -> ErrorKind:
        return self.args[0]

    @property
    def offset(self) -> int:
        return self.args[1]

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
        return self.octets.hex(" ")


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
    return sum(span) & 0xFF, functools.reduce(operator.xor, span, 0)


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
    n = len(data)
    if n < MIN_FRAME_LEN:
        raise CodecError(ErrorKind.TRUNCATED, n)
    total = HEADER_LEN + data[HEADER_LEN - 1] + TRAILER_LEN
    if n != total:
        raise (CodecError(ErrorKind.TRUNCATED, n) if n < total
               else CodecError(ErrorKind.LENGTH_MISMATCH, total))
    # Staged check: sum first (also the reported error when both fail), XOR
    # only if the sum passes.  Both fold every byte and take the trailers
    # back out, so no body is copied: corruption sweeps raise millions of these.
    sum_check, xor_check = data[-2], data[-1]
    if (sum(data) - sum_check - xor_check) & 0xFF != sum_check:
        raise CodecError(ErrorKind.SUM_CHECK_FAILED, n - 2)
    if functools.reduce(operator.xor, data) ^ sum_check ^ xor_check != xor_check:
        raise CodecError(ErrorKind.XOR_CHECK_FAILED, n - 1)
    return Frame(
        relay_depth=data[0],
        address=Address(data[1 : 1 + ADDRESS_LEN]),
        payload=bytes(data[HEADER_LEN : n - TRAILER_LEN]),
    )


def address_matches(frame_addr: Address, node_addr: Address) -> bool:
    """True iff all six octets are equal."""
    return frame_addr.octets == node_addr.octets
