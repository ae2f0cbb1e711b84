import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsim import frame_codec as fc

VECTOR_FILE = Path(__file__).parent / "data" / "frame_vectors.txt"

WORKED_SPAN = bytes([0x01, 0x64, 0x49, 0x46, 0x68, 0x00, 0x53, 0x02, 0x12, 0x34])
WORKED_WIRE = WORKED_SPAN + bytes([0xF7, 0x75])


def fold_oracle(span):
    # Independent byte-wise fold used to freeze expected checks.
    total, xor = 0, 0
    for b in span:
        total = (total + b) % 256
        xor ^= b
    return total, xor


class TestComputeChecks:
    def test_empty_span_is_identity(self):
        assert fc.compute_checks(b"") == (0x00, 0x00)

    def test_worked_span(self):
        assert fold_oracle(WORKED_SPAN) == (0xF7, 0x75)
        assert fc.compute_checks(WORKED_SPAN) == (0xF7, 0x75)

    def test_sum_wraps_modulo_256(self):
        assert fc.compute_checks(bytes([0xFF, 0x01])) == (0x00, 0xFE)

    @given(st.binary(max_size=300))
    def test_matches_fold_oracle(self, span):
        assert fc.compute_checks(span) == fold_oracle(span)

    @given(st.binary(max_size=64))
    def test_xor_is_order_insensitive(self, span):
        _, xor_fwd = fc.compute_checks(span)
        _, xor_rev = fc.compute_checks(bytes(reversed(span)))
        assert xor_fwd == xor_rev


class TestEncode:
    def test_worked_frame(self):
        frame = fc.Frame(0x01, fc.Address(bytes([0x64, 0x49, 0x46, 0x68, 0x00, 0x53])),
                         bytes([0x12, 0x34]))
        assert fc.encode_frame(frame) == WORKED_WIRE

    def test_all_zero_frame(self):
        frame = fc.Frame(0x00, fc.Address(bytes(6)), b"")
        assert fc.encode_frame(frame) == bytes(10)

    def test_function_test_payload_trailing_bytes(self):
        frame = fc.Frame(0x01, fc.Address(bytes([0x89, 0x47, 0x46, 0x68, 0x00, 0x53])),
                         bytes([0x00, 0xFF]))
        wire = fc.encode_frame(frame)
        assert wire[7] == 2
        assert wire[8:10] == bytes([0x00, 0xFF])

    def test_encoded_size_is_header_plus_payload_plus_trailers(self):
        for n in (0, 1, 17, 255):
            frame = fc.Frame(0, fc.Address(bytes(6)), bytes(n))
            assert len(fc.encode_frame(frame)) == 10 + n


class TestDecode:
    def test_round_trip_of_worked_frame(self):
        frame = fc.decode_frame(WORKED_WIRE)
        assert frame.relay_depth == 0x01
        assert frame.address.octets == bytes([0x64, 0x49, 0x46, 0x68, 0x00, 0x53])
        assert frame.payload == bytes([0x12, 0x34])

    @pytest.mark.parametrize("kind", list(fc.ErrorKind))
    def test_error_message(self, kind):
        err = fc.CodecError(kind, 7)
        assert str(err) == f"{kind.value} at byte offset 7"
        assert (err.kind, err.offset) == (kind, 7)

    def test_payload_flip_fails_sum_check(self):
        corrupted = bytearray(WORKED_WIRE)
        corrupted[8] = 0x13
        with pytest.raises(fc.CodecError) as exc:
            fc.decode_frame(bytes(corrupted))
        assert exc.value.kind is fc.ErrorKind.SUM_CHECK_FAILED

    def test_xor_trailer_flip_fails_xor_check(self):
        corrupted = bytearray(WORKED_WIRE)
        corrupted[-1] ^= 0x01
        with pytest.raises(fc.CodecError) as exc:
            fc.decode_frame(bytes(corrupted))
        assert exc.value.kind is fc.ErrorKind.XOR_CHECK_FAILED

    def test_short_input_is_truncated(self):
        with pytest.raises(fc.CodecError) as exc:
            fc.decode_frame(bytes(5))
        assert exc.value.kind is fc.ErrorKind.TRUNCATED

    def test_missing_payload_bytes_is_truncated(self):
        with pytest.raises(fc.CodecError) as exc:
            fc.decode_frame(WORKED_WIRE[:-1])
        assert exc.value.kind is fc.ErrorKind.TRUNCATED

    def test_trailing_garbage_is_length_mismatch(self):
        with pytest.raises(fc.CodecError) as exc:
            fc.decode_frame(WORKED_WIRE + b"\x00")
        assert exc.value.kind is fc.ErrorKind.LENGTH_MISMATCH

    def test_sum_reported_first_when_both_checks_fail(self):
        corrupted = bytearray(WORKED_WIRE)
        corrupted[-2] ^= 0x01
        corrupted[-1] ^= 0x01
        with pytest.raises(fc.CodecError) as exc:
            fc.decode_frame(bytes(corrupted))
        assert exc.value.kind is fc.ErrorKind.SUM_CHECK_FAILED


frames = st.builds(
    fc.Frame,
    st.integers(0, 255),
    st.binary(min_size=6, max_size=6).map(fc.Address),
    st.binary(max_size=255),
)


@given(frames)
@settings(max_examples=200)
def test_round_trip_property(frame):
    assert fc.decode_frame(fc.encode_frame(frame)) == frame


@given(frames, st.integers(0, 10_000), st.integers(1, 255))
@settings(max_examples=200)
def test_single_byte_corruption_never_silently_succeeds(frame, pos, delta):
    wire = bytearray(fc.encode_frame(frame))
    pos %= len(wire)
    wire[pos] = (wire[pos] + delta) % 256
    with pytest.raises(fc.CodecError) as exc:
        fc.decode_frame(bytes(wire))
    assert exc.value.kind in (fc.ErrorKind.SUM_CHECK_FAILED, fc.ErrorKind.XOR_CHECK_FAILED,
                              fc.ErrorKind.LENGTH_MISMATCH, fc.ErrorKind.TRUNCATED)


def test_decode_never_raises_anything_but_codec_error():
    rng = random.Random(0xC0DEC)
    for _ in range(5000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        try:
            frame = fc.decode_frame(data)
        except fc.CodecError:
            continue
        assert fc.encode_frame(frame) == data


def test_shipped_vector_file_decodes_and_reencodes():
    for line in VECTOR_FILE.read_text().splitlines():
        wire = bytes.fromhex(line)
        assert fold_oracle(wire[:-2]) == (wire[-2], wire[-1])
        frame = fc.decode_frame(wire)
        assert fc.encode_frame(frame).hex(" ") == line


class TestAddress:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            fc.Address(bytes(5))

    def test_matching(self):
        a = fc.Address(bytes([0x64, 0x49, 0x46, 0x68, 0x00, 0x53]))
        b = fc.Address(bytes([0x89, 0x47, 0x46, 0x68, 0x00, 0x53]))
        assert fc.address_matches(a, a)
        assert not fc.address_matches(a, b)

    @given(st.binary(min_size=6, max_size=6))
    def test_reflexive(self, raw):
        addr = fc.Address(raw)
        assert fc.address_matches(addr, fc.Address(raw))
