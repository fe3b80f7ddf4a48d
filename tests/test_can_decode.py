"""Unit tests for bit-level frame decoding."""

import pytest
from bitstream_reference import decode_frame_bits, frame_body_bits, stuff

from repro.errors import FrameError


def encode(identifier, data=b"", remote=False, extended=True):
    return stuff(frame_body_bits(identifier, data, remote, extended))


def test_roundtrip_extended_data_frame():
    decoded = decode_frame_bits(encode(0x1234567, b"\x01\xff"))
    assert decoded.identifier == 0x1234567
    assert decoded.data == b"\x01\xff"
    assert not decoded.remote
    assert decoded.extended
    assert decoded.crc_ok


def test_roundtrip_standard_data_frame():
    decoded = decode_frame_bits(encode(0x123, b"abc", extended=False))
    assert decoded.identifier == 0x123
    assert decoded.data == b"abc"
    assert not decoded.extended
    assert decoded.crc_ok


def test_roundtrip_remote_frames():
    for extended in (False, True):
        decoded = decode_frame_bits(encode(0x55, remote=True, extended=extended))
        assert decoded.remote
        assert decoded.data == b""
        assert decoded.crc_ok


def test_corruption_detected_by_crc():
    bits = encode(0x77, b"\x10\x20")
    # Flip a payload bit (avoiding the stuffing structure at the front).
    bits[40] ^= 1
    try:
        decoded = decode_frame_bits(bits)
    except FrameError:
        return  # destuffing structure broke: also a detection
    assert not decoded.crc_ok


def test_truncated_frame_rejected():
    bits = encode(0x77, b"\x10")
    with pytest.raises(FrameError):
        decode_frame_bits(bits[: len(bits) // 2])


def test_missing_sof_rejected():
    bits = encode(0x77)
    bits[0] = 1
    with pytest.raises(FrameError):
        decode_frame_bits(bits)


def test_trailing_bits_rejected():
    bits = encode(0x77) + [0, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(FrameError):
        decode_frame_bits(bits)


def test_empty_payload():
    decoded = decode_frame_bits(encode(0x1FFFFFFF, b""))
    assert decoded.data == b""
    assert decoded.identifier == 0x1FFFFFFF
