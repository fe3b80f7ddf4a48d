"""Unit tests for bit-level CAN encoding: CRC-15, stuffing, frame lengths."""

import pytest
from bitstream_reference import crc15, destuff, frame_body_bits, stuff

from repro.can.bitstream import (
    FRAME_TAIL_BITS,
    INTERFRAME_BITS,
    exact_frame_bits,
    worst_case_frame_bits,
)
from repro.errors import FrameError


def test_crc15_zero_input():
    assert crc15([0] * 10) == 0


def test_crc15_known_nonzero():
    value = crc15([1, 0, 1, 1, 0, 0, 1])
    assert 0 < value < 1 << 15


def test_crc15_detects_single_bit_flip():
    bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
    original = crc15(bits)
    for index in range(len(bits)):
        flipped = list(bits)
        flipped[index] ^= 1
        assert crc15(flipped) != original


def test_crc15_rejects_non_bits():
    with pytest.raises(FrameError):
        crc15([2])


def test_crc15_rejects_non_bits_anywhere_with_message():
    """Validation runs up front (not inside the CRC loop) but still names
    the offending value, wherever it appears in the input."""
    with pytest.raises(FrameError, match="bit must be 0 or 1, got 7"):
        crc15([0, 1, 0, 1, 7])
    with pytest.raises(FrameError, match="bit must be 0 or 1, got -1"):
        crc15([-1] + [0] * 20)


def test_stuff_inserts_after_five_equal():
    assert stuff([0, 0, 0, 0, 0]) == [0, 0, 0, 0, 0, 1]
    assert stuff([1, 1, 1, 1, 1]) == [1, 1, 1, 1, 1, 0]


def test_stuff_no_insertion_below_five():
    bits = [0, 0, 0, 0, 1, 1, 1, 1]
    assert stuff(bits) == bits


def test_stuff_bit_counts_toward_next_run():
    # 0x00 byte stream: 00000|1 00001... the stuff bit participates.
    stuffed = stuff([0] * 10)
    assert stuffed == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]


def test_destuff_inverts_stuff():
    for pattern in ([0] * 20, [1] * 17, [1, 0] * 8, [1, 1, 1, 0, 0, 0, 0, 0, 0]):
        assert destuff(stuff(pattern)) == list(pattern)


def test_frame_body_length_extended():
    # 54 + 8*dlc stuff-eligible bits (SOF..CRC) for the extended format.
    body = frame_body_bits(0x1234, b"\x01\x02", remote=False, extended=True)
    assert len(body) == 54 + 16


def test_frame_body_length_standard():
    body = frame_body_bits(0x123, b"", remote=True, extended=False)
    assert len(body) == 34


def test_standard_format_rejects_wide_identifier():
    with pytest.raises(FrameError):
        frame_body_bits(1 << 11, b"", remote=False, extended=False)


def test_remote_frame_with_data_rejected():
    with pytest.raises(FrameError):
        frame_body_bits(1, b"\x00", remote=True)


def test_oversized_data_rejected():
    with pytest.raises(FrameError):
        frame_body_bits(1, bytes(9), remote=False)


def test_exact_never_exceeds_worst_case():
    for dlc in range(9):
        for extended in (False, True):
            for filler in (0x00, 0xFF, 0x55, 0xA5):
                identifier = 0x155 if not extended else 0x15555555 & ((1 << 29) - 1)
                exact = exact_frame_bits(
                    identifier, bytes([filler] * dlc), False, extended
                )
                worst = worst_case_frame_bits(dlc, extended)
                assert exact <= worst


def test_worst_case_formula_standard():
    # Tindell-Burns: 8n + 47 + floor((34 + 8n - 1) / 4) including interframe.
    assert worst_case_frame_bits(8, extended=False) == 64 + 47 + (33 + 64) // 4


def test_worst_case_formula_extended():
    assert worst_case_frame_bits(0, extended=True) == 67 + 53 // 4


def test_worst_case_monotonic_in_dlc():
    lengths = [worst_case_frame_bits(dlc) for dlc in range(9)]
    assert lengths == sorted(lengths)
    assert len(set(lengths)) == 9


def test_interframe_flag():
    with_ifs = exact_frame_bits(1, b"", True, True, with_interframe=True)
    without = exact_frame_bits(1, b"", True, True, with_interframe=False)
    assert with_ifs - without == INTERFRAME_BITS


def test_worst_case_dlc_range():
    with pytest.raises(FrameError):
        worst_case_frame_bits(9)


def test_all_zero_identifier_max_stuffing():
    """An all-dominant prefix stuffs heavily — close to the worst case."""
    exact = exact_frame_bits(0, bytes(8), False, extended=True)
    worst = worst_case_frame_bits(8, extended=True)
    assert worst - exact < 15
