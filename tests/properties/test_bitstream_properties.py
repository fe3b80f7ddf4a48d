"""Property-based tests for bit-level CAN encoding."""

from bitstream_reference import (
    crc15,
    decode_frame_bits,
    destuff,
    frame_body_bits,
    stuff,
)
from hypothesis import given, strategies as st

from repro.can.bitstream import exact_frame_bits, worst_case_frame_bits

bits = st.lists(st.integers(min_value=0, max_value=1), max_size=200)
payloads = st.binary(max_size=8)
identifiers = st.integers(min_value=0, max_value=(1 << 29) - 1)


@given(bits)
def test_stuff_destuff_roundtrip(pattern):
    assert destuff(stuff(pattern)) == pattern


@given(bits)
def test_stuffed_never_has_six_equal_bits(pattern):
    stuffed = stuff(pattern)
    run = 0
    previous = None
    for bit in stuffed:
        run = run + 1 if bit == previous else 1
        previous = bit
        assert run <= 5


@given(bits)
def test_stuffing_overhead_bounded_by_quarter(pattern):
    """At most one stuff bit per four original bits (after the first)."""
    overhead = len(stuff(pattern)) - len(pattern)
    assert overhead <= max(0, (len(pattern) - 1) // 4)


@given(identifiers, payloads)
def test_exact_length_bounded_by_worst_case(identifier, data):
    exact = exact_frame_bits(identifier, data, remote=False, extended=True)
    assert exact <= worst_case_frame_bits(len(data), extended=True)


@given(identifiers, payloads)
def test_exact_length_at_least_unstuffed(identifier, data):
    exact = exact_frame_bits(
        identifier, data, remote=False, extended=True, with_interframe=False
    )
    unstuffed = 64 + 8 * len(data)
    assert exact >= unstuffed


@given(bits, st.integers(min_value=0, max_value=199))
def test_crc_detects_any_single_bit_error(pattern, index):
    if not pattern:
        return
    index %= len(pattern)
    flipped = list(pattern)
    flipped[index] ^= 1
    assert crc15(flipped) != crc15(pattern)


@given(identifiers, payloads, st.booleans())
def test_decode_inverts_encode(identifier, data, extended):
    if not extended:
        identifier &= (1 << 11) - 1
    stuffed = stuff(frame_body_bits(identifier, data, False, extended))
    decoded = decode_frame_bits(stuffed)
    assert decoded.identifier == identifier
    assert decoded.data == data
    assert decoded.extended == extended
    assert decoded.crc_ok
