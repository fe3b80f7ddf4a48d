"""Fast-path vs reference equivalence, randomized.

``tests/bitstream_reference.py`` keeps the original bit-list
implementations precisely so the table-driven CRC, the integer stuffing
counter and the memoized wire-length path can be checked against them over
arbitrary inputs. Any divergence here
is a correctness bug in the fast path, never a tolerable approximation.
"""

from bitstream_reference import (
    crc15,
    decode_frame_bits,
    exact_frame_bits_reference,
    frame_body_bits,
    stuff,
)
from hypothesis import given, settings, strategies as st

from repro.can.bitstream import (
    _crc15_int,
    _frame_body_value,
    _stuffed_length,
    clear_encoding_cache,
    exact_frame_bits,
)

bits = st.lists(st.integers(min_value=0, max_value=1), max_size=256)
payloads = st.binary(max_size=8)
std_identifiers = st.integers(min_value=0, max_value=(1 << 11) - 1)
ext_identifiers = st.integers(min_value=0, max_value=(1 << 29) - 1)


def _bits_to_int(pattern):
    value = 0
    for bit in pattern:
        value = (value << 1) | bit
    return value


@given(bits)
def test_table_crc_matches_bit_shift_reference(pattern):
    assert _crc15_int(_bits_to_int(pattern), len(pattern)) == crc15(pattern)


@given(bits)
def test_integer_stuffing_matches_list_stuffing(pattern):
    expected = len(stuff(pattern))
    assert _stuffed_length(_bits_to_int(pattern), len(pattern)) == expected


@given(ext_identifiers, payloads, st.booleans())
def test_frame_body_value_matches_bit_list_body(identifier, data, remote):
    if remote:
        data = b""
    body = frame_body_bits(identifier, data, remote=remote, extended=True)
    value, nbits = _frame_body_value(identifier, data, remote, True)
    assert nbits == len(body)
    assert value == _bits_to_int(body)


@given(std_identifiers, payloads, st.booleans())
def test_frame_body_value_matches_bit_list_body_standard(identifier, data, remote):
    if remote:
        data = b""
    body = frame_body_bits(identifier, data, remote=remote, extended=False)
    value, nbits = _frame_body_value(identifier, data, remote, False)
    assert nbits == len(body)
    assert value == _bits_to_int(body)


@given(
    ext_identifiers,
    payloads,
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200)
def test_fast_wire_length_matches_reference(
    identifier, data, remote, extended, with_interframe
):
    if not extended:
        identifier &= (1 << 11) - 1
    if remote:
        data = b""
    fast = exact_frame_bits(
        identifier, data, remote=remote, extended=extended,
        with_interframe=with_interframe,
    )
    reference = exact_frame_bits_reference(
        identifier, data, remote=remote, extended=extended,
        with_interframe=with_interframe,
    )
    assert fast == reference


@given(ext_identifiers, payloads, st.booleans())
def test_decode_roundtrip_still_holds(identifier, data, remote):
    """The retained reference decoder inverts the frame body encoding."""
    if remote:
        data = b""
    body = frame_body_bits(identifier, data, remote=remote, extended=True)
    decoded = decode_frame_bits(stuff(body))
    assert decoded.extended
    assert decoded.identifier == identifier
    assert decoded.remote == remote
    assert decoded.data == data
    assert decoded.crc_ok


@given(st.lists(st.tuples(ext_identifiers, payloads), max_size=12))
def test_cache_is_transparent(frames):
    """Cached answers equal uncached answers for repeated mixed queries."""
    clear_encoding_cache()
    first = [
        exact_frame_bits(identifier, data, remote=False, extended=True)
        for identifier, data in frames
    ]
    second = [
        exact_frame_bits(identifier, data, remote=False, extended=True)
        for identifier, data in frames
    ]
    assert first == second
    clear_encoding_cache()
    fresh = [
        exact_frame_bits(identifier, data, remote=False, extended=True)
        for identifier, data in frames
    ]
    assert fresh == first
