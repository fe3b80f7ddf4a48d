"""Bit-level CAN frame encoding: CRC-15 and bit stuffing.

The simulator charges every transmission its *exact* wire length, obtained by
laying out the frame fields and applying CAN bit stuffing (a complement bit
after five consecutive equal bits, from start-of-frame through the CRC
sequence). The classic worst-case closed forms used by schedulability
analysis (Tindell & Burns) are also provided and tested against the exact
encoder.

:func:`exact_frame_bits` lays the frame out as a single integer, runs the
CRC through a 256-entry byte table and counts stuff bits with a
precomputed run-state table — no per-bit Python loop, no list allocation.
Results are memoized in a bounded FIFO cache keyed by ``(identifier, data,
remote, extended)``, so the steady-state cost of the dominant simulator
operation (exact wire length of a repeated frame) is one dict hit. The
bit-list encoder it is checked against (CRC-15, stuffing, the field layout
and its decoder) is ``tests/bitstream_reference.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import FrameError

#: CAN CRC-15 generator polynomial x^15+x^14+x^10+x^8+x^7+x^4+x^3+1.
CRC15_POLY = 0x4599

#: Fixed tail after the stuffed region: CRC delimiter, ACK slot,
#: ACK delimiter, end-of-frame (7 bits).
FRAME_TAIL_BITS = 1 + 1 + 1 + 7

#: Interframe space (intermission) between consecutive frames.
INTERFRAME_BITS = 3

#: Error frame (error-active): 6-bit error flag + up to 8 echo bits
#: allowance folded into the delimiter + 8-bit error delimiter.
ERROR_FLAG_BITS = 6
ERROR_DELIMITER_BITS = 8
ERROR_FRAME_BITS = ERROR_FLAG_BITS + ERROR_DELIMITER_BITS

#: Suspend transmission penalty an error-passive sender pays before retry.
SUSPEND_TRANSMISSION_BITS = 8


def _build_crc15_table() -> Tuple[int, ...]:
    """CRC of each byte fed MSB-first into a zeroed 15-bit register."""
    table = []
    for byte in range(256):
        crc = (byte << 7) & 0x7FFF
        for _ in range(8):
            crc_next = crc & 0x4000
            crc = (crc << 1) & 0x7FFF
            if crc_next:
                crc ^= CRC15_POLY
        table.append(crc)
    return tuple(table)


_CRC15_TABLE = _build_crc15_table()


def _crc15_int(value: int, nbits: int) -> int:
    """CRC-15 of the ``nbits``-wide big-endian bit pattern in ``value``.

    The leading ``nbits % 8`` bits go through the bit recurrence to align
    the remainder on a byte boundary; everything after that is one table
    lookup per byte.
    """
    crc = 0
    rem = nbits & 7
    shift = nbits - rem
    if rem:
        chunk = value >> shift
        for index in range(rem - 1, -1, -1):
            crc_next = ((chunk >> index) & 1) ^ (crc >> 14 & 1)
            crc = (crc << 1) & 0x7FFF
            if crc_next:
                crc ^= CRC15_POLY
    table = _CRC15_TABLE
    while shift:
        shift -= 8
        crc = ((crc << 8) & 0x7FFF) ^ table[
            ((crc >> 7) & 0xFF) ^ ((value >> shift) & 0xFF)
        ]
    return crc


# -- fast stuffed-length machinery ------------------------------------------------
#
# Stuffing only ever looks at the current run (value, length <= 4: a fifth
# equal bit triggers the insertion and the stuff bit starts a fresh run of
# the complement). That is 9 states: 0 = no run yet, 1..4 = run of zeros of
# that length, 5..8 = run of ones. Counting stuff bits therefore reduces to
# walking a (state x byte) transition table — the inserted bits change the
# *output* alignment but never the input scan, and only the count matters.


def _stuff_step(state: int, bit: int) -> Tuple[int, int]:
    if state == 0:
        value, length = bit, 1
    else:
        value = 0 if state <= 4 else 1
        length = state if state <= 4 else state - 4
        if bit == value:
            length += 1
        else:
            value, length = bit, 1
    if length == 5:
        # Insert the complement; it opens a new run of length one.
        return 1, (1 if value else 5)
    return 0, (length if value == 0 else 4 + length)


def _build_stuff_tables():
    bit_table = tuple(
        tuple(_stuff_step(state, bit) for bit in (0, 1)) for state in range(9)
    )
    byte_table = []
    for state in range(9):
        row = []
        for byte in range(256):
            added = 0
            current = state
            for index in range(7, -1, -1):
                step, current = bit_table[current][(byte >> index) & 1]
                added += step
            row.append((added, current))
        byte_table.append(tuple(row))
    return bit_table, tuple(byte_table)


_STUFF_BIT, _STUFF_BYTE = _build_stuff_tables()


def _stuffed_length(value: int, nbits: int) -> int:
    """Length after stuffing of the ``nbits``-wide pattern in ``value``."""
    extra = 0
    state = 0
    rem = nbits & 7
    shift = nbits - rem
    if rem:
        chunk = value >> shift
        bit_table = _STUFF_BIT
        for index in range(rem - 1, -1, -1):
            added, state = bit_table[state][(chunk >> index) & 1]
            extra += added
    byte_table = _STUFF_BYTE
    while shift:
        shift -= 8
        added, state = byte_table[state][(value >> shift) & 0xFF]
        extra += added
    return nbits + extra


def _frame_body_value(
    identifier: int, data: bytes, remote: bool, extended: bool
) -> Tuple[int, int]:
    """The SOF..CRC stuff region as ``(big-endian value, bit count)``.

    Integer twin of the bit-list layout in ``tests/bitstream_reference.py``
    (same field layout, same validation); the CRC is computed with the byte
    table.
    """
    if remote and data:
        raise FrameError("remote frames carry no data")
    dlc = len(data)
    if dlc > 8:
        raise FrameError(f"CAN data field is at most 8 bytes, got {dlc}")
    if extended:
        # SOF(0) id[28:18] SRR(1) IDE(1) id[17:0] RTR r1(0) r0(0) DLC
        value = identifier >> 18
        value = (value << 2) | 0b11
        value = (value << 18) | (identifier & 0x3FFFF)
        value = (value << 1) | (1 if remote else 0)
        value = (value << 6) | dlc
        nbits = 39
    else:
        if identifier >= 1 << 11:
            raise FrameError(
                f"identifier {identifier:#x} does not fit the standard format"
            )
        # SOF(0) id[10:0] RTR IDE(0) r0(0) DLC
        value = (identifier << 1) | (1 if remote else 0)
        value = (value << 6) | dlc
        nbits = 19
    if data:
        value = (value << (8 * dlc)) | int.from_bytes(data, "big")
        nbits += 8 * dlc
    crc = _crc15_int(value, nbits)
    return (value << 15) | crc, nbits + 15


#: Upper bound on memoized wire lengths; FIFO eviction past this point.
WIRE_CACHE_MAX = 4096

_wire_cache: Dict[Tuple[int, bytes, bool, bool], int] = {}
_wire_cache_hits = 0
_wire_cache_misses = 0


def exact_frame_bits(
    identifier: int,
    data: bytes,
    remote: bool,
    extended: bool = True,
    with_interframe: bool = True,
) -> int:
    """Exact wire length of a frame in bit-times, including stuffing.

    Memoized: repeated frames (heartbeats, clustered failure-signs, the
    periodic traffic of a campaign) cost one dict lookup after the first
    encoding. The cache is bounded (:data:`WIRE_CACHE_MAX`, FIFO) and keyed
    by ``(identifier, data, remote, extended)``.
    """
    global _wire_cache_hits, _wire_cache_misses
    key = (identifier, data, remote, extended)
    cache = _wire_cache
    total = cache.get(key)
    if total is None:
        _wire_cache_misses += 1
        value, nbits = _frame_body_value(identifier, data, remote, extended)
        total = _stuffed_length(value, nbits) + FRAME_TAIL_BITS
        if len(cache) >= WIRE_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = total
    else:
        _wire_cache_hits += 1
    return total + INTERFRAME_BITS if with_interframe else total


def clear_encoding_cache() -> None:
    """Empty the wire-length memo cache and reset its statistics."""
    global _wire_cache_hits, _wire_cache_misses
    _wire_cache.clear()
    _wire_cache_hits = 0
    _wire_cache_misses = 0


def encoding_cache_info() -> Dict[str, int]:
    """Size/capacity/hit/miss statistics of the wire-length cache."""
    return {
        "size": len(_wire_cache),
        "max_size": WIRE_CACHE_MAX,
        "hits": _wire_cache_hits,
        "misses": _wire_cache_misses,
    }


def worst_case_frame_bits(
    dlc: int,
    extended: bool = True,
    with_interframe: bool = True,
) -> int:
    """Worst-case stuffed frame length (Tindell-Burns closed form).

    Standard format: ``8*dlc + 44 + floor((34 + 8*dlc - 1) / 4)``;
    extended format: ``8*dlc + 64 + floor((54 + 8*dlc - 1) / 4)``;
    plus the 3-bit interframe space when requested.
    """
    if not 0 <= dlc <= 8:
        raise FrameError(f"DLC out of range: {dlc}")
    if extended:
        unstuffed = 8 * dlc + 64
        stuff_region = 54 + 8 * dlc
    else:
        unstuffed = 8 * dlc + 44
        stuff_region = 34 + 8 * dlc
    total = unstuffed + (stuff_region - 1) // 4
    if with_interframe:
        total += INTERFRAME_BITS
    return total
