"""Bit-level CAN frame encoding: CRC-15 and bit stuffing.

The simulator charges every transmission its *exact* wire length, obtained by
laying out the frame fields and applying CAN bit stuffing (a complement bit
after five consecutive equal bits, from start-of-frame through the CRC
sequence). The classic worst-case closed forms used by schedulability
analysis (Tindell & Burns) are also provided and tested against the exact
encoder.

Two implementations coexist:

* The **reference** path (:func:`crc15`, :func:`stuff`, :func:`destuff`,
  :func:`frame_body_bits`) works on explicit bit lists. It is the readable
  specification, the decode/inject substrate, and the oracle the fast path
  is validated against.
* The **fast** path behind :func:`exact_frame_bits` lays the frame out as a
  single integer, runs the CRC through a 256-entry byte table and counts
  stuff bits with a precomputed run-state table — no per-bit Python loop,
  no list allocation. Results are memoized in a bounded FIFO cache keyed by
  ``(identifier, data, remote, extended)``, so the steady-state cost of the
  dominant simulator operation (exact wire length of a repeated frame) is
  one dict hit. :func:`exact_frame_bits_reference` is the same quantity
  by the reference path, which is how the property tests prove both agree.
"""

from __future__ import annotations

from dataclasses import dataclass as _dataclass
from typing import Dict, List, Sequence, Tuple

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


def crc15(bits: Sequence[int]) -> int:
    """CAN CRC-15 over a bit sequence (MSB-first shift register).

    This is the bit-level reference implementation; the fast path in
    :func:`exact_frame_bits` uses the byte table built from the same
    recurrence. Input is validated once up front so the shift loop stays
    branch-lean.
    """
    for bit in bits:
        if bit not in (0, 1):
            raise FrameError(f"bit must be 0 or 1, got {bit}")
    crc = 0
    for bit in bits:
        crc_next = bit ^ (crc >> 14 & 1)
        crc = (crc << 1) & 0x7FFF
        if crc_next:
            crc ^= CRC15_POLY
    return crc


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


def stuff(bits: Sequence[int]) -> List[int]:
    """Apply CAN bit stuffing: insert a complement after 5 equal bits."""
    stuffed: List[int] = []
    run_value = None
    run_length = 0
    for bit in bits:
        stuffed.append(bit)
        if bit == run_value:
            run_length += 1
        else:
            run_value = bit
            run_length = 1
        if run_length == 5:
            stuffed.append(1 - bit)
            run_value = 1 - bit
            run_length = 1
    return stuffed


def destuff(bits: Sequence[int]) -> List[int]:
    """Remove stuff bits inserted by :func:`stuff`."""
    destuffed: List[int] = []
    run_value = None
    run_length = 0
    skip_next = False
    for bit in bits:
        if skip_next:
            skip_next = False
            run_value = bit
            run_length = 1
            continue
        destuffed.append(bit)
        if bit == run_value:
            run_length += 1
        else:
            run_value = bit
            run_length = 1
        if run_length == 5:
            skip_next = True
            run_length = 0
            run_value = None
    return destuffed


def _int_to_bits(value: int, width: int) -> List[int]:
    return [(value >> shift) & 1 for shift in range(width - 1, -1, -1)]


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

    Integer twin of ``frame_body_bits`` (same field layout, same
    validation); the CRC is computed with the byte table.
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


def frame_body_bits(
    identifier: int,
    data: bytes,
    remote: bool,
    extended: bool = True,
    dlc: int = None,
) -> List[int]:
    """Lay out the stuff-eligible region: SOF through CRC sequence.

    For a remote frame ``data`` must be empty and ``dlc`` carries the data
    length code of the *requested* frame (0 for CANELy control messages).
    """
    if remote and data:
        raise FrameError("remote frames carry no data")
    if len(data) > 8:
        raise FrameError(f"CAN data field is at most 8 bytes, got {len(data)}")
    if dlc is None:
        dlc = len(data)
    if not 0 <= dlc <= 8:
        raise FrameError(f"DLC out of range: {dlc}")

    bits: List[int] = [0]  # SOF (dominant)
    if extended:
        bits += _int_to_bits(identifier >> 18, 11)  # base identifier
        bits += [1, 1]  # SRR, IDE (both recessive)
        bits += _int_to_bits(identifier & ((1 << 18) - 1), 18)
        bits += [1 if remote else 0]  # RTR
        bits += [0, 0]  # r1, r0
    else:
        if identifier >= 1 << 11:
            raise FrameError(
                f"identifier {identifier:#x} does not fit the standard format"
            )
        bits += _int_to_bits(identifier, 11)
        bits += [1 if remote else 0]  # RTR
        bits += [0, 0]  # IDE, r0
    bits += _int_to_bits(dlc, 4)
    for byte in data:
        bits += _int_to_bits(byte, 8)
    bits += _int_to_bits(crc15(bits), 15)
    return bits


#: Upper bound on memoized wire lengths; FIFO eviction past this point.
WIRE_CACHE_MAX = 4096

_wire_cache: Dict[Tuple[int, bytes, bool, bool], int] = {}
_wire_cache_hits = 0
_wire_cache_misses = 0


def exact_frame_bits_reference(
    identifier: int,
    data: bytes,
    remote: bool,
    extended: bool = True,
    with_interframe: bool = True,
) -> int:
    """Exact wire length via the bit-list reference path (no cache)."""
    body = stuff(frame_body_bits(identifier, data, remote, extended))
    total = len(body) + FRAME_TAIL_BITS
    if with_interframe:
        total += INTERFRAME_BITS
    return total


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


@_dataclass(frozen=True)
class DecodedFrame:
    """Result of parsing a frame's stuff-region bit pattern."""

    identifier: int
    data: bytes
    remote: bool
    extended: bool
    crc_ok: bool


def decode_frame_bits(stuffed: Sequence[int]) -> DecodedFrame:
    """Parse a stuffed SOF..CRC bit pattern back into its fields.

    The inverse of ``stuff(frame_body_bits(...))``; verifies the CRC-15.
    Raises :class:`~repro.errors.FrameError` on structural violations
    (wrong SOF, truncated fields, DLC/data mismatch).
    """
    bits = destuff(stuffed)
    if len(bits) < 19:
        raise FrameError(f"frame too short: {len(bits)} bits")
    if bits[0] != 0:
        raise FrameError("missing dominant start-of-frame bit")

    def take(count: int, cursor: int) -> Tuple[int, int]:
        if cursor + count > len(bits):
            raise FrameError("truncated frame")
        value = 0
        for bit in bits[cursor : cursor + count]:
            value = (value << 1) | bit
        return value, cursor + count

    cursor = 1
    base_id, cursor = take(11, cursor)
    flag1, cursor = take(1, cursor)  # RTR (standard) / SRR (extended)
    ide, cursor = take(1, cursor)
    extended = bool(ide)
    if extended:
        ext_id, cursor = take(18, cursor)
        identifier = (base_id << 18) | ext_id
        rtr, cursor = take(1, cursor)
        _, cursor = take(2, cursor)  # r1, r0
    else:
        identifier = base_id
        rtr = flag1
        _, cursor = take(1, cursor)  # r0
    dlc, cursor = take(4, cursor)
    if dlc > 8:
        raise FrameError(f"DLC out of range: {dlc}")
    payload = bytearray()
    if not rtr:
        for _ in range(dlc):
            byte, cursor = take(8, cursor)
            payload.append(byte)
    crc, cursor = take(15, cursor)
    if cursor != len(bits):
        raise FrameError(f"{len(bits) - cursor} trailing bits after the CRC")
    crc_ok = crc15(bits[: cursor - 15]) == crc
    return DecodedFrame(
        identifier=identifier,
        data=bytes(payload),
        remote=bool(rtr),
        extended=extended,
        crc_ok=crc_ok,
    )


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
