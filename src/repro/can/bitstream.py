"""Bit-level CAN frame encoding: CRC-15 and bit stuffing.

The simulator charges every transmission its *exact* wire length, obtained by
laying out the frame fields and applying CAN bit stuffing (a complement bit
after five consecutive equal bits, from start-of-frame through the CRC
sequence). The classic worst-case closed forms used by schedulability
analysis (Tindell & Burns) are also provided and tested against the exact
encoder.

:func:`exact_frame_bits` lays the frame out as integers, runs the CRC
through a 256-entry byte table and counts stuff bits with precomputed
run-state tables — no per-bit Python loop, no list allocation. Results are
memoized in a bounded FIFO cache keyed by ``(identifier, data, remote,
extended)``, so the steady-state cost of the dominant simulator operation
(exact wire length of a repeated frame) is one dict hit; a miss — a
heartbeat's fresh counter — starts from the CRC register and stuff state
its identifier's header left, memoized too, and runs only the data and
CRC bytes. The
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

    One table lookup per byte. The leading ``nbits % 8`` bits are looked up
    as a byte too: zeros fed to a zeroed register leave it zero, so padding
    them to a byte with leading zeros changes nothing.
    """
    rem = nbits & 7
    shift = nbits - rem
    table = _CRC15_TABLE
    crc = table[value >> shift] if rem else 0
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
    # lead[width][state][chunk]: ``(stuff bits added, state after)`` for the
    # ``width``-bit chunk, MSB first; width 8 is the byte table. A chunk is
    # the one a bit shorter, then its last bit. Equal cells share one
    # tuple: 4,599 cells hold a few dozen distinct pairs.
    lead = [tuple(((0, state),) for state in range(9))]
    pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for width in range(1, 9):
        shorter = lead[-1]
        rows = []
        for state in range(9):
            row = []
            for chunk in range(1 << width):
                added, current = shorter[state][chunk >> 1]
                step, current = bit_table[current][chunk & 1]
                pair = (added + step, current)
                row.append(pairs.setdefault(pair, pair))
            rows.append(tuple(row))
        lead.append(tuple(rows))
    return tuple(lead)


_STUFF_LEAD = _build_stuff_tables()
_STUFF_BYTE = _STUFF_LEAD[8]


def _stuff_run(value: int, nbits: int, state: int = 0) -> Tuple[int, int]:
    """``(stuff bits added, run state after)`` for the ``nbits``-wide
    pattern in ``value`` sent from run ``state``."""
    rem = nbits & 7
    shift = nbits - rem
    extra = 0
    if rem:
        extra, state = _STUFF_LEAD[rem][state][value >> shift]
    byte_table = _STUFF_BYTE
    while shift:
        shift -= 8
        added, state = byte_table[state][(value >> shift) & 0xFF]
        extra += added
    return extra, state


def _header_value(
    identifier: int, dlc: int, remote: bool, extended: bool
) -> Tuple[int, int]:
    """SOF through DLC — the arbitration and control fields — as
    ``(big-endian value, bit count)``, validated: the integer twin of the
    bit-list layout in ``tests/bitstream_reference.py``."""
    if remote and dlc:
        raise FrameError("remote frames carry no data")
    if dlc > 8:
        raise FrameError(f"CAN data field is at most 8 bytes, got {dlc}")
    if extended:
        # SOF(0) id[28:18] SRR(1) IDE(1) id[17:0] RTR r1(0) r0(0) DLC
        value = identifier >> 18
        value = (value << 2) | 0b11
        value = (value << 18) | (identifier & 0x3FFFF)
        value = (value << 1) | (1 if remote else 0)
        return (value << 6) | dlc, 39
    if identifier >= 1 << 11:
        raise FrameError(
            f"identifier {identifier:#x} does not fit the standard format"
        )
    # SOF(0) id[10:0] RTR IDE(0) r0(0) DLC
    value = (identifier << 1) | (1 if remote else 0)
    return (value << 6) | dlc, 19


def _header(key: Tuple[int, int, bool, bool]) -> Tuple[int, int, int, int]:
    """What the arbitration and control fields of ``key``'s frames leave
    behind: ``(bit count, CRC register, stuff run state, stuff bits)``."""
    value, nbits = _header_value(*key)
    extra, state = _stuff_run(value, nbits)
    return nbits, _crc15_int(value, nbits), state, extra


#: Upper bound on memoized wire lengths; FIFO eviction past this point.
WIRE_CACHE_MAX = 4096

_wire_cache: Dict[Tuple[int, bytes, bool, bool], int] = {}
_wire_cache_hits = 0
_wire_cache_misses = 0

#: ``(identifier, dlc, remote, extended)`` -> :func:`_header`, FIFO-bounded
#: like the wire-length cache. Every heartbeat of a node shares its header
#: and differs in its counter: a wire-length miss runs the data and CRC only.
_header_cache: Dict[Tuple[int, int, bool, bool], Tuple[int, int, int, int]] = {}


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
    by ``(identifier, data, remote, extended)``. A miss starts from the
    CRC register and stuff state its header left (memoized per
    ``(identifier, dlc, remote, extended)``) and runs the data bytes and
    the CRC sequence through the tables.
    """
    global _wire_cache_hits, _wire_cache_misses
    key = (identifier, data, remote, extended)
    cache = _wire_cache
    total = cache.get(key)
    if total is None:
        _wire_cache_misses += 1
        head = (identifier, len(data), remote, extended)
        header = _header_cache.get(head)
        if header is None:
            header = _header(head)
            if len(_header_cache) >= WIRE_CACHE_MAX:
                _header_cache.pop(next(iter(_header_cache)))
            _header_cache[head] = header
        nbits, crc, state, extra = header
        crc_table = _CRC15_TABLE
        byte_table = _STUFF_BYTE
        for byte in data:
            crc = ((crc << 8) & 0x7FFF) ^ crc_table[((crc >> 7) & 0xFF) ^ byte]
            added, state = byte_table[state][byte]
            extra += added
        # The CRC sequence: its top 7 bits, then its low byte.
        added, state = _STUFF_LEAD[7][state][crc >> 8]
        extra += added
        extra += byte_table[state][crc & 0xFF][0]
        total = nbits + 8 * len(data) + 15 + extra + FRAME_TAIL_BITS
        if len(cache) >= WIRE_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = total
    else:
        _wire_cache_hits += 1
    return total + INTERFRAME_BITS if with_interframe else total


def clear_encoding_cache() -> None:
    """Empty the wire-length memo cache (and the header memo behind it)
    and reset its statistics."""
    global _wire_cache_hits, _wire_cache_misses
    _wire_cache.clear()
    _header_cache.clear()
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
