"""The bit-list CAN encoder: the oracle of the integer fast path.

``repro.can.bitstream`` computes wire lengths with a table-driven CRC-15
and an integer stuffing counter. This module is the readable
specification they are checked against: CRC-15 by the shift-register
recurrence, stuffing and destuffing on explicit bit lists, the SOF..CRC
field layout, the exact wire length by that path, and the decoder that
inverts the layout. ``tests/properties/test_bitstream_properties.py`` and
``tests/properties/test_bitstream_fast_properties.py`` compare the two.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.can.bitstream import CRC15_POLY, FRAME_TAIL_BITS, INTERFRAME_BITS
from repro.errors import FrameError


def crc15(bits: Sequence[int]) -> int:
    """CAN CRC-15 over a bit sequence (MSB-first shift register).

    The fast path in ``repro.can.bitstream.exact_frame_bits`` uses a byte
    table built from the same recurrence. Input is validated once up front
    so the shift loop stays branch-lean.
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


@dataclass(frozen=True)
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
