"""32-bit value and data-width utilities.

The helper cluster operates on *narrow* values: values representable in the
narrow datapath width (8 bits in the paper's design point, §2.1).  Narrowness
is detected in hardware with consecutive-zero / consecutive-one detectors over
the upper bits (Figure 3 of the paper); a value is narrow if its upper 24 bits
are either all zero (small unsigned / positive value) or all one (small
negative value in two's complement).

All values in the simulator are canonical unsigned 32-bit integers
(``0 <= v < 2**32``).  Signedness is a matter of interpretation at the point
of use, exactly as in hardware.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

#: Full machine width in bits (the wide cluster's datapath).
MACHINE_WIDTH: int = 32

#: Narrow (helper cluster) datapath width in bits.
NARROW_WIDTH: int = 8

#: Mask selecting the low ``NARROW_WIDTH`` bits.
NARROW_MASK: int = (1 << NARROW_WIDTH) - 1

#: Mask selecting the full machine word.
WIDE_MASK: int = (1 << MACHINE_WIDTH) - 1

_UPPER_MASK: int = WIDE_MASK ^ NARROW_MASK


def truncate(value: int, width: int = MACHINE_WIDTH) -> int:
    """Truncate ``value`` to an unsigned integer of ``width`` bits."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return value & ((1 << width) - 1)


def zero_extend(value: int, from_width: int) -> int:
    """Zero-extend a ``from_width``-bit value to the full machine width."""
    return truncate(value, from_width)


def sign_extend(value: int, from_width: int, to_width: int = MACHINE_WIDTH) -> int:
    """Sign-extend a ``from_width``-bit value to ``to_width`` bits (unsigned repr)."""
    if from_width <= 0 or to_width < from_width:
        raise ValueError(f"invalid widths from={from_width} to={to_width}")
    value = truncate(value, from_width)
    sign_bit = 1 << (from_width - 1)
    if value & sign_bit:
        value |= ((1 << to_width) - 1) ^ ((1 << from_width) - 1)
    return truncate(value, to_width)


def to_signed(value: int, width: int = MACHINE_WIDTH) -> int:
    """Interpret an unsigned ``width``-bit value as a signed integer."""
    value = truncate(value, width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def leading_zero_count(value: int, width: int = MACHINE_WIDTH) -> int:
    """Number of consecutive zero bits starting from the most significant bit.

    This models the consecutive-zero detector of Figure 3(a).
    """
    value = truncate(value, width)
    if value == 0:
        return width
    return width - value.bit_length()


def leading_one_count(value: int, width: int = MACHINE_WIDTH) -> int:
    """Number of consecutive one bits starting from the most significant bit.

    This models the consecutive-one detector of Figure 3(b), used to detect
    small negative two's complement values.
    """
    value = truncate(value, width)
    return leading_zero_count(value ^ ((1 << width) - 1), width)


def value_width(value: int, width: int = MACHINE_WIDTH) -> int:
    """Minimum number of bits needed to represent ``value`` in two's complement.

    A value whose upper bits are a sign-extension of bit ``k-1`` has width
    ``k``.  ``value_width(0) == 1`` and ``value_width(0xFFFFFFFF) == 1``
    (it is -1, representable in a single bit of two's complement plus sign
    replication), matching the hardware leading-zero/one detector view:
    ``width`` minus the longer of the two leading runs, which is the bit
    length of the value, or of its complement when the sign bit is set.
    """
    value &= (1 << width) - 1
    if value >> (width - 1):
        value ^= (1 << width) - 1
    return value.bit_length() or 1


def is_narrow(value: int, narrow_width: int = NARROW_WIDTH, width: int = MACHINE_WIDTH) -> bool:
    """True if ``value`` is representable in the narrow datapath.

    A value is narrow when its upper ``width - narrow_width`` bits are all
    zero or all one, i.e. it is a zero- or sign-extension of its low
    ``narrow_width`` bits.  This is exactly what the consecutive zero/one
    detectors of §2.1 report.
    """
    upper_bits = width - narrow_width
    if upper_bits <= 0:
        return True
    # Upper bits all zero (zero-extension) or all one (sign-extension):
    # equivalent to the leading zero/one detector counts reaching
    # ``upper_bits``, computed branch-free on the hot path.
    upper = (value & ((1 << width) - 1)) >> narrow_width
    return upper == 0 or upper == (1 << upper_bits) - 1


def detect_narrow(values: Iterable[int], narrow_width: int = NARROW_WIDTH) -> List[bool]:
    """Vector form of :func:`is_narrow` for a sequence of values."""
    return [is_narrow(v, narrow_width) for v in values]


def carry_propagates(a: int, b: int, narrow_width: int = NARROW_WIDTH) -> bool:
    """True if adding ``a + b`` produces a carry out of the low ``narrow_width`` bits.

    The CR scheme (§3.5) steers an (8-bit, 32-bit) -> 32-bit addition to the
    helper cluster when the carry does *not* propagate beyond the low 8 bits,
    because then the upper 24 bits of the result are identical to the upper 24
    bits of the wide source and need not be recomputed.
    """
    mask = (1 << narrow_width) - 1
    return ((a & mask) + (b & mask)) > mask


def upper_bits_unchanged(wide_src: int, result: int, narrow_width: int = NARROW_WIDTH) -> bool:
    """True if ``result`` and ``wide_src`` agree on all bits above ``narrow_width``.

    This is the §3.2(2)/§3.5 condition under which an operation with one wide
    source is "effectively narrow": executing only the low byte in the helper
    cluster reconstructs the full result by reusing the wide source's upper
    bits.
    """
    upper_mask = ((1 << MACHINE_WIDTH) - 1) ^ ((1 << narrow_width) - 1)
    return (truncate(wide_src) & upper_mask) == (truncate(result) & upper_mask)


def split_bytes(value: int, num_chunks: int = 4, chunk_width: int = NARROW_WIDTH) -> List[int]:
    """Split a wide value into ``num_chunks`` chunks of ``chunk_width`` bits, LSB first.

    Used by the IR instruction-splitting scheme (§3.7): a 32-bit operation is
    decomposed into four chained 8-bit operations from least to most
    significant byte.
    """
    value = truncate(value, num_chunks * chunk_width)
    mask = (1 << chunk_width) - 1
    return [(value >> (i * chunk_width)) & mask for i in range(num_chunks)]


def join_bytes(chunks: Sequence[int], chunk_width: int = NARROW_WIDTH) -> int:
    """Inverse of :func:`split_bytes`: reassemble chunks (LSB first) into one value."""
    value = 0
    for i, chunk in enumerate(chunks):
        value |= (chunk & ((1 << chunk_width) - 1)) << (i * chunk_width)
    return truncate(value, len(chunks) * chunk_width)


def add_with_carry(a: int, b: int, carry_in: int = 0, width: int = MACHINE_WIDTH) -> tuple[int, int]:
    """Width-limited addition returning ``(result, carry_out)``."""
    total = truncate(a, width) + truncate(b, width) + (carry_in & 1)
    return truncate(total, width), int(total >> width)


def chunked_add(a: int, b: int, num_chunks: int = 4, chunk_width: int = NARROW_WIDTH) -> int:
    """Add two wide values chunk-by-chunk, propagating the carry through the chain.

    This mirrors how the IR scheme's four chained 8-bit split uops compute a
    32-bit addition on the narrow datapath; it must agree with a plain 32-bit
    add (verified by property tests).
    """
    a_chunks = split_bytes(a, num_chunks, chunk_width)
    b_chunks = split_bytes(b, num_chunks, chunk_width)
    carry = 0
    out_chunks: List[int] = []
    for ca, cb in zip(a_chunks, b_chunks):
        s, carry = add_with_carry(ca, cb, carry, chunk_width)
        out_chunks.append(s)
    return join_bytes(out_chunks, chunk_width)
