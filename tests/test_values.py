"""Unit and property tests for the data-width value utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.values import (
    MACHINE_WIDTH,
    NARROW_WIDTH,
    WIDE_MASK,
    add_with_carry,
    carry_propagates,
    chunked_add,
    is_narrow,
    join_bytes,
    leading_one_count,
    leading_zero_count,
    sign_extend,
    split_bytes,
    to_signed,
    truncate,
    upper_bits_unchanged,
    value_width,
    zero_extend,
)

u32 = st.integers(min_value=0, max_value=WIDE_MASK)


class TestTruncate:
    def test_truncate_in_range(self):
        assert truncate(0x1234) == 0x1234

    def test_truncate_wraps(self):
        assert truncate(1 << 32) == 0
        assert truncate((1 << 32) + 5) == 5

    def test_truncate_custom_width(self):
        assert truncate(0x1FF, 8) == 0xFF

    def test_truncate_rejects_bad_width(self):
        with pytest.raises(ValueError):
            truncate(1, 0)


class TestExtension:
    def test_zero_extend(self):
        assert zero_extend(0xFF, 8) == 0xFF

    def test_sign_extend_positive(self):
        assert sign_extend(0x7F, 8) == 0x7F

    def test_sign_extend_negative(self):
        assert sign_extend(0x80, 8) == 0xFFFFFF80
        assert sign_extend(0xFF, 8) == 0xFFFFFFFF

    def test_sign_extend_bad_widths(self):
        with pytest.raises(ValueError):
            sign_extend(1, 0)
        with pytest.raises(ValueError):
            sign_extend(1, 16, 8)

    def test_to_signed(self):
        assert to_signed(0xFFFFFFFF) == -1
        assert to_signed(5) == 5


class TestLeadingDetectors:
    def test_zero_value(self):
        assert leading_zero_count(0) == MACHINE_WIDTH
        assert leading_one_count(0) == 0

    def test_all_ones(self):
        assert leading_one_count(0xFFFFFFFF) == MACHINE_WIDTH
        assert leading_zero_count(0xFFFFFFFF) == 0

    def test_small_value(self):
        assert leading_zero_count(1) == 31
        assert leading_zero_count(0xFF) == 24

    def test_leading_ones_small_negative(self):
        # -1 .. -128 in two's complement have >= 24 leading ones.
        assert leading_one_count(truncate(-5)) >= 24

    @given(u32)
    def test_value_width_is_the_detector_view(self, value):
        # value_width is the machine width minus the longer leading run.
        redundant = max(leading_zero_count(value), leading_one_count(value))
        assert value_width(value) == max(1, MACHINE_WIDTH - redundant)

    @given(u32)
    def test_detector_counts_complementary(self, value):
        # At most one of the two detectors can report a nonzero count.
        lz = leading_zero_count(value)
        lo = leading_one_count(value)
        assert lz == 0 or lo == 0 or value in (0, WIDE_MASK)


class TestNarrowness:
    def test_zero_is_narrow(self):
        assert is_narrow(0)

    def test_255_boundary(self):
        assert is_narrow(0xFF)
        assert not is_narrow(0x100)

    def test_small_negative_is_narrow(self):
        assert is_narrow(truncate(-1))
        assert is_narrow(truncate(-128))

    def test_wide_negative_not_narrow(self):
        assert not is_narrow(truncate(-300))

    def test_custom_narrow_width(self):
        assert is_narrow(0xFFFF, narrow_width=16)
        assert not is_narrow(0x1FFFF, narrow_width=16)

    def test_narrow_width_equal_machine_width(self):
        assert is_narrow(0xDEADBEEF, narrow_width=32)

    @given(st.integers(min_value=0, max_value=0xFF))
    def test_all_byte_values_narrow(self, value):
        assert is_narrow(value)

    @given(u32)
    def test_narrow_iff_sign_extension_of_low_byte(self, value):
        expected = sign_extend(value & 0xFF, NARROW_WIDTH) == value or (value >> 8) == 0
        assert is_narrow(value) == expected

    @given(u32)
    def test_value_width_consistent_with_is_narrow(self, value):
        # A value is narrow exactly when its two's complement width fits in
        # the narrow width (allowing the unsigned 0..2**w-1 range as well).
        # MicroOp stores widths and turns every narrowness oracle into this
        # integer compare, so it must hold at every datapath width.
        width = value_width(value)
        if width <= NARROW_WIDTH:
            assert is_narrow(value)
        for narrow_width in range(1, MACHINE_WIDTH + 1):
            assert is_narrow(value, narrow_width) == (width <= narrow_width)


class TestCarry:
    def test_no_carry(self):
        assert not carry_propagates(0x10, 0x20)

    def test_carry(self):
        assert carry_propagates(0xFF, 0x01)

    def test_carry_only_low_bytes_matter(self):
        assert not carry_propagates(0xFFFFFF00, 0x00000001)

    def test_upper_bits_unchanged(self):
        base = 0xFFFC4A02
        offset = 0x1C
        result = truncate(base + offset)
        assert upper_bits_unchanged(base, result)

    def test_upper_bits_changed_on_carry(self):
        base = 0x000000F0
        offset = 0x20
        result = truncate(base + offset)
        assert not upper_bits_unchanged(base, result)

    @given(u32, st.integers(min_value=0, max_value=0xFF))
    def test_carry_predicts_upper_bits(self, base, offset):
        # The CR scheme's core invariant: the upper 24 bits of base+offset
        # equal those of base exactly when no carry leaves the low byte.
        result = truncate(base + offset)
        assert upper_bits_unchanged(base, result) == (not carry_propagates(base, offset))


class TestSplitJoin:
    def test_split_bytes_roundtrip_simple(self):
        assert split_bytes(0x04030201) == [0x01, 0x02, 0x03, 0x04]
        assert join_bytes([0x01, 0x02, 0x03, 0x04]) == 0x04030201

    @given(u32)
    def test_split_join_roundtrip(self, value):
        assert join_bytes(split_bytes(value)) == value

    @given(u32)
    def test_split_chunks_are_narrow(self, value):
        for chunk in split_bytes(value):
            assert 0 <= chunk <= 0xFF

    def test_add_with_carry(self):
        assert add_with_carry(0xFFFFFFFF, 1) == (0, 1)
        assert add_with_carry(1, 2) == (3, 0)

    @given(u32, u32)
    def test_chunked_add_matches_wide_add(self, a, b):
        # IR's chained 8-bit split execution must agree with the 32-bit ALU.
        assert chunked_add(a, b) == truncate(a + b)
