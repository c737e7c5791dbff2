from collections import deque

import pytest
from hypothesis import given, strategies as st

from nwgame.bits import (
    all_bitstrings,
    bits_to_hex,
    bits_to_int,
    check_bits,
    hex_to_bits,
    int_to_bits,
    parity,
)


def test_int_bits_round_trip_small():
    assert int_to_bits(5, 4) == "0101"
    assert bits_to_int("0101") == 5
    assert int_to_bits(0, 0) == ""
    assert bits_to_int("") == 0


def test_index_zero_is_most_significant():
    assert int_to_bits(8, 4) == "1000"


def test_int_to_bits_rejects_overflow_and_negatives():
    with pytest.raises(ValueError):
        int_to_bits(16, 4)
    with pytest.raises(ValueError):
        int_to_bits(-1, 4)


@given(st.integers(min_value=0, max_value=12), st.data())
def test_round_trip_property(width, data):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    bits = int_to_bits(value, width)
    assert len(bits) == width
    assert bits_to_int(bits) == value
    assert hex_to_bits(bits_to_hex(bits), width) == bits


@pytest.mark.parametrize("hx", ["0x1f", "1_f", " 1f\n", "+1f", "-1f", "1f ", "٣", "00001f"])
def test_hex_to_bits_takes_plain_digits_only(hx):
    with pytest.raises(ValueError):
        hex_to_bits(hx, 16)


def test_hex_to_bits_takes_either_case_and_short_forms():
    assert hex_to_bits("1F", 8) == hex_to_bits("1f", 8) == "00011111"
    assert hex_to_bits("f", 8) == "00001111"
    assert hex_to_bits("", 0) == ""


def test_hex_is_fixed_width():
    assert bits_to_hex("00001") == "01"
    assert bits_to_hex("0000") == "0"
    assert bits_to_hex("100000000") == "100"


def test_all_bitstrings_order_and_count():
    # format(0, "00b") is "0", so width 0 is checked on its own
    assert list(all_bitstrings(0)) == [""]
    for width in range(1, 17):
        assert list(all_bitstrings(width)) == [format(v, f"0{width}b") for v in range(2**width)]
    # width 20 walked once without keeping the strings
    [(last_index, last)] = deque(enumerate(all_bitstrings(20)), maxlen=1)
    assert (next(all_bitstrings(20)), last_index + 1, last) == ("0" * 20, 2**20, "1" * 20)


def test_check_bits_rejects_bad_alphabet_and_width():
    assert check_bits("0101", 4) == "0101"
    with pytest.raises(ValueError):
        check_bits("0102", 4)
    with pytest.raises(ValueError):
        check_bits("010", 4)


def test_parity():
    assert parity("0110") == 0
    assert parity("0111") == 1
    assert parity("") == 0
