"""Fixed-width bitstring helpers.

Bitstrings are plain str of '0'/'1'.  Position 0 is the leftmost character
and the most significant bit when converting to an integer.
"""

from __future__ import annotations

from itertools import product, starmap
from operator import add
from typing import Iterator


def int_to_bits(value: int, width: int) -> str:
    if value < 0 or value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b") if width else ""


def bits_to_int(bits: str) -> int:
    return int(bits, 2) if bits else 0


def check_bits(bits: str, width: int, what: str = "bitstring") -> str:
    """Validate width and alphabet; returns the input unchanged."""
    if not isinstance(bits, str) or len(bits) != width:
        raise ValueError(f"{what} must be a {width}-bit string, got {bits!r}")
    if bits.strip("01"):
        raise ValueError(f"{what} may contain only '0'/'1', got {bits!r}")
    return bits


def all_bitstrings(width: int) -> Iterator[str]:
    """All width-bit strings in numeric (= lexicographic) order, lazily: each
    high half joined to each low half, so only 2 * 2^(width/2) are formatted."""
    low = width // 2
    # a w-bit half is v + 2^w in binary without its leading 1 ("" for w = 0)
    halves = ([format(v, "b")[1:] for v in range(1 << w, 2 << w)] for w in (width - low, low))
    return starmap(add, product(*halves))


def bits_to_hex(bits: str) -> str:
    """Fixed-width hex: ceil(len/4) nibbles, so width survives round trips."""
    nibbles = (len(bits) + 3) // 4
    return format(bits_to_int(bits), f"0{nibbles}x") if nibbles else ""


def hex_to_bits(hx: str, width: int) -> str:
    """Inverse of bits_to_hex: at most ceil(width/4) plain hex digits."""
    nibbles = (width + 3) // 4
    if hx.strip("0123456789abcdefABCDEF") or len(hx) > nibbles:
        raise ValueError(f"a {width}-bit string takes at most {nibbles} hex digits, got {hx!r}")
    return int_to_bits(int(hx, 16) if hx else 0, width)


def parity(bits: str) -> int:
    return bits.count("1") & 1
