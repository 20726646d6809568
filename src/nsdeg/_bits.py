"""Bitset helpers on plain Python ints (bit i = membership of i)."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress, count

#: Maps the digits of bin() to the bytes 0 and 1, for ``compress``.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")

#: Byte i holds the eight bits of i in reverse order, for ``translate``.
_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def ones(n: int) -> int:
    return (1 << n) - 1 if n > 0 else 0


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def bit_positions(mask: int) -> list[int]:
    """Set bits of a nonnegative mask, ascending.

    Linear in the width: the binary digits are scanned once in C, by
    ``str.find`` from one set bit to the next when few bits are set (an
    ideal's generators in a window of thousands) and by ``compress``
    otherwise (a semigroup's gaps).  ``find`` costs per set bit and
    ``compress`` per digit; they break even between 1/12 and 1/8 of the
    bits set, and either scan alone slows the big-rings benchmark down.
    """
    digits = bin(mask)[:1:-1]
    if 8 * mask.bit_count() < len(digits):
        out = []
        i = digits.find("1")
        while i >= 0:
            out.append(i)
            i = digits.find("1", i + 1)
        return out
    return list(compress(count(), digits.encode().translate(_DIGIT_BYTES)))


def indecomposables(mask: int, shifts: Iterable[int]) -> list[int]:
    """Set bits of a nonnegative mask that are not a set bit plus a shift.

    With ``mask`` the positive elements of a semigroup or the elements of
    an ideal, and ``shifts`` generators of the semigroup, these are the
    minimal generators.  A shift at or past the mask's width moves no bit
    onto it and is skipped.
    """
    width = mask.bit_length()
    sums = 0
    for s in shifts:
        if s < width:
            sums |= mask << s
    return bit_positions(mask & ~sums)


def reverse_bits(mask: int, width: int) -> int:
    """Bits 0 .. width-1 of ``mask`` in reverse order; higher bits are dropped.

    Byte-wise, in C: the little-endian bytes of the window, each mapped
    through a 256-entry table to its bit reversal, read back big-endian
    reverse the whole padded width, and a right shift drops the padding.
    Formatting the window as a string of binary digits and parsing it
    back handles a character per bit where the table handles a byte per
    eight bits: it is about six times slower at a width of 2,659 and
    twelve times at a million.
    """
    if width <= 0:
        return 0
    nbytes = (width + 7) // 8
    reversed_bytes = (mask & ones(width)).to_bytes(nbytes, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(reversed_bytes, "big") >> (8 * nbytes - width)


def runs_of_length(mask: int, n: int) -> int:
    """Mask of positions i such that bits i .. i+n-1 are all set."""
    result = mask
    have = 1
    while have < n and result:
        step = min(have, n - have)
        result &= result >> step
        have += step
    return result
