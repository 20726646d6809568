"""Bitset helpers on plain Python ints (bit i = membership of i)."""

from __future__ import annotations

from itertools import compress, count

#: Maps the digits of bin() to the bytes 0 and 1, for ``compress``.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


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


def reverse_bits(mask: int, width: int) -> int:
    if width <= 0:
        return 0
    return int(format(mask & ones(width), f"0{width}b")[::-1], 2)


def runs_of_length(mask: int, n: int) -> int:
    """Mask of positions i such that bits i .. i+n-1 are all set."""
    result = mask
    have = 1
    while have < n and result:
        step = min(have, n - have)
        result &= result >> step
        have += step
    return result
