"""Deterministic integer codecs used for every lazy enumeration in the library.

Three codecs live here, each documented bit-exactly because witness back-maps
and transcript indices must be stable across runs and platforms:

* the Cantor diagonal pairing on pairs of naturals (0-based),
* fixed-length tuples of positive naturals via iterated pairing (1-based
  indices; used for strategy-tree levels, product-space points, lifted
  covers),
* finite sets of positive naturals via the binary-subset bijection (used to
  index cofinite-exclusion specs).
"""

from functools import lru_cache
from math import isqrt


def pair(a: int, b: int) -> int:
    """Cantor pairing: (a, b) in N x N -> N, with pair(0, 0) == 0."""
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    if n < 0:
        raise ValueError("unpair expects a nonnegative integer")
    s = (isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b


@lru_cache(maxsize=1 << 16)
def decode_tuple(index: int, length: int) -> tuple[int, ...]:
    """Map a 1-based index to the tuple of positive naturals it encodes.

    Length-1 tuples are the identity (index j encodes (j,)); longer tuples
    split off the first entry with :func:`unpair` on the 0-based code. The
    memo is bounded (least recently used entries go first), so a long
    process keeps at most ``1 << 16`` decoded tuples.
    """
    if index < 1:
        raise ValueError("tuple indices are 1-based")
    if length < 1:
        raise ValueError("length must be at least 1")
    if length == 1:
        return (index,)
    a, b = unpair(index - 1)
    return (a + 1,) + decode_tuple(b + 1, length - 1)


def encode_tuple(entries: tuple[int, ...]) -> int:
    """Inverse of :func:`decode_tuple`: tuple of positive naturals -> 1-based index."""
    if not entries:
        raise ValueError("cannot encode the empty tuple")
    if min(entries) < 1:
        raise ValueError("tuple entries must be positive")
    code = entries[-1]
    for e in reversed(entries[:-1]):
        s = e + code - 2  # pair(e - 1, code - 1) + 1, inlined
        code = s * (s + 1) // 2 + code
    return code


def finseq_from_index(index: int) -> tuple[int, ...]:
    """Enumerate all finite sequences of positive naturals: 1 -> (), then by
    (length, tuple-code) through the Cantor pairing."""
    if index < 1:
        raise ValueError("finseq indices are 1-based")
    if index == 1:
        return ()
    length_code, tuple_code = unpair(index - 2)
    return decode_tuple(tuple_code + 1, length_code + 1)


def excluded_set_index(excluded: frozenset[int]) -> int:
    """Binary-subset bijection: finite set of positive naturals -> 1-based index.

    Element k corresponds to bit k-1 of index-1, so the empty set is index 1.
    Large excluded elements produce large integers; callers treat indices as
    opaque big ints.
    """
    if not excluded:
        return 1
    top = max(excluded)
    if min(excluded) < 1:
        raise ValueError("excluded elements must be positive")
    bits = bytearray((top + 7) // 8)
    for k in excluded:
        bits[(k - 1) >> 3] |= 1 << ((k - 1) & 7)
    return int.from_bytes(bytes(bits), "little") + 1


def excluded_set_from_index(index: int) -> frozenset[int]:
    """Inverse of :func:`excluded_set_index`."""
    if index < 1:
        raise ValueError("subset indices are 1-based")
    code = index - 1
    out = []
    data = code.to_bytes((code.bit_length() + 7) // 8 or 1, "little")
    for byte_pos, byte in enumerate(data):
        if not byte:
            continue
        base = byte_pos << 3
        for bit in range(8):
            if byte & (1 << bit):
                out.append(base + bit + 1)
    return frozenset(out)
