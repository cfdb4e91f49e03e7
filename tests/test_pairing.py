import pytest
from hypothesis import given, strategies as st

from selectiongames.pairing import (
    decode_tuple,
    encode_tuple,
    excluded_set_from_index,
    excluded_set_index,
    finseq_from_index,
    pair,
    unpair,
)


def finseq_index(seq: tuple[int, ...]) -> int:
    """Inverse of :func:`finseq_from_index`."""
    if not seq:
        return 1
    return pair(len(seq) - 1, encode_tuple(seq) - 1) + 2


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_pair_round_trip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(min_value=0, max_value=10**6))
def test_unpair_round_trip(n):
    a, b = unpair(n)
    assert pair(a, b) == n


def test_pair_base_cases():
    assert pair(0, 0) == 0
    assert [unpair(n) for n in range(5)] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=5).map(tuple))
def test_tuple_codec_round_trip(entries):
    assert decode_tuple(encode_tuple(entries), len(entries)) == entries


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=4))
def test_tuple_codec_is_bijective_on_indices(index, length):
    assert encode_tuple(decode_tuple(index, length)) == index


def test_decode_cache_is_bounded():
    maxsize = decode_tuple.cache_info().maxsize
    assert maxsize is not None
    decode_tuple.cache_clear()
    for index in range(1, maxsize + 1000):
        assert encode_tuple(decode_tuple(index, 2)) == index
    assert decode_tuple.cache_info().currsize <= maxsize
    for index in (1, 2, maxsize // 2, maxsize + 999):
        assert encode_tuple(decode_tuple(index, 3)) == index


def test_tuple_codec_level_one_is_identity():
    assert [decode_tuple(j, 1) for j in range(1, 5)] == [(1,), (2,), (3,), (4,)]


@given(st.integers(min_value=1, max_value=3000))
def test_finseq_round_trip(index):
    assert finseq_index(finseq_from_index(index)) == index


def test_finseq_starts_with_empty():
    assert finseq_from_index(1) == ()


@given(st.frozensets(st.integers(min_value=1, max_value=64), max_size=12))
def test_excluded_set_round_trip(excluded):
    assert excluded_set_from_index(excluded_set_index(excluded)) == excluded


def test_excluded_set_empty_is_one():
    assert excluded_set_index(frozenset()) == 1
    assert excluded_set_from_index(1) == frozenset()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: encode_tuple(()), "cannot encode the empty tuple"),
        (lambda: encode_tuple((0,)), "tuple entries must be positive"),
        (lambda: encode_tuple((3, -1, 2)), "tuple entries must be positive"),
        (lambda: encode_tuple((2, 5, 0)), "tuple entries must be positive"),
        (lambda: decode_tuple(0, 2), "tuple indices are 1-based"),
        (lambda: decode_tuple(3, 0), "length must be at least 1"),
        (lambda: unpair(-1), "unpair expects a nonnegative integer"),
        (lambda: excluded_set_index(frozenset({0, 3})), "excluded elements must be positive"),
        (lambda: excluded_set_from_index(0), "subset indices are 1-based"),
    ],
)
def test_codecs_reject_out_of_range_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
