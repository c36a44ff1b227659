"""Batched payload arithmetic: spread-bit integer products against table
lookups over GF(2^k)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wallforms as wf
from wallforms.batched import _batch_arith
from wallforms.errors import TooLarge

FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(8)", "gf(16)", "gf(256)"]


def _degree(arith):
    return arith.order.bit_length() - 1


@pytest.mark.parametrize("literal", FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_products_match_lookups(literal, data):
    """Random broadcast batches, empty and zero operands included."""
    arith = _batch_arith(wf.parse_field(literal))
    n, k, m = (data.draw(st.integers(0, 6)) for _ in range(3))
    batch_a, batch_b = data.draw(st.sampled_from([((), ()), ((3,), (3,)), ((2, 1), (1, 4)),
                                                   ((0,), (0,)), ((5,), ())]))
    zeros = data.draw(st.booleans())

    def stack(*shape):
        if zeros:
            return np.zeros(shape, dtype=np.uint8)
        size = int(np.prod(shape))
        entries = st.lists(st.integers(0, arith.order - 1), min_size=size, max_size=size)
        return np.array(data.draw(entries), dtype=np.uint8).reshape(shape)

    a, b = stack(*batch_a, n, k), stack(*batch_b, k, m)
    assert np.array_equal(arith.matmul(a, b), arith._lookup_matmul(a, b))


@pytest.mark.parametrize("literal", FIELDS)
def test_products_at_and_past_the_exactness_bound(literal):
    """Inner dimensions 255 // k and one more, with every payload bit set
    (the largest byte counts) and at random: the product is exact on both
    sides of the bound, where it changes from spread bits to lookups."""
    arith = _batch_arith(wf.parse_field(literal))
    rng = np.random.default_rng(11)
    limit = 255 // _degree(arith)
    for k in (limit, limit + 1):
        full = np.full((2, k), arith.order - 1, dtype=np.uint8)
        for a, b in ((full, full.T.copy()),
                     (rng.integers(0, arith.order, (3, k), dtype=np.uint8),
                      rng.integers(0, arith.order, (k, 4), dtype=np.uint8))):
            assert np.array_equal(arith.matmul(a, b), arith._lookup_matmul(a, b))


@pytest.mark.parametrize("literal", ["gf(4;x^2+x+1)", "gf(8)", "gf(16)"])
def test_spread_product_needs_its_bound(literal):
    """Past (inner dimension) * k = 255 a byte of the integer product
    carries into the next, so the spread path would answer wrongly there:
    the bound is what keeps it exact."""
    arith = _batch_arith(wf.parse_field(literal))
    k = 255 // _degree(arith) + 1
    a = np.full((1, k), arith.order - 1, dtype=np.uint8)
    spread = arith._reduced(np.matmul(arith._spread[a], arith._spread[a.T.copy()]))
    assert not np.array_equal(spread, arith._lookup_matmul(a, a.T.copy()))


def test_spread_tables_only_for_gf4_to_gf16():
    for literal, spread in (("gf(2)", False), ("gf(4)", True), ("gf(8)", True),
                            ("gf(16)", True), ("gf(32)", False), ("gf(256)", False),
                            ("gf(7)", False)):
        assert (_batch_arith(wf.parse_field(literal))._spread is not None) is spread, literal


MODULAR_FIELDS = ["gf(2)"] + [f"gf({p})" for p in range(3, 98, 2)
                              if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]


@pytest.mark.parametrize("literal", MODULAR_FIELDS)
def test_batch_last_products_reduce_like_remainder(literal):
    """matmul_last over a field whose arithmetic is that of the integers
    mod |F|: at the widest inner dimension whose sums fit uint8 and uint16,
    and one past each (the next dtype), with every entry |F| - 1 (the
    largest sums) and at random, the product reduced in place equals
    np.remainder of the exact integer product."""
    arith = _batch_arith(wf.parse_field(literal))
    assert arith.modular
    q = arith.order
    rng = np.random.default_rng(q)
    for bound in (0xFF, 0xFFFF):
        for k in (bound // (q - 1) ** 2, bound // (q - 1) ** 2 + 1):
            full = np.full((2, k, 3), q - 1, dtype=np.uint8)
            for a, b in ((full, full.transpose(1, 0, 2).copy()),
                         (rng.integers(0, q, (3, k, 5), dtype=np.uint8),
                          rng.integers(0, q, (k, 2, 5), dtype=np.uint8))):
                exact = np.einsum("ikN,kjN->ijN", a.astype(np.int64), b.astype(np.int64))
                got = arith.matmul_last(a, b)
                assert np.array_equal(got, np.remainder(exact, q)), (literal, k)


def test_no_batched_arithmetic_over_an_infinite_field():
    with pytest.raises(TooLarge, match="infinite"):
        _batch_arith(wf.parse_field("gf2(t)"))
