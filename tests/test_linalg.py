"""Exact linear algebra over the library fields."""

import functools
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wallforms as wf
from wallforms.errors import DescriptorMismatch, DimensionMismatch, SingularMatrix
from wallforms.fields import FieldElement, Galois2Field, PrimeField, field_tables
from wallforms.linalg import (PACKED_WIDTH, Matrix, _BitKernel, _Char2Kernel, _combination, _Kernel,
                             _kernel, _row_forms, bilinear, kron, mat_vec, stack_rows)


def _random_matrix(field, n, rng):
    elems = list(field.elements())
    return Matrix(field, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("literal", ["gf(2)", "gf(4;x^2+x+1)", "gf(7)"])
def test_rref_idempotent_and_rank(literal):
    field = wf.parse_field(literal)
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(field, 4, rng)
        red, pivots = m.rref()
        red2, pivots2 = red.rref()
        assert red2 == red and pivots2 == pivots
        assert m.rank() == len(pivots)


@pytest.mark.parametrize("literal", ["gf(2)", "gf(7)"])
def test_kernel_vectors_annihilate(literal):
    field = wf.parse_field(literal)
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(field, 4, rng)
        for v in m.kernel_basis():
            assert all(not c for c in mat_vec(m, v))
        assert m.rank() + len(m.kernel_basis()) == 4


def test_solve_finds_solutions(f7):
    rng = random.Random(13)
    elems = list(f7.elements())
    for _ in range(25):
        m = _random_matrix(f7, 3, rng)
        x = tuple(rng.choice(elems) for _ in range(3))
        b = mat_vec(m, x)
        sol = m.solve(b)
        assert sol is not None
        assert mat_vec(m, sol) == b


def test_solve_detects_inconsistency(f2):
    m = Matrix.from_ints(f2, [[1, 0], [1, 0]])
    assert m.solve((f2.zero, f2.one)) is None


def test_inverse_roundtrip(f4):
    rng = random.Random(17)
    found = 0
    while found < 10:
        m = _random_matrix(f4, 3, rng)
        if not m.det():
            continue
        found += 1
        assert m * m.inverse() == Matrix.identity(f4, 3)
        assert m.inverse() * m == Matrix.identity(f4, 3)


def test_inverse_raises_on_singular(f2):
    with pytest.raises(SingularMatrix):
        Matrix.from_ints(f2, [[1, 1], [1, 1]]).inverse()


def test_det_multiplicative(f7):
    rng = random.Random(19)
    for _ in range(20):
        a = _random_matrix(f7, 3, rng)
        b = _random_matrix(f7, 3, rng)
        assert (a * b).det() == a.det() * b.det()


def test_det_vs_rank(f7):
    rng = random.Random(23)
    for _ in range(30):
        m = _random_matrix(f7, 3, rng)
        assert bool(m.det()) == (m.rank() == 3)


def test_bilinear_and_matvec(f7):
    g = Matrix.from_ints(f7, [[0, 1], [1, 0]])
    x = (f7.one, f7.zero)
    y = (f7.zero, f7.one)
    assert bilinear(x, g, y) == f7.one
    assert bilinear(x, g, x) == f7.zero


def test_kron_matches_blockwise(f2):
    a = Matrix.from_ints(f2, [[1, 1], [0, 1]])
    b = Matrix.from_ints(f2, [[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.shape == (4, 4)
    for i in range(2):
        for j in range(2):
            for r in range(2):
                for c in range(2):
                    assert k[2 * i + r, 2 * j + c] == a[i, j] * b[r, c]


def test_kron_multiplicative(f4):
    rng = random.Random(29)
    a1, a2 = (_random_matrix(f4, 2, rng) for _ in range(2))
    b1, b2 = (_random_matrix(f4, 2, rng) for _ in range(2))
    assert kron(a1, b1) * kron(a2, b2) == kron(a1 * a2, b1 * b2)


def test_empty_matrix_shapes(f2):
    empty = Matrix(f2, [], ncols=4)
    assert empty.shape == (0, 4)
    assert empty.transpose().shape == (4, 0)
    product = empty * Matrix.identity(f2, 4)
    assert product.shape == (0, 4)
    assert len(empty.kernel_basis()) == 4


def test_power(f7):
    m = Matrix.from_ints(f7, [[1, 1], [0, 1]])
    assert m.power(0) == Matrix.identity(f7, 2)
    assert m.power(3) == m * m * m


# ---------------------------------------------------------------------------
# entries must be elements of the matrix's field
# ---------------------------------------------------------------------------

def test_foreign_field_entry_raises(f7):
    f2 = wf.parse_field("gf(2)")
    with pytest.raises(DescriptorMismatch):
        Matrix(f7, [[f2.one, f7.zero], [f7.zero, f7.one]])
    with pytest.raises(DescriptorMismatch):
        Matrix(wf.parse_field("gf(8)"), [[wf.parse_field("gf(8;x^3+x^2+1)").one]])


def test_plain_int_entry_raises(f7):
    with pytest.raises(DescriptorMismatch):
        Matrix(f7, [[1, f7.zero], [f7.zero, f7.one]])
    with pytest.raises(DescriptorMismatch):
        Matrix.identity(f7, 2).solve((1, 0))
    with pytest.raises(DescriptorMismatch):
        Matrix.identity(f7, 2).scale(3)


def test_equal_fields_mix(f7):
    again = wf.PrimeField(7)  # equal, but not the interned field
    m = Matrix(f7, [[again.one, f7.zero]])
    assert m == Matrix(again, [[f7.one, again.zero]])
    assert hash(m) == hash(Matrix(again, [[f7.one, again.zero]]))


@pytest.mark.parametrize("literal, bad", [
    ("gf(7)", 7), ("gf(7)", -1), ("gf(7)", True), ("gf(7)", 1.0),
    ("gf(4)", 4), ("gf2(t)", (2, 2)), ("gf2(t)", (1, 0)), ("gf2(t)", 1),
])
def test_from_payloads_checks_range(literal, bad):
    field = wf.parse_field(literal)
    with pytest.raises(DescriptorMismatch):
        Matrix.from_payloads(field, [[field.zero.payload, bad]])


def test_from_payloads_roundtrip(f4, ft):
    m = Matrix.from_payloads(f4, [[0, 1], [2, 3]])
    assert m == Matrix(f4, [[f4.element(p) for p in row] for row in ((0, 1), (2, 3))])
    t = Matrix.from_payloads(ft, [[(2, 3), (0, 1)]])
    assert t[0, 0] == ft.fraction(2, 3) and t[0, 1] == ft.zero


# ---------------------------------------------------------------------------
# shared tables and interned elements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("literal", ["gf(2)", "gf(4;x^2+x+1)", "gf(16)", "gf(7)"])
def test_tables_are_shared_by_equal_fields(literal):
    from wallforms.oracle import _batch_arith

    a = wf.parse_field(literal)
    # the constructor builds an equal field that is not the interned one
    b = Galois2Field(a.k, a.modulus) if isinstance(a, Galois2Field) else PrimeField(a.p)
    assert a is not b and a == b
    assert field_tables(a) is field_tables(b)
    assert _batch_arith(a)._mul.tolist() == [list(r) for r in field_tables(b).mul]
    if isinstance(a, Galois2Field):
        assert a._mul_table is field_tables(b).mul


def test_finite_fields_intern_elements(f7, f4):
    assert f7.one + f7.one is f7.from_int(2)
    assert Matrix.identity(f4, 2)[0, 0] is f4.one
    assert Matrix.identity(f4, 2).rows[1][0] is f4.zero


# ---------------------------------------------------------------------------
# differential tests: the payload kernel against a boxed reference written
# from the definitions (FieldElement Gauss-Jordan, triple-loop product,
# Leibniz determinant)
# ---------------------------------------------------------------------------

KERNEL_FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(256)", "gf(7)", "gf(97)", "gf2(t)"]


@st.composite
def _element(draw, field):
    if draw(st.integers(0, 2)) == 0:
        return field.zero  # zeros often, so that ranks drop
    if field.kind == "ratfunc":
        return field.fraction(draw(st.integers(0, 15)), draw(st.integers(1, 15)))
    return field.element(draw(st.integers(0, field.order() - 1)))


@st.composite
def _matrix(draw, field, m=None, n=None):
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(1, 4)) if n is None else n
    return Matrix(field, [[draw(_element(field)) for _ in range(n)] for _ in range(m)])


def _ref_product(field, a, b):
    return [[functools.reduce(lambda acc, k: acc + a[i][k] * b[k][j], range(len(b)), field.zero)
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_rref(field, rows):
    rows = [list(r) for r in rows]
    pivots, lead = [], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(lead, len(rows)) if rows[r][col] != field.zero), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        inv = field.one / rows[lead][col]
        rows[lead] = [inv * a for a in rows[lead]]
        for r in range(len(rows)):
            if r != lead:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[lead])]
        pivots.append(col)
        lead += 1
    return rows, tuple(pivots)


def _ref_det(field, rows):
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = field.one if inversions % 2 == 0 else -field.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def _boxed(m):
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def _settings():
    return settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("literal", KERNEL_FIELDS)
@given(data=st.data())
@_settings()
def test_kernel_elimination_matches_reference(literal, data):
    field = wf.parse_field(literal)
    a = data.draw(_matrix(field))
    rows = _boxed(a)
    red, pivots = a.rref()
    ref_red, ref_pivots = _ref_rref(field, rows)
    assert pivots == ref_pivots and _boxed(red) == ref_red
    assert a.rank() == len(ref_pivots)

    kernel = a.kernel_basis()
    assert len(kernel) == a.ncols - len(ref_pivots)
    for v in kernel:
        assert all(x == field.zero for row in _ref_product(field, rows, [[c] for c in v])
                   for x in row)
    if kernel:
        assert Matrix(field, kernel).rank() == len(kernel)

    b = tuple(data.draw(_element(field)) for _ in range(a.nrows))
    aug_red, aug_pivots = _ref_rref(field, [r + [c] for r, c in zip(rows, b)])
    x = a.solve(b)
    if a.ncols in aug_pivots:
        assert x is None
    else:
        expected = [field.zero] * a.ncols
        for r, pc in enumerate(aug_pivots):
            expected[pc] = aug_red[r][a.ncols]
        assert x == tuple(expected)
        assert [row[0] for row in _ref_product(field, rows, [[c] for c in x])] == list(b)


@pytest.mark.parametrize("literal", KERNEL_FIELDS)
@given(data=st.data())
@_settings()
def test_kernel_det_and_inverse_match_reference(literal, data):
    field = wf.parse_field(literal)
    n = data.draw(st.integers(1, 4))
    a = data.draw(_matrix(field, n, n))
    det = _ref_det(field, _boxed(a))
    assert a.det() == det
    ident = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    if det == field.zero:
        with pytest.raises(SingularMatrix):
            a.inverse()
    else:
        inv = _boxed(a.inverse())
        assert _ref_product(field, _boxed(a), inv) == ident
        assert _ref_product(field, inv, _boxed(a)) == ident


@pytest.mark.parametrize("literal", KERNEL_FIELDS)
@given(data=st.data())
@_settings()
def test_kernel_arithmetic_matches_reference(literal, data):
    field = wf.parse_field(literal)
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, a2 = data.draw(_matrix(field, m, k)), data.draw(_matrix(field, m, k))
    b = data.draw(_matrix(field, k, n))
    c = data.draw(_element(field))
    ra, ra2, rb = _boxed(a), _boxed(a2), _boxed(b)
    assert _boxed(a * b) == _ref_product(field, ra, rb)
    assert _boxed(a + a2) == [[x + y for x, y in zip(r, s)] for r, s in zip(ra, ra2)]
    assert _boxed(a - a2) == [[x - y for x, y in zip(r, s)] for r, s in zip(ra, ra2)]
    assert _boxed(-a) == [[-x for x in r] for r in ra]
    assert _boxed(a.scale(c)) == [[c * x for x in r] for r in ra]
    assert _boxed(a.transpose()) == [list(col) for col in zip(*ra)]
    v = tuple(data.draw(_element(field)) for _ in range(k))
    assert mat_vec(a, v) == tuple(row[0] for row in _ref_product(field, ra, [[x] for x in v]))

    # equality and hashing agree with entrywise element equality
    again = wf.parse_field(literal)
    same = Matrix(again, [[again.element(x.payload) for x in r] for r in ra])
    assert same == a and hash(same) == hash(a)
    assert (a == a2) == (ra == ra2)
    for row, boxed_row in zip(a.rows, ra):
        assert row == tuple(boxed_row)
        assert all(isinstance(e, FieldElement) and e.field == field for e in row)


@pytest.mark.parametrize("literal", ["gf(7)", "gf(4;x^2+x+1)", "gf2(t)"])
@pytest.mark.parametrize("bad", [1.5, 2.0, None])
def test_from_ints_rejects_non_integers(literal, bad):
    field = wf.parse_field(literal)
    with pytest.raises(DescriptorMismatch):
        Matrix.from_ints(field, [[1, bad], [0, 1]])


def _ref_solve(field, rows, b):
    """The particular solution of A x = b with free variables zero, from the
    boxed reference elimination of [A | b], or None."""
    ncols = len(rows[0])
    red, pivots = _ref_rref(field, [r + [c] for r, c in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


@pytest.mark.parametrize("literal", ["gf(2)", "gf(4;x^2+x+1)", "gf(7)", "gf2(t)"])
@given(data=st.data())
@_settings()
def test_solve_many_is_one_solve_per_right_hand_side(literal, data):
    """Pivots in the A part of [A | b_1 ... b_k] do not depend on the b's:
    each row of the many-sided solution is what one solve gives, and the
    whole is None exactly when one of the systems has no solution."""
    field = wf.parse_field(literal)
    a = data.draw(_matrix(field))
    k = data.draw(st.integers(0, 4))
    rhs = [tuple(data.draw(_element(field)) for _ in range(a.nrows)) for _ in range(k)]
    if data.draw(st.booleans()):
        # right-hand sides in the column space, so that most are solvable
        rhs = [mat_vec(a, x) for x in (data.draw(st.tuples(*[_element(field)] * a.ncols))
                                        for _ in range(k))]
    singles = [a.solve(b) for b in rhs]
    assert singles == [_ref_solve(field, _boxed(a), list(b)) for b in rhs]
    found = a.solve_many(Matrix(field, rhs, ncols=a.nrows))
    if None in singles:
        assert found is None
    else:
        assert found.rows == tuple(singles) and found.shape == (k, a.ncols)


@pytest.mark.parametrize("literal", KERNEL_FIELDS)
@given(data=st.data())
@_settings()
def test_kernel_rows_are_the_unboxed_kernel_basis(literal, data):
    field = wf.parse_field(literal)
    a = data.draw(_matrix(field))
    rows = a.kernel_rows()
    assert all(type(r) is tuple and len(r) == a.ncols for r in rows)
    assert tuple(field.wrap_all(r) for r in rows) == a.kernel_basis()
    if rows:
        assert (a * Matrix.from_payloads(field, rows).transpose()).is_zero()


def test_solve_many_checks_its_operands(f7, f4):
    a = Matrix.identity(f7, 2)
    with pytest.raises(DimensionMismatch):
        a.solve_many(Matrix.identity(f7, 3))
    with pytest.raises(DimensionMismatch):
        a.solve_many(Matrix.identity(f4, 2))
    assert a.solve_many(Matrix.zeros(f7, 0, 2)) == Matrix.zeros(f7, 0, 2)


# packed rows against the tuple loops over GF(2^k): the same pivots, swaps
# and row operations, so equal results, at every width on either side of
# PACKED_WIDTH.  GF(2)'s kernel runs on bit rows at every width (converted
# through tables up to PACKED_WIDTH, through binary digits past it), and the
# byte-packed loops serve GF(4) and up.
# ---------------------------------------------------------------------------

PACKED_FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(8)", "gf(16)", "gf(256)"]


@st.composite
def _payload_rows(draw, order, m, width):
    """m payload rows of one width: zeros often, and some rows all zero.
    A GF(2) row is the AND of two ints drawn at once (a quarter of its
    entries 1), which keeps rows 70 wide cheap to draw."""
    if order == 2:
        ints = st.tuples(*[st.integers(0, (1 << width) - 1)] * 2).map(lambda xy: xy[0] & xy[1])
        row = ints.map(lambda x: tuple(x >> (width - 1 - j) & 1 for j in range(width)))
    else:
        entry = st.one_of(st.just(0), st.just(0), st.integers(1, order - 1))
        row = st.tuples(*[entry] * width)
    return tuple(draw(st.one_of(st.just((0,) * width), row)) for _ in range(m))


def _widest(field):
    """GF(2) rows convert through binary digits past PACKED_WIDTH: draw
    them up to 70 wide; the byte-packed loops switch at PACKED_WIDTH."""
    return 70 if field.order() == 2 else 20


@pytest.mark.parametrize("literal", PACKED_FIELDS)
@given(data=st.data())
@_settings()
def test_packed_elimination_matches_the_tuple_loop(literal, data):
    field = wf.parse_field(literal)
    kernel = _kernel(field)
    m, width = data.draw(st.integers(0, 20)), data.draw(st.integers(0, _widest(field)))
    ncols = data.draw(st.integers(0, width))  # rows wider than the pivot columns too
    rows = data.draw(_payload_rows(field.order(), m, width))
    expected = _Kernel.gauss_jordan(kernel, rows, ncols, width)
    red, pivots = kernel.gauss_jordan(kernel.pack(rows, width), ncols, width)
    assert (kernel.unpack(red, width), pivots) == expected
    if field.order() > 2:
        assert kernel._packed_gauss_jordan(rows, ncols) == expected


@pytest.mark.parametrize("literal", PACKED_FIELDS)
@given(data=st.data())
@_settings()
def test_packed_product_matches_the_tuple_loops(literal, data):
    field = wf.parse_field(literal)
    kernel = _kernel(field)
    widest = _widest(field)
    m, k, n = (data.draw(st.integers(0, 6)), data.draw(st.integers(1, widest)),
               data.draw(st.integers(0, widest)))
    a = data.draw(_payload_rows(field.order(), m, k))
    b = data.draw(_payload_rows(field.order(), k, n))
    expected = _Kernel.matmul(kernel, a, b, n)  # one lookup dot product per entry
    assert kernel.unpack(kernel.matmul(kernel.pack(a, k), kernel.pack(b, n), n), n) == expected
    if field.order() > 2:
        assert kernel._packed_matmul(a, b, n) == expected


def test_packed_elimination_is_what_matrices_use(f4):
    """A 64 x 16 system over GF(4) (the size of a transport system on H4):
    the public rref, the packed loop and the boxed reference agree."""
    rng = random.Random(5)
    a = Matrix.from_payloads(f4, [[rng.choice((0, 0, 1, 2, 3)) for _ in range(16)]
                                  for _ in range(64)])
    red, pivots = a.rref()
    assert (red.payload_rows, pivots) == _kernel(f4)._packed_gauss_jordan(a.payload_rows, 16)
    ref_red, ref_pivots = _ref_rref(f4, _boxed(a))
    assert pivots == ref_pivots and _boxed(red) == ref_red


# ---------------------------------------------------------------------------
# GF(2) matrices on bit rows against the boxed reference, conversions both
# ways on both sides of PACKED_WIDTH, and the one path every operation takes
# (the bit kernel against the tuple loops is in the packed tests above)
# ---------------------------------------------------------------------------

def _bit_rows(draw, m, width):
    return draw(_payload_rows(2, m, width))


@given(data=st.data())
@_settings()
def test_bit_rows_convert_both_ways(f2, data):
    width = data.draw(st.integers(0, 70))
    rows = _bit_rows(data.draw, data.draw(st.integers(0, 5)), width)
    kernel = _kernel(f2)
    packed = kernel.pack(rows, width)
    assert packed == tuple(int("".join(map(str, r)) or "0", 2) for r in rows)
    assert kernel.unpack(packed, width) == rows


@given(data=st.data())
@_settings()
def test_bit_matrices_match_the_boxed_reference(f2, data):
    """det, inverse, rank, kernel_rows, solve_many and transpose of GF(2)
    matrices against the boxed reference elimination."""
    m, n = data.draw(st.integers(1, 20)), data.draw(st.integers(0, 20))
    if data.draw(st.booleans()):
        n = m  # square: det and inverse
    a = Matrix.from_payloads(f2, _bit_rows(data.draw, m, n), n)
    rows = _boxed(a)
    ref_red, ref_pivots = _ref_rref(f2, rows)
    red, pivots = a.rref()
    assert pivots == ref_pivots and _boxed(red) == ref_red
    assert a.rank() == len(ref_pivots)
    assert _boxed(a.transpose()) == [list(c) for c in zip(*rows)] and a.transpose().shape == (n, m)

    # the kernel basis: one row per free column, 1 there, the pivot rows' entries at the pivots
    expected = []
    for f in (c for c in range(n) if c not in ref_pivots):
        v = [f2.zero] * n
        v[f] = f2.one
        for r, pc in enumerate(ref_pivots):
            v[pc] = -ref_red[r][f]
        expected.append(tuple(x.payload for x in v))
    assert a.kernel_rows() == tuple(expected)

    k = data.draw(st.integers(0, 4))
    rhs = [tuple(data.draw(_element(f2)) for _ in range(m)) for _ in range(k)]
    singles = [_ref_solve(f2, rows, list(b)) for b in rhs]
    found = a.solve_many(Matrix(f2, rhs, ncols=m))
    if None in singles:
        assert found is None
    else:
        assert found.rows == tuple(singles) and found.shape == (k, n)

    if m == n:
        assert a.det() == (f2.one if len(ref_pivots) == n else f2.zero)
        if len(ref_pivots) == n:
            ident = [[f2.one if i == j else f2.zero for j in range(n)] for i in range(n)]
            assert _ref_product(f2, rows, _boxed(a.inverse())) == ident
        else:
            with pytest.raises(SingularMatrix):
                a.inverse()


@given(data=st.data())
@_settings()
def test_bit_matrices_equal_their_payload_twins(f2, data):
    """A GF(2) matrix the kernel made (bit rows, payload rows unpacked on
    first read) and the same matrix built from payload rows (bit rows
    packed on first use) compare and hash equal, whichever is read first."""
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 70))
    rows = _bit_rows(data.draw, m, n)
    made = Matrix.from_payloads(f2, rows, n).transpose().transpose()  # kernel-made
    twin = Matrix.from_payloads(f2, rows, n)
    assert made == twin and hash(made) == hash(twin)
    assert made.payload_rows == rows and made.shape == twin.shape == (m, n)
    assert (made + twin).is_zero() and (made - twin) == Matrix.zeros(f2, m, n)
    assert getattr(made, "_rref", None) is None
    made.rref()
    assert getattr(made, "_rref", None) is not None


@pytest.mark.parametrize("width", [6, PACKED_WIDTH + 8])
def test_bit_matrices_reach_no_other_loop(f2, width, monkeypatch):
    """Every GF(2) matrix operation runs on bit rows: neither the byte-packed
    loops nor the tuple loops that the bit kernel overrides are reached, at
    widths below and above PACKED_WIDTH."""
    overridden = [name for name in vars(_BitKernel) if name in vars(_Kernel)]
    assert {"gauss_jordan", "matmul", "det", "transpose", "null_rows"} <= set(overridden)
    for owner in (_Kernel, _Char2Kernel):
        for name in overridden + ["_packed_gauss_jordan", "_packed_matmul"]:
            if name in vars(owner):
                monkeypatch.setattr(owner, name, _refuse)
    rng = random.Random(width)

    def draw():
        return Matrix.from_payloads(f2, [[rng.randrange(2) for _ in range(width)]
                                         for _ in range(width)])
    a = draw()
    while not a.det():
        a = draw()
    ident = Matrix.identity(f2, width)
    inv = a.inverse()
    assert a * inv == ident and inv * a == ident and hash(a * inv) == hash(ident)
    assert a.rank() == width and a.transpose().transpose() == a
    twice = stack_rows(a, a)
    assert twice.rank() == width and len(twice.transpose().kernel_rows()) == width
    b = tuple(f2.one if i % 3 else f2.zero for i in range(width))
    assert mat_vec(a, a.solve(b)) == b
    assert a.solve_many(ident) == inv.transpose()
    assert (a - a).is_zero() and -a == a and a.scale(f2.one) == a and a.scale(f2.zero).is_zero()
    assert _combination(f2, (1, 1), (a, inv)) == a + inv
    assert _row_forms(ident, a) == tuple(row[i] for i, row in enumerate(a.payload_rows))


def _refuse(*args, **kwargs):
    raise AssertionError("a GF(2) matrix reached another kernel's loop")
