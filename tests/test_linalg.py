"""Exact linear algebra over the library fields."""

import functools
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wallforms as wf
from wallforms.errors import DescriptorMismatch, DimensionMismatch, SingularMatrix
from wallforms.fields import FieldElement, Galois2Field, PrimeField, field_tables
from wallforms.linalg import Matrix, bilinear, kron, mat_vec


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
