"""Quadratic spaces, subspaces and basis constructions."""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import wallforms as wf
from wallforms.errors import (
    AlternatingForm,
    Degenerate,
    DescriptorMismatch,
    DimensionMismatch,
    InvariantViolation,
    NotAlternating,
    NotExtendable,
    NotNested,
    NotRegular,
    NotSymmetric,
)
from wallforms.linalg import Matrix, bilinear, vec_mat
from wallforms.quadspace import (
    Subspace,
    _independent,
    complement_in,
    extend_to_hyperbolic_basis,
    hyperbolic_basis_alternating,
    orthogonal_basis,
)

from boxed_vectors import (
    isotropic_pairs,
    isotropic_partners,
    isotropic_vectors,
    vadd,
    vscale,
    vsub,
)


def test_hyperbolic_basis_vectors_isotropic(h4f2):
    for i in range(4):
        assert not h4f2.eval_q(h4f2.basis_vector(i))


def test_eval_q_zero_vector(h4f2, r2t):
    assert not h4f2.eval_q(h4f2.zero_vector())
    assert not r2t.eval_q(r2t.zero_vector())


def test_r2t_q_values(r2t, ft):
    assert r2t.eval_q(r2t.basis_vector(0)) == ft.t
    assert not r2t.eval_q(r2t.basis_vector(1))
    assert r2t.eval_b(r2t.basis_vector(0), r2t.basis_vector(1)) == ft.one


# ---------------------------------------------------------------------------
# q on the rows of a matrix against one boxed eval_q per row
# ---------------------------------------------------------------------------

Q_VALUE_FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(7)", "gf(97)", "gf2(t)"]


def _element(draw, field):
    if draw(st.integers(0, 2)) == 0:
        return field.zero
    if field.kind == "ratfunc":
        return field.fraction(draw(st.integers(0, 15)), draw(st.integers(1, 15)))
    return field.element(draw(st.integers(0, field.order() - 1)))


@pytest.mark.parametrize("literal", Q_VALUE_FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_q_values_match_eval_q(literal, data):
    field = wf.parse_field(literal)
    n = data.draw(st.sampled_from([2, 4] if field.characteristic() == 2 else [1, 2, 3, 4]))
    qmat = Matrix(field, [[_element(data.draw, field) for _ in range(n)] for _ in range(n)])
    try:
        space = wf.QuadraticSpace.from_q_upper(field, qmat)
    except NotRegular:
        assume(False)
    rows = Matrix(field, [[_element(data.draw, field) for _ in range(n)]
                          for _ in range(data.draw(st.integers(0, 5)))], ncols=n)
    assert space.q_values(rows) == tuple(space.eval_q(r) for r in rows.rows)


def test_q_values_reject_rows_of_another_length_or_field(h4f2, h4f7, f7):
    with pytest.raises(DimensionMismatch):
        h4f2.q_values(Matrix.identity(h4f2.field, 3))
    with pytest.raises(DescriptorMismatch):
        h4f2.q_values(Matrix.identity(f7, 4))
    assert h4f7.q_values(Matrix.zeros(f7, 0, 4)) == ()


def test_a_form_matrix_over_another_field_is_rejected(f2, f7):
    with pytest.raises(DescriptorMismatch):
        wf.QuadraticSpace.from_q_upper(f2, Matrix.identity(f7, 2))


def test_coordinates_reject_vectors_of_another_length(h4f2, tau_int, f2):
    one = f2.one
    for sub in (Subspace.full(h4f2), tau_int.residual_space(), Subspace.zero(h4f2)):
        for v in ((one,) * 2, (one,) * 5, (f2.zero,) * 5):
            with pytest.raises(DimensionMismatch):
                sub.coordinates(v)
            with pytest.raises(DimensionMismatch):
                sub.contains(v)


def test_hyperbolic_pairings(h4f2, f2):
    e = h4f2.basis_vector
    assert h4f2.eval_b(e(0), e(1)) == f2.one
    assert h4f2.eval_b(e(2), e(3)) == f2.one
    assert not h4f2.eval_b(e(0), e(2))


def test_polar_identity(h4f7, f7):
    rng = random.Random(3)
    elems = list(f7.elements())
    for _ in range(200):
        x = tuple(rng.choice(elems) for _ in range(4))
        y = tuple(rng.choice(elems) for _ in range(4))
        lhs = h4f7.eval_b(x, y)
        rhs = h4f7.eval_q(vadd(x, y)) - h4f7.eval_q(x) - h4f7.eval_q(y)
        assert lhs == rhs


def test_q_scales_quadratically(r2t, ft):
    rng = random.Random(5)
    for _ in range(50):
        a = ft.fraction(rng.randrange(1, 32), rng.randrange(1, 32))
        x = (ft.fraction(rng.randrange(16), 1), ft.fraction(rng.randrange(16), 1))
        assert r2t.eval_q(tuple(a * c for c in x)) == a * a * r2t.eval_q(x)


def test_degenerate_space_rejected(f2):
    with pytest.raises(NotRegular):
        wf.QuadraticSpace.from_int_rows(f2, [[1, 0], [0, 1]])  # zero polar form


def test_char2_regular_space_is_even_dimensional(f2, f4):
    # odd-dimensional char-2 spaces are always degenerate
    for field in (f2, f4):
        with pytest.raises(NotRegular):
            wf.QuadraticSpace.from_int_rows(field, [[1]])


# ---------------------------------------------------------------------------
# subspaces and complements
# ---------------------------------------------------------------------------

def test_complement_of_whole_space(h4f2):
    assert Subspace.full(h4f2).orthogonal_complement() == Subspace.zero(h4f2)
    assert Subspace.zero(h4f2).orthogonal_complement() == Subspace.full(h4f2)


def test_self_perpendicular_plane(h4f2):
    s = Subspace.from_vectors(h4f2, [h4f2.basis_vector(0), h4f2.basis_vector(2)])
    assert s.orthogonal_complement() == s
    assert not s.is_regular()
    assert s.is_totally_isotropic()


def test_complement_dimension_law_and_involution(h4f7, f7):
    rng = random.Random(7)
    elems = list(f7.elements())
    for _ in range(40):
        vecs = [tuple(rng.choice(elems) for _ in range(4))
                for _ in range(rng.randrange(1, 4))]
        s = Subspace.from_vectors(h4f7, vecs)
        perp = s.orthogonal_complement()
        assert s.dim + perp.dim == 4
        assert perp.orthogonal_complement() == s
        for x in s.vectors():
            for y in perp.vectors():
                assert not h4f7.eval_b(x, y)


def test_regularity_flags(r2t, h4f2):
    assert Subspace.full(r2t).is_regular()
    assert Subspace.zero(h4f2).is_regular()


def test_complement_in(h4f2, tau_int):
    full = Subspace.full(h4f2)
    assert complement_in(full, full) == Subspace.zero(h4f2)
    assert complement_in(Subspace.zero(h4f2), full) == full
    r = tau_int.residual_space()
    k = tau_int.fixed_space()
    assert complement_in(r, k) == Subspace.zero(h4f2)  # r = k for interchanges
    with pytest.raises(NotNested):
        complement_in(full, r)


def test_subspace_pairs_of_different_spaces_are_rejected(h4f2, h4f4, f2):
    """Another form on the same field and dimension, or the same form over
    another field: every call on two subspaces raises the one guard's error.
    An equal space built again is the same space."""
    other_form = wf.QuadraticSpace.from_int_rows(
        f2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    mine = Subspace.full(h4f2)
    calls = (mine.intersection, mine.subspace_sum, mine.contains_subspace,
             lambda theirs: complement_in(theirs, mine))
    for space in (other_form, h4f4):
        for call in calls:
            with pytest.raises(DimensionMismatch, match="subspaces of different spaces"):
                call(Subspace.full(space))
    again = Subspace.full(wf.QuadraticSpace.hyperbolic(f2, 2))
    assert mine.intersection(again) == mine.subspace_sum(again) == mine
    assert mine.contains_subspace(again)
    assert complement_in(again, mine) == Subspace.zero(h4f2)


def test_complement_in_direct_sum(h4f7, f7):
    rng = random.Random(11)
    elems = list(f7.elements())
    for _ in range(25):
        inner = Subspace.from_vectors(
            h4f7, [tuple(rng.choice(elems) for _ in range(4))])
        outer = inner.subspace_sum(Subspace.from_vectors(
            h4f7, [tuple(rng.choice(elems) for _ in range(4)) for _ in range(2)]))
        comp = complement_in(inner, outer)
        assert comp.dim + inner.dim == outer.dim
        assert comp.intersection(inner).dim == 0
        assert comp.subspace_sum(inner) == outer


# ---------------------------------------------------------------------------
# greedy choices against the one-vector-at-a-time reference
# ---------------------------------------------------------------------------

GREEDY_FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(7)", "gf2(t)"]


def _ref_independent(field, vectors):
    """Keep each nonzero vector outside the span of those kept so far, one
    solve per vector."""
    out = []
    for v in vectors:
        if all(not a for a in v):
            continue
        if out and Matrix(field, out).transpose().solve(v) is not None:
            continue
        out.append(v)
    return out


def _ref_complement_in(inner, outer):
    """Grow `inner` by each basis vector of `outer` it does not contain yet."""
    if not all(outer.contains(v) for v in inner.vectors()):
        raise NotNested("inner subspace is not contained in outer")
    chosen, current = [], inner
    for v in outer.vectors():
        if not current.contains(v):
            chosen.append(v)
            current = current.subspace_sum(Subspace.from_vectors(outer.space, [v]))
    return Subspace.from_vectors(outer.space, chosen)


def _payloads(v):
    return tuple(a.payload for a in v)


@st.composite
def _vector_lists(draw, field, max_size):
    """Length-4 vectors, with zero vectors, repeats and combinations of
    earlier vectors among them."""
    def element():
        if draw(st.integers(0, 2)) == 0:
            return field.zero
        if field.kind == "ratfunc":
            return field.fraction(draw(st.integers(0, 15)), draw(st.integers(1, 15)))
        return field.element(draw(st.integers(0, field.order() - 1)))

    out = []
    for _ in range(draw(st.integers(0, max_size))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "combination"]))
        if kind == "zero":
            out.append((field.zero,) * 4)
        elif kind == "new" or not out:
            out.append(tuple(element() for _ in range(4)))
        elif kind == "repeat":
            out.append(out[draw(st.integers(0, len(out) - 1))])
        else:
            a, b = (out[draw(st.integers(0, len(out) - 1))] for _ in range(2))
            out.append(vadd(a, vscale(element(), b)))
    return out


def _greedy_settings():
    return settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("literal", GREEDY_FIELDS)
@given(data=st.data())
@_greedy_settings()
def test_independent_is_the_greedy_choice(literal, data):
    field = wf.parse_field(literal)
    vectors = data.draw(_vector_lists(field, 7))
    rows = [_payloads(v) for v in vectors]
    assert _independent(field, rows) == [_payloads(v) for v in _ref_independent(field, vectors)]


@pytest.mark.parametrize("literal", GREEDY_FIELDS)
@given(data=st.data())
@_greedy_settings()
def test_complement_in_is_the_greedy_choice(literal, data):
    field = wf.parse_field(literal)
    space = wf.QuadraticSpace.hyperbolic(field, 2)
    inner_vectors = data.draw(_vector_lists(field, 3))
    extra = data.draw(_vector_lists(field, 4))
    nested = data.draw(st.booleans())
    inner = Subspace.from_vectors(space, inner_vectors)
    outer = Subspace.from_vectors(space, (inner_vectors if nested else []) + extra)
    try:
        expected = _ref_complement_in(inner, outer)
    except NotNested:
        assert not outer.contains_subspace(inner)
        with pytest.raises(NotNested):
            complement_in(inner, outer)
    else:
        assert outer.contains_subspace(inner)
        assert complement_in(inner, outer) == expected


# ---------------------------------------------------------------------------
# orthogonal bases
# ---------------------------------------------------------------------------

def _gram(field, rows):
    return Matrix(field, [[v if isinstance(v, wf.FieldElement) else field.from_int(v)
                           for v in row] for row in rows])


def test_orthogonal_basis_diagonal_input(ft):
    t = ft.t
    p, d = orthogonal_basis(_gram(ft, [[t, ft.zero], [ft.zero, t]]))
    assert p.rows == ((ft.one, ft.zero), (ft.zero, ft.one))
    assert d == (t, t)


def test_orthogonal_basis_char2_fixup(f2):
    # a diagonal vector plus an alternating remainder forces the repair rule
    gram = _gram(f2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    p, d = orthogonal_basis(gram)
    assert p.nrows == 3 and d == (f2.one,) * 3
    assert p * gram * p.transpose() == Matrix.identity(f2, 3)


def test_orthogonal_basis_one_dimensional(f7):
    p, d = orthogonal_basis(_gram(f7, [[3]]))
    assert p.rows == ((f7.one,),) and d == (f7.from_int(3),)


def test_orthogonal_basis_rejects_alternating(f2):
    with pytest.raises(AlternatingForm):
        orthogonal_basis(_gram(f2, [[0, 1], [1, 0]]))


def test_orthogonal_basis_odd_char_zero_diagonal(f7):
    # all diagonal entries zero, yet not alternating in odd characteristic
    gram = _gram(f7, [[0, 1], [1, 0]])
    p, d = orthogonal_basis(gram)
    assert p.nrows == 2 and all(d)
    assert p * gram * p.transpose() == Matrix.diagonal(f7, d)


def test_orthogonal_basis_rejects_nonsymmetric_and_nonsquare(f7):
    # a non-symmetric form is NotSymmetric, not NotAlternating
    with pytest.raises(NotSymmetric):
        orthogonal_basis(_gram(f7, [[1, 2], [0, 1]]))
    with pytest.raises(Degenerate):
        orthogonal_basis(_gram(f7, [[1, 1], [1, 1]]))
    for basis in (orthogonal_basis, hyperbolic_basis_alternating):
        with pytest.raises(DimensionMismatch):
            basis(_gram(f7, [[0, 1, 0], [6, 0, 0]]))


def test_hyperbolic_basis_alternating_already_hyperbolic(f2, h4f2, tau_int):
    w = wf.wall_form(tau_int)
    p = hyperbolic_basis_alternating(w.gram)
    assert p.nrows == 2
    x, y = (p * tau_int.residual_space().basis).rows
    assert w.evaluate(x, y) == f2.one


def test_hyperbolic_basis_zero_dimensional(f2):
    assert hyperbolic_basis_alternating(Matrix(f2, [], ncols=0)).shape == (0, 0)


def test_hyperbolic_basis_gf7_random_alternating(f7):
    rng = random.Random(13)
    elems = list(f7.elements())
    found = 0
    while found < 5:
        a, b, c, d, e, f = (rng.choice(elems) for _ in range(6))
        z = f7.zero
        gram = Matrix(f7, [
            [z, a, b, c],
            [-a, z, d, e],
            [-b, -d, z, f],
            [-c, -e, -f, z],
        ])
        if not gram.det():
            continue
        found += 1
        p = hyperbolic_basis_alternating(gram)
        assert p.nrows == 4
        assert p * gram * p.transpose() == _gram(f7, [
            [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def test_hyperbolic_basis_rejects_nonalternating(ft):
    with pytest.raises(NotAlternating):
        hyperbolic_basis_alternating(_gram(ft, [[ft.t]]))


def test_bases_check_their_product(monkeypatch):
    # a greedy step that loses vectors, or a skipped elimination, is caught
    # by the one product check; the field is fresh, so no other test sees
    # its patched kernel
    from wallforms import linalg, quadspace
    f7 = wf.parse_field("gf(7)")
    hyperbolic = _gram(f7, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    with monkeypatch.context() as m:
        m.setattr(quadspace, "_independent", lambda field, rows: [])
        with pytest.raises(InvariantViolation):
            orthogonal_basis(_gram(f7, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
        with pytest.raises(InvariantViolation):
            hyperbolic_basis_alternating(hyperbolic)
    kernel = linalg._kernel(f7)
    with monkeypatch.context() as m:
        m.setattr(kernel, "eliminate", lambda row, c, prow: list(row))
        with pytest.raises(InvariantViolation):
            orthogonal_basis(_gram(f7, [[1, 1], [1, 2]]))


# ---------------------------------------------------------------------------
# orthogonal and hyperbolic bases against the boxed reference
# ---------------------------------------------------------------------------

def _ref_symplectic_pairs(gram, coord_vectors):
    """Symplectic Gram-Schmidt on boxed coordinate vectors."""
    field = gram.field
    f = lambda a, b: bilinear(a, gram, b)  # noqa: E731
    remaining = list(coord_vectors)
    pairs = []
    while remaining:
        u = remaining[0]
        v = next((w for w in remaining[1:] if f(u, w)), None)
        if v is None:
            raise Degenerate("no symplectic partner; form is degenerate")
        v = vscale(field.one / f(u, v), v)
        pairs.append((u, v))
        new = []
        for w in remaining[1:]:
            w1 = vsub(w, vscale(f(w, v), u))
            w1 = vsub(w1, vscale(f(u, w1), v))
            new.append(w1)
        remaining = _ref_independent(field, new)
    return pairs


def _ref_orthogonal_basis(gram):
    """The greedy diagonalization with the characteristic-2 repair, on
    boxed coordinate vectors; returns the basis and its diagonal."""
    field, n = gram.field, gram.nrows
    f = lambda a, b: bilinear(a, gram, b)  # noqa: E731
    char2 = field.characteristic() == 2
    remaining = list(Matrix.identity(field, n).rows)
    diag = []
    while remaining:
        pick = next((v for v in remaining if f(v, v)), None)
        if pick is None and not char2:
            for i, u in enumerate(remaining):
                v = next((w for w in remaining[i + 1:] if f(u, w)), None)
                if v is not None:
                    pick = vadd(u, v)
                    remaining.append(pick)
                    break
        if pick is None:
            break
        diag.append(pick)
        a = f(pick, pick)
        remaining = _ref_independent(field, [
            vsub(w, vscale(f(pick, w) / a, pick)) for w in remaining if w is not pick])
    if remaining:
        if not diag:
            raise AlternatingForm("form is alternating; no orthogonal basis")
        v = diag.pop()
        for e, fv in _ref_symplectic_pairs(gram, remaining):
            a = f(v, v)
            v1 = vadd(v, e)
            diag.extend([v1, vadd(v, vscale(a, fv))])
            v = vadd(v1, vscale(a, fv))
        diag.append(v)
    return tuple(diag), tuple(f(u, u) for u in diag)


BASIS_FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(7)", "gf(97)", "gf2(t)"]


@st.composite
def _nondegenerate_grams(draw, field, alternating):
    """Random nondegenerate symmetric, or alternating, Gram matrices, with
    zero entries common and, at times, a zero diagonal; over GF(2)(t) with
    entries of degree at most 1."""
    def element():
        if draw(st.integers(0, 2)) == 0:
            return field.zero
        if field.kind == "ratfunc":
            return field.fraction(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
        return field.element(draw(st.integers(0, field.order() - 1)))

    top = 4 if field.kind == "ratfunc" else 6
    n = draw(st.sampled_from(range(2, top + 1, 2)) if alternating else st.integers(1, top - 1))
    zero_diagonal = alternating or (field.characteristic() != 2 and draw(st.integers(0, 2)) == 0)
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        if not zero_diagonal:
            rows[i][i] = element()
        for j in range(i + 1, n):
            rows[i][j] = element()
            rows[j][i] = -rows[i][j] if alternating else rows[i][j]
    gram = Matrix(field, rows)
    assume(gram.det())
    return gram


def _basis_settings():
    return settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@pytest.mark.parametrize("literal", BASIS_FIELDS)
@given(data=st.data())
@_basis_settings()
def test_orthogonal_basis_matches_reference(literal, data):
    gram = data.draw(_nondegenerate_grams(wf.parse_field(literal), alternating=False))
    try:
        expected = _ref_orthogonal_basis(gram)
    except AlternatingForm:
        with pytest.raises(AlternatingForm):
            orthogonal_basis(gram)
    else:
        p, d = orthogonal_basis(gram)
        assert (p.rows, d) == expected


@pytest.mark.parametrize("literal", BASIS_FIELDS)
@given(data=st.data())
@_basis_settings()
def test_hyperbolic_basis_matches_reference(literal, data):
    gram = data.draw(_nondegenerate_grams(wf.parse_field(literal), alternating=True))
    units = Matrix.identity(gram.field, gram.nrows).rows
    expected = tuple(v for pair in _ref_symplectic_pairs(gram, units) for v in pair)
    assert hyperbolic_basis_alternating(gram).rows == expected


def _ref_residual_vectors(wall):
    """The residual vectors of the reference bases of a Wall form:
    (orthogonal basis, diagonal) or the hyperbolic pairs."""
    residual = Matrix(wall.tau.space.field, wall.basis, ncols=wall.tau.space.dim)
    if wall.is_alternating():
        units = Matrix.identity(wall.gram.field, wall.s).rows
        return [tuple(vec_mat(c, residual) for c in pair)
                for pair in _ref_symplectic_pairs(wall.gram, units)]
    coords, diag = _ref_orthogonal_basis(wall.gram)
    return tuple(vec_mat(c, residual) for c in coords), diag


def test_residual_bases_match_reference_on_h4f4_involutions(h4f4):
    enum = wf.enumerate_orthogonal_group(h4f4)
    kinds = set()
    for i in enum.involution_indices():
        tau = enum.isometry(i)
        wall = wf.wall_form(tau)
        kinds.add(wall.is_alternating())
        if not wall.is_alternating():
            assert wall.orthogonal_basis() == _ref_residual_vectors(wall)
        elif wall.s:
            rows = (hyperbolic_basis_alternating(wall.gram) * tau.residual_space().basis).rows
            assert list(zip(rows[0::2], rows[1::2])) == _ref_residual_vectors(wall)
    assert kinds == {True, False}


def test_decompose_blocks_match_reference_on_h6f2_unipotents(f2):
    h6f2 = wf.QuadraticSpace.hyperbolic(f2, 3)
    enum = wf.enumerate_orthogonal_group(h6f2)
    kinds = set()
    for i in enum.unipotent2_indices():
        d = wf.decompose(enum.isometry(i))
        wall = wf.wall_form(d.tau)
        kinds.update(blk.kind for blk in d.blocks)
        if wall.is_alternating():
            assert [(blk.x, blk.w) for blk in d.blocks] == _ref_residual_vectors(wall)
        else:
            basis, _ = _ref_residual_vectors(wall)
            assert tuple(blk.u for blk in d.blocks) == basis
    assert kinds == {"interchange", "reflection"}


# ---------------------------------------------------------------------------
# hyperbolic extension of an isotropic pair
# ---------------------------------------------------------------------------

def test_extend_pair_canonical(h4f2):
    e = h4f2.basis_vector
    assert extend_to_hyperbolic_basis(h4f2, e(0), e(2)) == (e(0), e(1), e(2), e(3))


def test_extend_pair_swapped_roles(h4f2, f2):
    e = h4f2.basis_vector
    x, y, w, z = extend_to_hyperbolic_basis(h4f2, e(2), e(0))
    assert (x, w) == (e(2), e(0))
    assert h4f2.eval_b(x, y) == f2.one
    assert h4f2.eval_b(w, z) == f2.one
    for v in (x, y, w, z):
        assert not h4f2.eval_q(v)
    assert not h4f2.eval_b(x, z)
    assert not h4f2.eval_b(w, y)
    assert not h4f2.eval_b(y, z)


def test_extend_pair_gf7(h4f7, f7):
    e = h4f7.basis_vector
    x = e(0)
    w = e(2)
    frame = extend_to_hyperbolic_basis(h4f7, x, w)
    for v in frame:
        assert not h4f7.eval_q(v)
    assert h4f7.eval_b(frame[0], frame[1]) == f7.one
    assert h4f7.eval_b(frame[2], frame[3]) == f7.one


def test_extend_pair_rejects_anisotropic(h4f2, f2):
    u = (f2.one, f2.one, f2.zero, f2.zero)  # q(u) = 1
    with pytest.raises(NotExtendable):
        extend_to_hyperbolic_basis(h4f2, u, h4f2.basis_vector(2))


def _solve_fails_on_call(monkeypatch, k):
    """Matrix.solve finds no solution on its k-th call (1-based)."""
    real, calls = Matrix.solve, []

    def solve(self, rhs):
        calls.append(rhs)
        return None if len(calls) == k else real(self, rhs)
    monkeypatch.setattr(Matrix, "solve", solve)


def _corrections_skipped(monkeypatch):
    """eval_q reads 0, so the partners y and z keep q(y) and q(z)."""
    monkeypatch.setattr(wf.QuadraticSpace, "eval_q", lambda self, v: self.field.zero)


# the last three refusals cannot occur on a regular space: the pairings
# with x and w are solvable and the corrected partners are isotropic, so
# each is reached by breaking the step that guarantees it
@pytest.mark.parametrize("fault, message", [
    (None, "^space must be 4-dimensional$"),
    (lambda mp: _solve_fails_on_call(mp, 1), "^cannot solve for the first partner vector$"),
    (lambda mp: _solve_fails_on_call(mp, 2), "^cannot solve for the second partner vector$"),
    (_corrections_skipped, "^space is not hyperbolic on the constructed basis$"),
], ids=["dim", "first-partner", "second-partner", "not-hyperbolic"])
def test_extend_pair_refusals(monkeypatch, f2, h6f2, fault, message):
    # q = x0 x1 + x1^2 + x2 x3: the first partner of e_0 is e_1 with q(e_1) = 1
    space = wf.QuadraticSpace.from_int_rows(f2, [[0, 1, 0, 0], [0, 1, 0, 0],
                                                 [0, 0, 0, 1], [0, 0, 0, 0]])
    if fault is None:
        space = h6f2
    else:
        fault(monkeypatch)
    with pytest.raises(NotExtendable, match=message):
        extend_to_hyperbolic_basis(space, space.basis_vector(0), space.basis_vector(2))


def _ref_extend_to_hyperbolic_basis(space, x, w):
    """The extension as it was on boxed vectors, one eval_q per vector."""
    if space.dim != 4:
        raise NotExtendable("space must be 4-dimensional")
    pair = Subspace.from_vectors(space, [x, w])
    if pair.dim != 2 or any(space.eval_q(v) for v in pair.vectors()) \
            or not pair.is_totally_singular():
        raise NotExtendable("(x, w) must span a totally isotropic plane")
    field = space.field
    bx = vec_mat(x, space.gram)
    bw = vec_mat(w, space.gram)
    y = Matrix(field, [bx, bw]).solve((field.one, field.zero))
    if y is None:
        raise NotExtendable("cannot solve for the first partner vector")
    y = vsub(y, vscale(space.eval_q(y), x))
    by = vec_mat(y, space.gram)
    z = Matrix(field, [bx, bw, by]).solve((field.zero, field.one, field.zero))
    if z is None:
        raise NotExtendable("cannot solve for the second partner vector")
    z = vsub(z, vscale(space.eval_q(z), w))
    for v in (x, y, w, z):
        if space.eval_q(v):
            raise NotExtendable("space is not hyperbolic on the constructed basis")
    return (x, y, w, z)


@pytest.mark.parametrize("literal", ["gf(2)", "gf(3)"])
def test_extend_matches_reference_on_every_isotropic_pair(literal):
    space = wf.QuadraticSpace.hyperbolic(wf.parse_field(literal), 2)
    pairs = isotropic_pairs(space)
    assert len(pairs) == {"gf(2)": 36, "gf(3)": 384}[literal]  # 2(|F|+1) planes
    for x, w in pairs:
        assert extend_to_hyperbolic_basis(space, x, w) == _ref_extend_to_hyperbolic_basis(
            space, x, w)


@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_extend_matches_reference_gf7(h4f7, data):
    x = data.draw(st.sampled_from(isotropic_vectors(h4f7)))
    w = data.draw(st.sampled_from(isotropic_partners(h4f7, x)))
    assert extend_to_hyperbolic_basis(h4f7, x, w) == _ref_extend_to_hyperbolic_basis(h4f7, x, w)


def test_form_matrix_canonicalization(f7):
    # any square input folds to the canonical upper-triangular shape: two
    # matrices give the same space iff they represent the same form
    upper = wf.QuadraticSpace.from_int_rows(f7, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    lower = wf.QuadraticSpace.from_int_rows(f7, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    split = wf.QuadraticSpace.from_int_rows(f7, [[1, 4, 0], [4, 1, 1], [0, 0, 1]])
    assert upper == lower == split
    rng_vals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 3, 4)]
    for coords in rng_vals:
        v = tuple(f7.from_int(c) for c in coords)
        assert upper.eval_q(v) == lower.eval_q(v) == split.eval_q(v)


def _regular_by_intersection(s):
    return s.intersection(s.orthogonal_complement()).dim == 0


def test_is_regular_matches_the_intersection_with_the_complement(h4f2, h4f7, r4t, f7, ft):
    vectors = [tuple(h4f2.field.from_int(i >> j & 1) for j in range(4)) for i in range(16)]
    flags = set()
    for i, a in enumerate(vectors):
        for b in vectors[i:]:
            s = Subspace.from_vectors(h4f2, [a, b])
            flags.add(s.is_regular())
            assert s.is_regular() == _regular_by_intersection(s)
    assert flags == {True, False}
    rng = random.Random(13)
    elems = list(f7.elements())
    for space, pick in ((h4f7, lambda: rng.choice(elems)),
                        (r4t, lambda: ft.fraction(rng.randrange(4), rng.randrange(1, 4)))):
        for _ in range(30):
            vecs = [tuple(pick() for _ in range(4)) for _ in range(rng.randrange(1, 4))]
            s = Subspace.from_vectors(space, vecs)
            assert s.is_regular() == _regular_by_intersection(s)
