"""Quadratic spaces, subspaces and basis constructions."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wallforms as wf
from wallforms.errors import (
    AlternatingForm,
    NotAlternating,
    NotExtendable,
    NotNested,
    NotRegular,
)
from wallforms.linalg import Matrix, vadd, vscale
from wallforms.quadspace import (
    Subspace,
    SymBilinearForm,
    _independent,
    complement_in,
    extend_to_hyperbolic_basis,
    hyperbolic_basis_alternating,
    orthogonal_basis,
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
    assert _independent(field, vectors) == _ref_independent(field, vectors)


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

def _form_on_unit_vectors(field, gram_rows, space=None):
    def conv(v):
        return v if isinstance(v, wf.FieldElement) else field.from_int(v)
    gram = Matrix(field, [[conv(v) for v in row] for row in gram_rows])
    n = gram.nrows
    basis = tuple(
        tuple(field.one if j == i else field.zero for j in range(n))
        for i in range(n)
    )
    return SymBilinearForm(field, basis, gram, space)


def test_orthogonal_basis_diagonal_input(ft):
    t = ft.t
    form = _form_on_unit_vectors(ft, [[t, ft.zero], [ft.zero, t]])
    basis = orthogonal_basis(form)
    assert basis == (
        (ft.one, ft.zero), (ft.zero, ft.one),
    )


def test_orthogonal_basis_char2_fixup(f2):
    # a diagonal vector plus an alternating remainder forces the repair rule
    form = _form_on_unit_vectors(f2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    basis = orthogonal_basis(form)
    assert len(basis) == 3
    for i, u in enumerate(basis):
        assert form.eval_coords(u, u) == f2.one
        for v in basis[i + 1:]:
            assert not form.eval_coords(u, v)


def test_orthogonal_basis_one_dimensional(f7):
    form = _form_on_unit_vectors(f7, [[3]])
    assert orthogonal_basis(form) == ((f7.one,),)


def test_orthogonal_basis_rejects_alternating(f2):
    form = _form_on_unit_vectors(f2, [[0, 1], [1, 0]])
    with pytest.raises(AlternatingForm):
        orthogonal_basis(form)


def test_orthogonal_basis_odd_char_zero_diagonal(f7):
    # all diagonal entries zero, yet not alternating in odd characteristic
    form = _form_on_unit_vectors(f7, [[0, 1], [1, 0]])
    basis = orthogonal_basis(form)
    assert len(basis) == 2
    assert form.eval_coords(basis[0], basis[0])
    assert not form.eval_coords(basis[0], basis[1])


def test_hyperbolic_basis_alternating_already_hyperbolic(f2, h4f2, tau_int):
    w = wf.wall_form(tau_int)
    pairs = hyperbolic_basis_alternating(w.form())
    assert len(pairs) == 1
    (x, y), = pairs
    assert w.evaluate(x, y) == f2.one


def test_hyperbolic_basis_zero_dimensional(f2, h4f2):
    form = SymBilinearForm(f2, (), Matrix(f2, [], ncols=0), h4f2)
    assert hyperbolic_basis_alternating(form) == ()


def test_hyperbolic_basis_gf7_random_alternating(f7):
    rng = random.Random(13)
    elems = list(f7.elements())
    found = 0
    while found < 5:
        a, b, c, d, e, f = (rng.choice(elems) for _ in range(6))
        z = f7.zero
        rows = [
            [z, a, b, c],
            [-a, z, d, e],
            [-b, -d, z, f],
            [-c, -e, -f, z],
        ]
        gram = Matrix(f7, rows)
        if not gram.det():
            continue
        found += 1
        form = _form_on_unit_vectors(f7, rows)
        pairs = hyperbolic_basis_alternating(form)
        assert len(pairs) == 2
        flat = [v for pair in pairs for v in pair]
        for i, u in enumerate(flat):
            for j, v in enumerate(flat):
                expected = f7.zero
                if (i, j) == (0, 1) or (i, j) == (2, 3):
                    expected = f7.one
                if (i, j) == (1, 0) or (i, j) == (3, 2):
                    expected = -f7.one
                assert form.eval_coords(u, v) == expected


def test_hyperbolic_basis_rejects_nonalternating(ft):
    form = _form_on_unit_vectors(ft, [[ft.t]])
    with pytest.raises(NotAlternating):
        hyperbolic_basis_alternating(form)


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
