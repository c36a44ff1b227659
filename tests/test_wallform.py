"""Residual-space bilinear forms: construction, classification, the
associated quadratic form, and the symmetry laws."""

import random

import pytest

import wallforms as wf
from wallforms.errors import DimensionMismatch, InvariantViolation, NotSymmetric
from wallforms.linalg import Matrix

from boxed_vectors import vadd, vscale


def test_identity_has_empty_form(h4f2):
    w = wf.wall_form(wf.identity_isometry(h4f2))
    assert w.s == 0
    assert w.gram.shape == (0, 0)
    flags = wf.classify(w)
    assert flags.symmetric and flags.antisymmetric and flags.alternating


def test_interchange_gram(h4f2, tau_int, f2):
    w = wf.wall_form(tau_int)
    assert w.basis == (h4f2.basis_vector(0), h4f2.basis_vector(2))
    assert w.gram == Matrix.from_ints(f2, [[0, 1], [1, 0]])
    assert w.evaluate(h4f2.basis_vector(0), h4f2.basis_vector(2)) == f2.one
    assert w.evaluate(h4f2.basis_vector(2), h4f2.basis_vector(0)) == f2.one  # -1 = 1
    assert not w.evaluate(h4f2.basis_vector(0), h4f2.basis_vector(0))


def test_r2t_reflection_gram(tau_r2t, ft):
    w = wf.wall_form(tau_r2t)
    assert w.s == 1
    assert w.gram == Matrix(ft, [[ft.t]])


def test_r4t_gram_is_diag_t_t(tau_r4t, ft):
    w = wf.wall_form(tau_r4t)
    assert w.gram == Matrix(ft, [[ft.t, ft.zero], [ft.zero, ft.t]])


def test_wall_form_checks_the_diagonal_law(h4f7, f7):
    """An unchecked matrix that is no isometry, e_1 -> e_1 + e_0: its
    residual form on e_0 is b(e_0, e_1) = 1, nondegenerate, but q(e_0) = 0."""
    shear = Matrix.from_ints(f7, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(InvariantViolation, match="diagonal law"):
        wf.wall_form(wf.Isometry._trusted(h4f7, shear))


def test_wall_form_checks_nondegeneracy(h4f7, f7):
    """An unchecked matrix that is no isometry, diag(2, 1, 1, 1): its
    residual space is span(e_0) with preimage e_0, and b(e_0, e_0) = 0."""
    scaling = Matrix.from_ints(f7, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(InvariantViolation, match="residual form is degenerate"):
        wf.wall_form(wf.Isometry._trusted(h4f7, scaling))


def test_wall_form_checks_every_preimage(h4f2, tau_int):
    """A residual space larger than the image of M - I: the whole space,
    kept with a fresh isometry before its Wall form is made."""
    fresh = wf.Isometry(h4f2, tau_int.mat)
    fresh._memo["residual_space"] = wf.Subspace.full(h4f2)
    with pytest.raises(InvariantViolation, match="residual vector has no preimage"):
        wf.wall_form(fresh)


def _ref_preimages(tau):
    """The preimages of the residual basis, one solve of M - I each."""
    return tuple(tau.displacement().solve(u) for u in tau.residual_space().vectors())


@pytest.mark.parametrize("literal", ["gf(2)", "gf(4;x^2+x+1)", "gf(7)"])
def test_preimages_match_one_solve_per_residual_vector(literal):
    """Over about 400 elements of O(H4): the one elimination of [M - I | R^T]
    gives each residual vector the preimage its own solve gives."""
    space = wf.QuadraticSpace.hyperbolic(wf.parse_field(literal), 2)
    enum = wf.enumerate_orthogonal_group(space)
    for i in range(0, enum.order, max(1, enum.order // 400)):
        tau = enum.isometry(i)
        assert wf.wall_form(tau).preimages == _ref_preimages(tau)


def test_diagonal_law_and_nondegeneracy_random_probes(h4f7, tau_int, tau_r4t, f7):
    rng = random.Random(41)
    e = h4f7.basis_vector
    taus = [
        wf.eichler(h4f7, e(0), e(2)),
        wf.eichler(h4f7, e(0), vadd(e(2), e(3))),
        tau_int,
        tau_r4t,
    ]
    for tau in taus:
        w = wf.wall_form(tau)
        if w.s == 0:
            continue
        assert w.gram.det()
        field = tau.space.field
        elems = list(field.elements()) if field.order() else [
            field.fraction(n, d) for n in range(4) for d in range(1, 4)]
        for _ in range(1000):
            coords = [rng.choice(elems) for _ in range(w.s)]
            u = tau.space.zero_vector()
            for c, b in zip(coords, w.basis):
                u = vadd(u, vscale(c, b))
            assert w.evaluate(u, u) == -tau.space.eval_q(u)


def test_preimage_independence(h4f2, tau_int, f2):
    w = wf.wall_form(tau_int)
    k = tau_int.fixed_space()
    rng = random.Random(43)
    space = tau_int.space
    for _ in range(20):
        shifted = []
        for y in w.preimages:
            shift = space.zero_vector()
            for row in k.vectors():
                if rng.random() < 0.5:
                    shift = vadd(shift, row)
            shifted.append(vadd(y, shift))
        gram = Matrix(f2, [
            [space.eval_b(u, y) for y in shifted] for u in w.basis
        ])
        assert gram == w.gram


def test_classification_flags_char2(tau_int, tau_r2t):
    alt = wf.classify(wf.wall_form(tau_int))
    assert alt.symmetric and alt.antisymmetric and alt.alternating
    refl = wf.classify(wf.wall_form(tau_r2t))
    assert refl.symmetric and refl.antisymmetric and not refl.alternating


def test_gf7_eichler_isotropic_partner_antisymmetric(h4f7, f7):
    # q(w) = 0: unipotency index 2, so the residual form is antisymmetric,
    # and since tau^2 != id it is not symmetric
    e = h4f7.basis_vector
    tau = wf.eichler(h4f7, e(0), e(2))
    w = wf.wall_form(tau)
    assert w.gram == Matrix.from_ints(f7, [[0, 1], [-1, 0]])
    flags = wf.classify(w)
    assert flags.antisymmetric and flags.alternating and not flags.symmetric
    assert tau.unipotency_index() == 2
    assert not (tau * tau).is_identity()


def test_gf7_eichler_anisotropic_partner_not_antisymmetric(h4f7, f7):
    # q(w) != 0 pushes the unipotency index to 3; by the symmetry laws the
    # residual form can be neither antisymmetric nor symmetric
    e = h4f7.basis_vector
    w_vec = vadd(e(2), e(3))
    assert h4f7.eval_q(w_vec) == f7.one
    tau = wf.eichler(h4f7, e(0), w_vec)
    assert tau.unipotency_index() == 3
    w = wf.wall_form(tau)
    flags = wf.classify(w)
    assert not flags.antisymmetric
    assert not flags.symmetric
    # diagonal law still holds
    for i, u in enumerate(w.basis):
        assert w.gram[i, i] == -h4f7.eval_q(u)


def test_symmetry_laws_exhaustive_gf7_planes(gf7_plane_sum, gf7_plane_split):
    for space in (gf7_plane_sum, gf7_plane_split):
        enum = wf.enumerate_orthogonal_group(space)
        for tau in enum.isometries():
            w = wf.wall_form(tau)
            flags = wf.classify(w)
            assert flags.symmetric == (tau * tau).is_identity()
            assert flags.antisymmetric == tau.is_unipotent2()


# ---------------------------------------------------------------------------
# associated quadratic form
# ---------------------------------------------------------------------------

def test_assoc_quadratic_interchange_zero(tau_int):
    w = wf.wall_form(tau_int)
    phi = wf.assoc_quadratic(w)
    assert phi.qmat.is_zero()
    assert phi.is_totally_singular()


def test_assoc_quadratic_r2t(tau_r2t, ft):
    phi = wf.assoc_quadratic(wf.wall_form(tau_r2t))
    assert phi.diagonal() == (ft.t,)


def test_assoc_quadratic_r4t_totally_singular(tau_r4t, ft):
    phi = wf.assoc_quadratic(wf.wall_form(tau_r4t))
    assert phi.diagonal() == (ft.t, ft.t)
    assert phi.is_totally_singular()
    assert phi.value_coords((ft.one, ft.one)) == ft.zero  # t + t


def test_assoc_quadratic_requires_symmetry(h4f7):
    e = h4f7.basis_vector
    tau = wf.eichler(h4f7, e(0), e(2))  # antisymmetric, not symmetric
    with pytest.raises(NotSymmetric):
        wf.assoc_quadratic(wf.wall_form(tau))


def test_coords_match_a_solve_in_the_residual_basis(h4f2, tau_int, tau_r4t, h4f7, f7):
    eich = wf.eichler(h4f7, h4f7.basis_vector(0), h4f7.basis_vector(2))
    for tau in (tau_int, tau_r4t, eich):
        w = wf.wall_form(tau)
        basis_t = Matrix(tau.space.field, w.basis).transpose()
        for u in w.basis + tuple(vadd(a, b) for a in w.basis for b in w.basis):
            assert w.coords(u) == basis_t.solve(u)
        outside = [v for v in (tau.space.basis_vector(i) for i in range(tau.space.dim))
                   if basis_t.solve(v) is None]
        assert outside
        for v in outside:
            with pytest.raises(InvariantViolation):
                w.coords(v)


def test_evaluate_rejects_vectors_of_another_length(tau_int, f2):
    w = wf.wall_form(tau_int)
    u = w.basis[0]
    for v in ((f2.one,) * 2, u[:3], u + (f2.zero,)):
        with pytest.raises(DimensionMismatch):
            w.evaluate(v, u)
        with pytest.raises(DimensionMismatch):
            w.evaluate(u, v)
