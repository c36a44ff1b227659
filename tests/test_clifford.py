"""Clifford algebras, the induced involution, and the invariant suite."""

import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import wallforms as wf
from wallforms import clifford
from wallforms.clifford import (
    AlgebraInvolution,
    CliffordAlgebra,
    _verify_matrix_iso,
    alt_membership,
    sym_alt_dimensions,
)
from wallforms.errors import (
    CharacteristicNot2,
    CriterionFails,
    DescriptorMismatch,
    DimensionMismatch,
    InvariantViolation,
    IsotropicVector,
    NotInterchange,
    NotInvolution,
    NotOrthogonalBasis,
    NotRegular,
    NotScalarSquare,
    NotSymmetric,
    PreconditionError,
    ResidualNotFixed,
    UnknownConstruction,
    UnsupportedField,
    ZeroSquare,
)
from wallforms.batched import _batch_arith
from wallforms.linalg import Matrix, block_diag
from wallforms.quadspace import Subspace

from boxed_vectors import vadd


@pytest.fixture(scope="module")
def alg_h4f2(h4f2):
    return wf.algebra_for_space(h4f2)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def test_generator_squares(alg_h4f2, r2t, ft):
    # e_i^2 = q(e_i)
    for i in range(4):
        e = alg_h4f2.basis_blade(1 << i)
        assert (e * e).is_zero()  # q vanishes on the hyperbolic basis
    alg = wf.algebra_for_space(r2t)
    u = alg.basis_blade(1)
    assert u * u == alg.scalar(ft.t)


def test_one_is_identity(alg_h4f2):
    one = alg_h4f2.one()
    for blade in range(alg_h4f2.dim):
        b = alg_h4f2.basis_blade(blade)
        assert one * b == b
        assert b * one == b


def test_orthogonal_generators_commute(alg_h4f2):
    e1 = alg_h4f2.basis_blade(0b0001)
    e3 = alg_h4f2.basis_blade(0b0100)
    assert e3 * e1 == alg_h4f2.basis_blade(0b0101)  # b(e1, e3) = 0


def test_paired_generators_anticommute_with_unit(alg_h4f2, f2):
    e1 = alg_h4f2.basis_blade(0b0001)
    e2 = alg_h4f2.basis_blade(0b0010)
    # e2 e1 = e1 e2 + b(e1, e2) = e1 e2 + 1
    assert e2 * e1 == alg_h4f2.basis_blade(0b0011) + alg_h4f2.one()


def test_associativity_all_blade_triples(alg_h4f2):
    blades = [alg_h4f2.basis_blade(b) for b in range(alg_h4f2.dim)]
    for a, b, c in itertools.product(blades, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_associativity_random_six_dim(f2, h4f2):
    plane = wf.QuadraticSpace.hyperbolic(f2, 1)
    big = h4f2.orthogonal_sum(plane)
    alg = wf.algebra_for_space(big)
    rng = random.Random(53)
    for _ in range(10_000):
        a, b, c = (alg.basis_blade(rng.randrange(alg.dim)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_center_is_scalars(alg_h4f2, r2t, r4t):
    assert alg_h4f2.center_dimension() == 1
    assert wf.algebra_for_space(r2t).center_dimension() == 1
    assert wf.algebra_for_space(r4t).center_dimension() == 1


def test_inverse(alg_h4f2):
    g = alg_h4f2.one() + alg_h4f2.basis_blade(0b0101)
    inv = alg_h4f2.inverse(g)
    assert g * inv == alg_h4f2.one()
    assert inv * g == alg_h4f2.one()


def test_element_repr(alg_h4f2, f4, r2t, ft):
    assert (repr(alg_h4f2.zero()), repr(alg_h4f2.one()), repr(alg_h4f2.basis_blade(0b0101))) == (
        "0", "1", "e1e3")
    w = f4.parse("w")
    alg4 = wf.algebra_for_space(wf.QuadraticSpace.hyperbolic(f4, 2))
    assert repr(alg4.element({0: w, 0b0011: w + f4.one, 0b1000: f4.one})) == "w+(w+1)e1e2+e4"
    t = ft.t
    elt = wf.algebra_for_space(r2t).element({0: t, 0b01: t + ft.one, 0b11: ft.one / t})
    assert repr(elt) == "t+(t+1)e1+(1/t)e1e2"


def test_element_equality_with_a_non_element(alg_h4f2):
    one = alg_h4f2.one()
    assert one.__eq__(1) is NotImplemented
    assert one != 1 and one != "1"


def test_characteristic_two_required(gf7_plane_sum):
    with pytest.raises(CharacteristicNot2):
        wf.CliffordAlgebra.from_space(gf7_plane_sum)


# ---------------------------------------------------------------------------
# the induced involution
# ---------------------------------------------------------------------------

def test_reversal_on_paired_blade(h4f2, alg_h4f2):
    j = wf.natural_involution(wf.identity_isometry(h4f2), alg_h4f2)
    # J(e1 e2) = e2 e1 = e1 e2 + 1
    img = j.apply(alg_h4f2.basis_blade(0b0011))
    assert img == alg_h4f2.basis_blade(0b0011) + alg_h4f2.one()


def test_involution_extends_tau(h4f2, tau_int, alg_h4f2):
    j = wf.natural_involution(tau_int, alg_h4f2)
    rng = random.Random(59)
    elems = list(h4f2.field.elements())
    for _ in range(100):
        v = tuple(rng.choice(elems) for _ in range(4))
        assert j.apply(alg_h4f2.vector(v)) == alg_h4f2.vector(tau_int.apply(v))
    # J(e2) = tau(e2) = e2 + e3
    assert j.apply(alg_h4f2.basis_blade(0b0010)) == alg_h4f2.vector(
        tau_int.apply(h4f2.basis_vector(1)))


def test_involution_squares_to_identity(h4f2, tau_int, alg_h4f2):
    j = wf.natural_involution(tau_int, alg_h4f2)
    ident = Matrix.identity(alg_h4f2.field, alg_h4f2.dim)
    assert j.matrix * j.matrix == ident


def test_involution_antimultiplicative_all_pairs(h4f2, tau_int, alg_h4f2):
    j = wf.natural_involution(tau_int, alg_h4f2)
    blades = [alg_h4f2.basis_blade(b) for b in range(alg_h4f2.dim)]
    for a, b in itertools.product(blades, repeat=2):
        assert j.apply(a * b) == j.apply(b) * j.apply(a)


def test_sym_alt_dimensions(h4f2, tau_int, alg_h4f2):
    j = wf.natural_involution(tau_int, alg_h4f2)
    sym, alt = sym_alt_dimensions(j)
    assert sym + alt == alg_h4f2.dim
    # Alt subset of Sym in characteristic 2
    op = Matrix.identity(alg_h4f2.field, alg_h4f2.dim) + j.matrix
    for col in range(alg_h4f2.dim):
        image = alg_h4f2.from_coeff_vector(op.col(col))
        assert j.apply(image) == image


def test_involution_type_examples(h4f2, tau_int, tau_r2t, alg_h4f2):
    assert wf.involution_type(wf.natural_involution(tau_int, alg_h4f2)) == "orthogonal"
    # identity: r = 0 != k, so 1 = (1 + J)(e1 e2) lies in Alt
    j_id = wf.natural_involution(wf.identity_isometry(h4f2), alg_h4f2)
    assert wf.involution_type(j_id) == "symplectic"
    assert wf.involution_type(wf.natural_involution(tau_r2t)) == "orthogonal"


def test_alt_membership_witness(h4f2, alg_h4f2):
    j_id = wf.natural_involution(wf.identity_isometry(h4f2), alg_h4f2)
    witness = alt_membership(j_id, alg_h4f2.one())
    assert witness is not None
    assert witness + j_id.apply(witness) == alg_h4f2.one()


# ---------------------------------------------------------------------------
# the commutative residual subalgebra
# ---------------------------------------------------------------------------

def test_phi_interchange(tau_int, alg_h4f2, f2):
    phi = wf.phi_subalgebra(tau_int)
    assert phi.dim == 4
    # spanned by 1, e1, e3, e1 e3 with all generator squares zero
    assert phi.generator_squares == (f2.zero, f2.zero)
    blades = {frozenset(m.coeffs) for m in phi.monomials}
    assert blades == {frozenset([0]), frozenset([0b0001]),
                      frozenset([0b0100]), frozenset([0b0101])}


def test_phi_r2t(tau_r2t, ft):
    phi = wf.phi_subalgebra(tau_r2t)
    assert phi.dim == 2
    assert phi.generator_squares == (ft.t,)


def test_phi_r4t(tau_r4t, ft):
    phi = wf.phi_subalgebra(tau_r4t)
    assert phi.dim == 4
    assert phi.generator_squares == (ft.t, ft.t)


def test_phi_requires_residual_fixed(h4f2):
    with pytest.raises(ResidualNotFixed):
        wf.phi_subalgebra(wf.identity_isometry(h4f2))


# ---------------------------------------------------------------------------
# alternating generators
# ---------------------------------------------------------------------------

def test_alternating_generators_r2t(r2t, tau_r2t):
    report = wf.alternating_generators_check(tau_r2t, (r2t.basis_vector(0),))
    assert report.ok
    w = report.explicit_witnesses[0]
    j = wf.natural_involution(tau_r2t)
    alg = wf.algebra_for_space(r2t)
    assert w + j.apply(w) == alg.vector(r2t.basis_vector(0))


def test_alternating_generators_r4t_products(r4t, tau_r4t):
    basis = (r4t.basis_vector(0), r4t.basis_vector(2))
    report = wf.alternating_generators_check(tau_r4t, basis)
    assert report.ok
    assert len(report.explicit_witnesses) == 3  # u1, u2, u1 u2
    assert len(report.solved_witnesses) == 3


def test_alternating_generators_zero_square(tau_int, h4f2):
    with pytest.raises(ZeroSquare):
        wf.alternating_generators_check(
            tau_int, (h4f2.basis_vector(0), h4f2.basis_vector(2)))


def test_alternating_generators_checks_the_residual_gram_in_order(r4t, tau_r4t):
    # w(u1, u1) = w(u2, u2) = t and w(u1, u2) = 0, so u1 + u2 has norm 0
    u1, u2 = r4t.basis_vector(0), r4t.basis_vector(2)
    both = tuple(a + b for a, b in zip(u1, u2))
    with pytest.raises(NotOrthogonalBasis):
        wf.alternating_generators_check(tau_r4t, (u1, both))
    with pytest.raises(ZeroSquare):
        wf.alternating_generators_check(tau_r4t, (both, u1))


# ---------------------------------------------------------------------------
# Pfister data
# ---------------------------------------------------------------------------

def test_pfister_interchange_all_ones(tau_int, f2):
    pf = wf.pfister_invariant(tau_int)
    assert pf.generators == (f2.one, f2.one)
    assert pf.square_flags == (True, True)


def test_pfister_r2t(tau_r2t, ft):
    pf = wf.pfister_invariant(tau_r2t)
    assert pf.generators == (ft.t,)
    assert pf.square_flags == (False,)


def test_pfister_r4t(tau_r4t, ft):
    pf = wf.pfister_invariant(tau_r4t)
    assert pf.generators == (ft.t, ft.t)


def test_pfister_checks_the_kept_diagonal_against_q(r4t, tau_r4t, ft):
    tau = wf.Isometry(r4t, tau_r4t.mat)  # its own memo, apart from the fixture's
    rows, diagonal = wf.wall_form(tau).orthogonal_rows()
    tau._memo["orthogonal_basis"] = (rows, (diagonal[0] * ft.t,) + diagonal[1:])
    with pytest.raises(InvariantViolation, match="residual diagonal does not match q"):
        wf.pfister_invariant(tau)


def test_pfister_structural_equality(ft, tau_r4t):
    pf = wf.pfister_invariant(tau_r4t)
    t = ft.t
    # t and t^3 lie in the same square class (t^3 = t * (t)^2)
    other = wf.PfisterDescriptor(ft, (t * t * t, t), (False, False))
    assert pf == other
    different = wf.PfisterDescriptor(ft, (t, ft.one), (False, True))
    assert pf != different


# ---------------------------------------------------------------------------
# transpose criterion and the explicit matrix model
# ---------------------------------------------------------------------------

def test_criterion_interchange_holds(tau_int):
    crit = wf.transpose_iso_criterion(tau_int)
    assert crit.holds and crit.structure == "alternating"


def test_criterion_r2t_fails(tau_r2t):
    crit = wf.transpose_iso_criterion(tau_r2t)
    assert not crit.holds
    assert crit.structure == "fails"


def test_criterion_r2t_unit_variant_holds(ft):
    # same plane with q(u) = 1 instead of t: the reflection has a trivial
    # spinor norm, so the criterion holds
    space = wf.QuadraticSpace.from_q_upper(
        ft, wf.Matrix(ft, [[ft.one, ft.one], [ft.zero, ft.zero]]))
    tau = wf.reflection(space, space.basis_vector(0))
    crit = wf.transpose_iso_criterion(tau)
    assert crit.holds and crit.structure == "unit-diagonal"
    with pytest.raises(UnsupportedField):
        wf.explicit_matrix_iso(tau)


def test_criterion_r4t_fails(tau_r4t):
    assert not wf.transpose_iso_criterion(tau_r4t).holds


def test_explicit_iso_interchange(h4f2, tau_int, alg_h4f2):
    iso = wf.explicit_matrix_iso(tau_int)
    assert iso.size == 4
    # construction is self-verifying; re-check a few identities here
    j = wf.natural_involution(tau_int, alg_h4f2)
    for blade in range(alg_h4f2.dim):
        elt = alg_h4f2.basis_blade(blade)
        assert iso.apply(j.apply(elt)) == iso.apply(elt).transpose()
    for s in range(alg_h4f2.dim):
        for t in range(alg_h4f2.dim):
            a, b = alg_h4f2.basis_blade(s), alg_h4f2.basis_blade(t)
            assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)


def test_explicit_iso_gf4_reflection(f4):
    space = wf.QuadraticSpace.from_q_upper(
        f4, wf.Matrix(f4, [[f4.one, f4.one], [f4.zero, f4.zero]]))
    tau = wf.reflection(space, space.basis_vector(0))
    iso = wf.explicit_matrix_iso(tau)
    assert iso.size == 2
    alg = wf.algebra_for_space(space)
    flat = Matrix(f4, [
        [img[r, c] for r in range(2) for c in range(2)]
        for img in iso.blade_images
    ])
    assert flat.rank() == 4  # bijective onto M_2(GF(4))


def test_explicit_iso_r2t_criterion_fails(tau_r2t):
    with pytest.raises(CriterionFails):
        wf.explicit_matrix_iso(tau_r2t)


@pytest.mark.parametrize("literal", ["gf(2)", "gf(4;x^2+x+1)", "gf(8)"])
def test_quaternion_closed_form_splits_every_plane(literal):
    field = wf.parse_field(literal)
    ident = Matrix.identity(field, 2)
    for qa, qb in itertools.product(field.elements(), repeat=2):
        a, b = clifford._quaternion_matrices(field, qa, qb)
        assert a * a == ident.scale(qa) and b * b == ident.scale(qb)
        assert a * b + b * a == ident
        flat = Matrix(field, [sum(m.rows, ()) for m in (ident, a, b, a * b)])
        assert flat.rank() == 4


def test_explicit_iso_gf8(f8):
    w = f8.parse("w")
    plane = wf.QuadraticSpace.from_q_upper(f8, Matrix(f8, [[w, f8.one], [f8.zero, w * w]]))
    h4f8 = wf.QuadraticSpace.hyperbolic(f8, 2)
    for tau, size in ((wf.reflection(plane, (f8.one, w)), 2),
                      (wf.eichler(h4f8, h4f8.basis_vector(0), h4f8.basis_vector(2)), 4)):
        iso = wf.explicit_matrix_iso(tau)
        assert iso.size == size
        _verify(wf.natural_involution(tau, iso.algebra), _images(iso))


def _count_calls(monkeypatch, modules, name):
    """Count the calls to `name` made through each of `modules`."""
    calls = []
    for module in modules:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real: calls.append(args) or real(*args))
    return calls


def test_residual_orthogonal_basis_is_computed_once(tau_r4t, monkeypatch):
    from wallforms import wallform
    calls = _count_calls(monkeypatch, (wallform, clifford), "orthogonal_basis")
    tau = wf.Isometry(tau_r4t.space, tau_r4t.mat)
    gens = wf.pfister_invariant(tau).generators
    assert not wf.transpose_iso_criterion(tau).holds
    assert not wf.transpose_iso_criterion(tau).holds
    d = wf.decompose(tau)
    assert len(calls) == 1
    basis, diagonal = wf.wall_form(tau).orthogonal_basis()
    assert [blk.u for blk in d.blocks] == list(basis)
    assert gens == diagonal == tuple(tau.space.eval_q(blk.u) for blk in d.blocks)


def test_clif_runner_evaluates_the_criterion_once_per_element(h4f2, monkeypatch):
    from wallforms import oracle
    modules = [m for m in (clifford, oracle) if hasattr(m, "transpose_iso_criterion")]
    calls = _count_calls(monkeypatch, modules, "transpose_iso_criterion")
    report = wf.exhaustive_verify("clif", h4f2)
    assert report.checked > 0 and report.failed == 0
    assert len(calls) == report.checked


def test_matrix_model_is_built_once_per_algebra(f8, monkeypatch):
    h4f8 = wf.QuadraticSpace.hyperbolic(f8, 2)
    fresh = functools.lru_cache(maxsize=None)(CliffordAlgebra.from_space)
    monkeypatch.setattr(clifford, "algebra_for_space", fresh)
    calls = _count_calls(monkeypatch, (clifford,), "hyperbolic_basis_alternating")
    e = h4f8.basis_vector
    isos = [wf.explicit_matrix_iso(wf.eichler(h4f8, e(0), e(2))),
            wf.explicit_matrix_iso(wf.eichler(h4f8, e(1), e(3)))]
    assert len(calls) == 1
    assert isos[0].algebra is isos[1].algebra is fresh(h4f8)


@pytest.mark.parametrize("literal, planes", [
    ("gf(2)", 2), ("gf(4;x^2+x+1)", 2), ("gf(8)", 2), ("gf(2)", 3), ("gf(2)", 0)])
def test_base_model_blades_are_ordered_generator_products(literal, planes):
    """Each blade image of the model is the boxed product of its
    generators' images in increasing order (the identity for blade 0)."""
    field = wf.parse_field(literal)
    alg = wf.algebra_for_space(wf.QuadraticSpace.hyperbolic(field, planes))
    model = clifford._base_model(alg)
    size = 1 << planes
    assert model.dtype == np.uint8 and model.shape == (alg.dim, size, size)
    gens = [Matrix.from_payloads(field, model[1 << i].tolist()) for i in range(alg.n)]
    for blade in range(alg.dim):
        expected = Matrix.identity(field, size)
        for i in range(alg.n):
            if blade >> i & 1:
                expected = expected * gens[i]
        assert Matrix.from_payloads(field, model[blade].tolist()) == expected


def test_matrix_iso_images_are_the_read_only_payloads_of_the_blade_images(h4f2, tau_int):
    iso = wf.explicit_matrix_iso(tau_int)
    images = iso.images
    assert images.dtype == np.uint8 and images.shape == (16, 4, 4)
    assert not images.flags.writeable
    with pytest.raises(ValueError):
        images[0, 0, 0] = 1
    assert np.array_equal(images, [m.payload_rows for m in iso.blade_images])
    again = wf.explicit_matrix_iso(tau_int)
    assert again == iso and hash(again) == hash(iso)


def test_matrix_iso_of_zero_is_the_zero_matrix(f8):
    h4f8 = wf.QuadraticSpace.hyperbolic(f8, 2)
    iso = wf.explicit_matrix_iso(wf.eichler(h4f8, h4f8.basis_vector(0), h4f8.basis_vector(2)))
    assert iso.apply(iso.algebra.zero()) == Matrix.zeros(f8, 4, 4)
    assert iso.apply(iso.algebra.one()) == Matrix.identity(f8, 4)


# ---------------------------------------------------------------------------
# conjugating elements
# ---------------------------------------------------------------------------

def test_goldman_frame_element(h4f2, tau_int, alg_h4f2, f2):
    g = wf.goldman_element(tau_int, "frame")
    # normalized frame (e1, e2, e3, e4): g = 1 + w x = 1 + e3 e1 = 1 + e1 e3
    assert g == alg_h4f2.one() + alg_h4f2.basis_blade(0b0101)
    g_inv = alg_h4f2.inverse(g)
    for i in range(4):
        v = alg_h4f2.vector(h4f2.basis_vector(i))
        assert g * v * g_inv == alg_h4f2.vector(tau_int.apply(h4f2.basis_vector(i)))


def test_goldman_swap_plane(h4f2, tau_int, alg_h4f2):
    g = wf.goldman_element(tau_int, "swap-plane")
    g_inv = alg_h4f2.inverse(g)
    for i in range(4):
        v = alg_h4f2.vector(h4f2.basis_vector(i))
        assert g * v * g_inv == alg_h4f2.vector(tau_int.apply(h4f2.basis_vector(i)))


def test_goldman_gf4_conjugates(h4f4, f4):
    e = h4f4.basis_vector
    tau = wf.eichler(h4f4, e(0), e(2))
    assert tau.is_interchange()
    for construction in ("frame", "swap-plane"):
        g = wf.goldman_element(tau, construction)
        alg = wf.algebra_for_space(h4f4)
        g_inv = alg.inverse(g)
        assert g_inv == g and g * g == alg.one()
        for i in range(4):
            v = alg.vector(e(i))
            assert g * v * g_inv == alg.vector(tau.apply(e(i)))


def test_goldman_rejects_non_interchange(h4f2):
    with pytest.raises(NotInterchange):
        wf.goldman_element(wf.identity_isometry(h4f2))


def _frame_with(monkeypatch, rows):
    """normal_frame, as goldman_element reads it, with its rows (x, y, w, z)
    replaced by `rows(x, y, w, z)`."""
    real = clifford.normal_frame
    monkeypatch.setattr(clifford, "normal_frame", lambda tau: Matrix.from_payloads(
        tau.space.field, rows(*real(tau).payload_rows)))


def test_goldman_checks_its_conjugation(tau_int, monkeypatch):
    """g = 1 squares to 1 but conjugates every e_i to itself.  A frame with
    y = w = 0 gives it in either construction: g = 1 + w x, and, with the
    swap plane's own check bypassed, g = 1 + (y + tau(y)) (v + tau(v)).
    The last check, g e_i g = tau(e_i), fails."""
    zero = (0,) * 4
    _frame_with(monkeypatch, lambda x, y, w, z: (x, zero, zero, z))
    monkeypatch.setattr(clifford, "_check_swap_plane", lambda tau, pair: None)
    for construction in ("frame", "swap-plane"):
        with pytest.raises(InvariantViolation, match="conjugation does not reproduce"):
            wf.goldman_element(tau_int, construction)


def test_goldman_checks_that_g_squares_to_one(tau_int, monkeypatch):
    """With w = y the frame construction gives g = 1 + y x.  The frame of
    tau_int is (e_1, e_2, e_3, e_4), and q(e_1) = q(e_2) = 0 with
    b(e_1, e_2) = 1 makes (y x)^2 = y x, so g^2 = 1 + y x.  (The
    swap-plane construction multiplies two vectors of the image of
    tau - 1, the residual space, so its g^2 = 1 holds for any plane.)"""
    _frame_with(monkeypatch, lambda x, y, w, z: (x, y, y, z))
    with pytest.raises(InvariantViolation, match="does not square to 1"):
        wf.goldman_element(tau_int, "frame")


def test_swap_plane_check_rejects_a_pairing_other_than_one(h4f4, f4):
    """(y, w (x + z)) from the normal frame spans the swap plane, but
    b(y, w (x + z)) = w b(y, x + z) = w: the basis is not unimodular."""
    e = h4f4.basis_vector
    tau = wf.eichler(h4f4, e(0), e(2))
    x, y, _, z = wf.interchange_normal_basis(tau)
    w = f4.parse("w")
    pair = Matrix(f4, [y, tuple(w * (a + c) for a, c in zip(x, z))])
    with pytest.raises(InvariantViolation, match="not unimodular"):
        clifford._check_swap_plane(tau, pair)


def test_swap_plane_check_rejects_a_plane_not_orthogonal_to_its_image(h4f4, f4):
    """A unimodular plane that meets its image only in 0 and fills the
    space with it, yet is not orthogonal to it: only the Gram product of the
    plane against its image rejects it."""
    e = h4f4.basis_vector
    tau = wf.eichler(h4f4, e(0), e(2))
    z, w, w1 = f4.zero, f4.parse("w"), f4.parse("w+1")
    pair = Matrix(f4, [[z, w1, w, z], [z, z, w, w1]])
    assert h4f4.eval_b(*pair.rows) == f4.one
    with pytest.raises(InvariantViolation, match="not orthogonal to its image"):
        clifford._check_swap_plane(tau, pair)


# ---------------------------------------------------------------------------
# tensor factorization
# ---------------------------------------------------------------------------

def test_tensor_witness_interchange_plus_identity(f2, h4f2, tau_int):
    plane = wf.QuadraticSpace.hyperbolic(f2, 1)
    big = h4f2.orthogonal_sum(plane)
    mat = [[tau_int.mat[i, j] for j in range(4)] + [f2.zero] * 2 for i in range(4)]
    mat += [[f2.zero] * 4 + [f2.one, f2.zero], [f2.zero] * 4 + [f2.zero, f2.one]]
    tau = wf.Isometry(big, wf.Matrix(f2, mat))
    witness = wf.tensor_decomposition_witness(tau)
    kinds = sorted(f.kind for f in witness.factors)
    assert kinds == ["identity-plane", "interchange"]


def test_tensor_witness_rejects_factors_that_are_not_orthogonal(monkeypatch, f2, h4f2, tau_int):
    """A decomposition whose identity part is not orthogonal to its
    interchange block: the Gram product of the factor vectors rejects it
    before the commutation loop."""
    big = h4f2.orthogonal_sum(wf.QuadraticSpace.hyperbolic(f2, 1))
    tau = wf.Isometry(big, block_diag(f2, [tau_int.mat, Matrix.identity(f2, 2)]))
    d = wf.decompose(tau)
    e = big.basis_vector
    skew = Subspace.from_vectors(big, [e(4), vadd(e(5), e(1))])
    assert any(big.eval_b(a, b) for a in skew.vectors() for b in d.blocks[0].vectors())
    monkeypatch.setattr(clifford, "decompose",
                        lambda t: dataclasses.replace(d, fixed_complement=skew))
    with pytest.raises(InvariantViolation, match="factors are not orthogonal"):
        wf.tensor_decomposition_witness(tau)


def test_tensor_witness_r4t(tau_r4t):
    witness = wf.tensor_decomposition_witness(tau_r4t)
    assert [f.kind for f in witness.factors] == ["reflection", "reflection"]


def test_tensor_witness_identity_plane(f2):
    plane = wf.QuadraticSpace.hyperbolic(f2, 1)
    witness = wf.tensor_decomposition_witness(wf.identity_isometry(plane))
    assert [f.kind for f in witness.factors] == ["identity-plane"]


# ---------------------------------------------------------------------------
# symmetric matrices with scalar square
# ---------------------------------------------------------------------------

def test_square_scalar_identity(f2):
    assert wf.square_scalar_check(Matrix.identity(f2, 2), f2.one)


def test_square_scalar_exhaustive_gf4(f4):
    elems = list(f4.elements())
    checked = 0
    for diag1, diag2, off in itertools.product(elems, repeat=3):
        x = Matrix(f4, [[diag1, off], [off, diag2]])
        sq = x * x
        c = sq[0, 0]
        if sq != Matrix.identity(f4, 2).scale(c):
            continue
        checked += 1
        assert wf.square_scalar_check(x, c)
    assert checked > 0


def test_square_scalar_rejects_asymmetric(f2):
    x = Matrix.from_ints(f2, [[0, 1], [0, 0]])
    with pytest.raises(NotSymmetric):
        wf.square_scalar_check(x, f2.zero)


def test_square_scalar_rejects_nonscalar(f4):
    w = f4.parse("w")
    x = Matrix(f4, [[w, f4.zero], [f4.zero, f4.one]])
    with pytest.raises(NotScalarSquare):
        wf.square_scalar_check(x, f4.one)


def test_involution_antimultiplicative_six_dim(f2, h4f2, tau_int):
    plane = wf.QuadraticSpace.hyperbolic(f2, 1)
    big = h4f2.orthogonal_sum(plane)
    mat = [[tau_int.mat[i, j] for j in range(4)] + [f2.zero] * 2 for i in range(4)]
    mat += [[f2.zero] * 4 + [f2.one, f2.zero], [f2.zero] * 4 + [f2.zero, f2.one]]
    tau = wf.Isometry(big, wf.Matrix(f2, mat))
    alg = wf.algebra_for_space(big)
    j = wf.natural_involution(tau, alg)
    for a_bits in range(alg.dim):
        for b_bits in range(alg.dim):
            a, b = alg.basis_blade(a_bits), alg.basis_blade(b_bits)
            assert j.apply(a * b) == j.apply(b) * j.apply(a)


def test_six_dim_three_reflection_model(f2):
    # three orthogonal anisotropic vectors: residual form <1,1,1>, model M_8
    space = wf.QuadraticSpace.hyperbolic(f2, 3)
    vecs = [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)]
    us = [tuple(f2.from_int(c) for c in v) for v in vecs]
    tau = wf.identity_isometry(space)
    for u in us:
        tau = tau * wf.reflection(space, u)
    assert tau.residual_space() == tau.fixed_space()
    pf = wf.pfister_invariant(tau)
    assert pf.generators == (f2.one,) * 3
    iso = wf.explicit_matrix_iso(tau)
    assert iso.size == 8
    witness = wf.tensor_decomposition_witness(tau)
    assert [f.kind for f in witness.factors] == ["reflection"] * 3
    report = wf.alternating_generators_check(tau, wf.wall_form(tau).basis)
    assert report.ok
    assert len(report.explicit_witnesses) == 7


# ---------------------------------------------------------------------------
# constructors reject foreign input
# ---------------------------------------------------------------------------

def test_element_rejects_plain_int(alg_h4f2):
    with pytest.raises(DescriptorMismatch):
        alg_h4f2.element({1: 1})


def test_constructors_reject_element_of_another_field(h4f4, f7):
    alg = wf.algebra_for_space(h4f4)
    seven = f7.from_int(3)
    with pytest.raises(DescriptorMismatch):
        alg.element({0: seven})
    with pytest.raises(DescriptorMismatch):
        alg.scalar(seven)
    with pytest.raises(DescriptorMismatch):
        alg.vector((seven,) * 4)
    with pytest.raises(DescriptorMismatch):
        alg.one().scale(seven)


@pytest.mark.parametrize("length", [2, 5])
def test_vector_rejects_wrong_length(alg_h4f2, f2, length):
    with pytest.raises(DimensionMismatch):
        alg_h4f2.vector((f2.one,) * length)
    with pytest.raises(DimensionMismatch, match=f"^{length} coefficients in dimension 16$"):
        alg_h4f2.from_coeff_vector((f2.one,) * length)


@pytest.mark.parametrize("blade", [99, 16, -1])
def test_blades_outside_the_algebra_are_rejected(alg_h4f2, f2, blade):
    with pytest.raises(DimensionMismatch):
        alg_h4f2.basis_blade(blade)
    with pytest.raises(DimensionMismatch):
        alg_h4f2.element({blade: f2.one})
    for pair in ((blade, 0), (0, blade)):
        with pytest.raises(DimensionMismatch,
                           match=f"^blades {pair[0]}, {pair[1]} outside an algebra of dimension 16$"):
            alg_h4f2.blade_mul(*pair)


def test_algebra_refuses_a_polar_form_of_another_field_or_shape(f2, f4, h4f2):
    with pytest.raises(DescriptorMismatch, match="^polar form over .* for an algebra over "):
        CliffordAlgebra(f2, [f2.zero] * 2, Matrix.identity(f4, 2))
    with pytest.raises(DimensionMismatch, match=r"^polar form of shape \(4, 4\) for 2 generators$"):
        CliffordAlgebra(f2, [f2.zero] * 2, h4f2.gram)


@pytest.fixture(scope="module")
def order_three(h4f2, f2):
    """The product of the reflections along u = (1, 1, 0, 0) and
    v = (0, 1, 1, 1) of H4F2: q(u) = q(v) = b(u, v) = 1, so it has order 3."""
    o, z = f2.one, f2.zero
    return wf.reflection(h4f2, (o, o, z, z)) * wf.reflection(h4f2, (z, o, o, o))


@pytest.mark.parametrize("build", ["natural_involution", "phi_subalgebra", "pfister_invariant",
                                   "tensor_decomposition_witness"])
def test_constructions_refuse_a_non_involution(order_three, build):
    assert not order_three.is_involution()
    assert (order_three * order_three * order_three).mat == Matrix.identity(order_three.space.field, 4)
    with pytest.raises(NotInvolution, match=r"^tau\^2 != id$"):
        getattr(wf, build)(order_three)


def test_goldman_rejects_unknown_construction(tau_int):
    with pytest.raises(UnknownConstruction) as info:
        wf.goldman_element(tau_int, "bogus")
    assert isinstance(info.value, PreconditionError)


# ---------------------------------------------------------------------------
# differential tests: the payload kernel against a boxed reference (the
# FieldElement loop over blade_mul) and against the defining relations
# ---------------------------------------------------------------------------

CLIFFORD_FIELDS = ["gf(2)", "gf(4;x^2+x+1)", "gf(8)", "gf2(t)"]


@st.composite
def _scalar(draw, field, nonzero=False, bound=15):
    """Zero, or a nonzero element; over GF(2)(t) a fraction whose numerator
    and denominator are polynomials with bit patterns 1..`bound`."""
    if not nonzero and draw(st.integers(0, 2)) == 0:
        return field.zero
    if field.kind == "ratfunc":
        return field.fraction(draw(st.integers(1, bound)), draw(st.integers(1, bound)))
    return field.element(draw(st.integers(1, field.order() - 1)))


@st.composite
def _algebra(draw, field):
    """C(q) on random q values and a random alternating polar form."""
    n = draw(st.integers(1, 4))
    qvals = [draw(_scalar(field)) for _ in range(n)]
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(_scalar(field))
    return CliffordAlgebra(field, qvals, Matrix(field, rows))


@st.composite
def _clifford_element(draw, alg):
    blades = draw(st.lists(st.integers(0, alg.dim - 1), max_size=4))
    return alg.element({b: draw(_scalar(alg.field)) for b in blades})


def _ref_mul(alg, a, b):
    """The boxed product: a FieldElement loop over the structure constants."""
    out = {}
    for s, ca in a.coeffs.items():
        for t, cb in b.coeffs.items():
            c = ca * cb
            for blade, coef in alg.blade_mul(s, t).items():
                out[blade] = out.get(blade, alg.field.zero) + coef * c
    return {blade: c for blade, c in out.items() if c}


def _clifford_settings():
    return settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@pytest.mark.parametrize("literal", CLIFFORD_FIELDS)
@given(data=st.data())
@_clifford_settings()
def test_payload_product_matches_boxed_reference(literal, data):
    field = wf.parse_field(literal)
    alg = data.draw(_algebra(field))
    a, b, c = (data.draw(_clifford_element(alg)) for _ in range(3))
    ab = a * b
    assert ab.coeffs == _ref_mul(alg, a, b)
    assert all(v.field is field and v for v in ab.coeffs.values())
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert alg.coeff_vector(ab) == tuple(
        ab.coeffs.get(blade, field.zero) for blade in range(alg.dim))


@pytest.mark.parametrize("literal", CLIFFORD_FIELDS)
@given(data=st.data())
@_clifford_settings()
def test_generator_relations(literal, data):
    field = wf.parse_field(literal)
    alg = data.draw(_algebra(field))
    gens = [alg.basis_blade(1 << i) for i in range(alg.n)]
    for i, e in enumerate(gens):
        assert e * e == alg.scalar(alg.qvals[i])
        for j in range(i + 1, alg.n):
            assert e * gens[j] + gens[j] * e == alg.scalar(alg.bmat[i, j])


@st.composite
def _involution(draw, field):
    """A reflection, or a product of two commuting reflections, of a
    random regular space of dimension 2 or 4.  Over GF(2)(t) the space and
    tau are drawn with degree-1 fractions: with degree 3, Clifford products
    of random elements under tau can pass the field's degree cap."""
    n = draw(st.sampled_from([2, 4]))
    rows = [[draw(_scalar(field, bound=3)) if j >= i else field.zero for j in range(n)]
            for i in range(n)]
    try:
        space = wf.QuadraticSpace.from_q_upper(field, Matrix(field, rows))
    except NotRegular:
        assume(False)
    u = tuple(draw(_scalar(field, bound=3)) for _ in range(n))
    try:
        tau = wf.reflection(space, u)
    except IsotropicVector:
        assume(False)
    v = tuple(draw(_scalar(field, bound=3)) for _ in range(n))
    if draw(st.booleans()) and space.eval_q(v) and not space.eval_b(u, v):
        tau = tau * wf.reflection(space, v)
    return tau


@pytest.mark.parametrize("literal", CLIFFORD_FIELDS)
@given(data=st.data())
@_clifford_settings()
def test_natural_involution_matches_definition(literal, data):
    field = wf.parse_field(literal)
    tau = data.draw(_involution(field))
    space = tau.space
    alg = CliffordAlgebra.from_space(space)
    j = wf.natural_involution(tau, alg)
    tau_vectors = [alg.vector(tau.apply(space.basis_vector(i))) for i in range(alg.n)]
    for blade in range(alg.dim):
        # J(e_{i1} ... e_{il}) = tau(e_{il}) ... tau(e_{i1})
        expected = alg.one()
        for i in reversed(range(alg.n)):
            if blade >> i & 1:
                expected = expected * tau_vectors[i]
        assert j.images[blade] == expected
        assert j.apply(alg.basis_blade(blade)) == expected
        assert alg.coeff_vector(expected) == j.matrix.col(blade)
    a, b = data.draw(_clifford_element(alg)), data.draw(_clifford_element(alg))
    assert j.apply(a * b) == j.apply(b) * j.apply(a)
    assert j.apply(j.apply(a)) == a


# ---------------------------------------------------------------------------
# explicit_matrix_iso: each final check fails on a corrupted input
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_h4f2(tau_int, alg_h4f2):
    return wf.natural_involution(tau_int, alg_h4f2), _images(wf.explicit_matrix_iso(tau_int))


def _images(iso):
    """The blade images of a model as the (2^n, N, N) array that
    `_verify_matrix_iso` checks."""
    return iso.images


def _verify(inv, imgs):
    """`_verify_matrix_iso` on the blade images `imgs` of a model of
    (C(q), J), with J read from the involution `inv`."""
    _verify_matrix_iso(inv.algebra, np.array(inv.matrix.payload_rows, dtype=np.uint8).T, imgs)


def _plus_one(imgs, blade, r, c):
    """imgs with one added to entry (r, c) of one blade image."""
    imgs = imgs.copy()
    imgs[blade, r, c] ^= 1
    return imgs


def test_matrix_iso_checks_pass(model_h4f2):
    _verify(*model_h4f2)


def test_matrix_iso_dependent_images_fail_rank(model_h4f2):
    inv, imgs = model_h4f2
    imgs = imgs.copy()
    imgs[5] = imgs[6]
    with pytest.raises(InvariantViolation, match="not linearly independent"):
        _verify(inv, imgs)


def test_matrix_iso_every_corrupted_image_entry_fails(model_h4f2):
    inv, imgs = model_h4f2
    for blade, r, c in itertools.product(*map(range, imgs.shape)):
        with pytest.raises(InvariantViolation, match="transpose|multiplicative|independent"):
            _verify(inv, _plus_one(imgs, blade, r, c))


def test_matrix_iso_every_corrupted_involution_entry_fails(model_h4f2):
    inv, imgs = model_h4f2
    for r, c in itertools.product(range(inv.matrix.nrows), repeat=2):
        rows = [list(row) for row in inv.matrix.payload_rows]
        rows[r][c] ^= 1
        bad = AlgebraInvolution(inv.algebra, inv.tau, inv.images,
                                Matrix.from_payloads(inv.matrix.field, rows))
        with pytest.raises(InvariantViolation, match="does not carry J to transpose"):
            _verify(bad, imgs)


# injected faults on the path explicit_matrix_iso takes: the conjugated
# images reach the final checks as one array, and the transport form comes
# from the payload arrays of the model


@pytest.fixture(scope="module", params=["gf(2)", "gf(4;x^2+x+1)"])
def interchange(request):
    """An involution with r = k on H4 over GF(2) or GF(4), whose transpose
    criterion holds: the Eichler transformation E(e_1, e_3)."""
    space = wf.QuadraticSpace.hyperbolic(wf.parse_field(request.param), 2)
    return wf.eichler(space, space.basis_vector(0), space.basis_vector(2))


def _model_with(monkeypatch, tau, fault):
    """explicit_matrix_iso(tau) with `fault` applied to a copy of the
    conjugated images before they are checked."""
    real = clifford._verify_matrix_iso
    monkeypatch.setattr(clifford, "_verify_matrix_iso",
                        lambda alg, j_rows, imgs: real(alg, j_rows, fault(imgs.copy())))
    return wf.explicit_matrix_iso(tau)


def _corrupt_one_entry(imgs):
    # a diagonal entry of f(e_1 e_2 e_4): the images stay independent and
    # still carry J to transpose, so only the products see the change
    imgs[0b1011, 1, 1] ^= 1
    return imgs


def _transpose_one(imgs):
    imgs[3] = imgs[3].T.copy()  # f(e_1 e_2) is not symmetric
    return imgs


def _duplicate(imgs):
    imgs[5] = imgs[6]
    return imgs


@pytest.mark.parametrize("fault, message", [
    (_corrupt_one_entry, "isomorphism is not multiplicative"),
    (_transpose_one, "isomorphism does not carry J to transpose"),
    (_duplicate, "blade images are not linearly independent"),
])
def test_explicit_iso_fault_raises_its_own_check(monkeypatch, interchange, fault, message):
    wf.explicit_matrix_iso(interchange)  # the model itself passes
    with pytest.raises(InvariantViolation, match=message):
        _model_with(monkeypatch, interchange, fault)


def _explicit_with_j(monkeypatch, tau, factor):
    """explicit_matrix_iso(tau) with J's matrix multiplied on the right by
    `factor(alg)`: J(e_b) becomes J(P(e_b)) for the linear map P whose
    matrix (columns the images of the blades) that is."""
    real = clifford.natural_involution

    def corrupted(tau, alg):
        inv = real(tau, alg)
        return AlgebraInvolution(alg, tau, inv.images, inv.matrix * factor(alg))
    monkeypatch.setattr(clifford, "natural_involution", corrupted)
    return wf.explicit_matrix_iso(tau)


def _unit_vector(alg):
    """e_1 + e_2, with square q(e_1 + e_2) = b(e_1, e_2) = 1 on H4."""
    return alg.basis_blade(0b01) + alg.basis_blade(0b10)


def test_transport_form_of_a_singular_j_raises(monkeypatch, interchange):
    """J(p x) for the idempotent p = f^-1(E_{0,0}), the first kept
    preimage: X_a = f(J(f^-1(E_{0,0} E_{a,0}))) vanishes for a > 0, so the
    transport form read off the X_a has one nonzero row and rank 1."""
    ranks = []
    rank = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: ranks.append(rank(m)) or ranks[-1])

    def left_by_idempotent(alg):
        row = clifford._unit_preimages(alg)[0].tolist()
        return alg.lmul_matrix(alg.from_coeff_vector(alg.field.wrap_all(row)))
    with pytest.raises(InvariantViolation, match="no invertible transport form found"):
        _explicit_with_j(monkeypatch, interchange, left_by_idempotent)
    assert ranks[-1] == 1


def test_transport_form_off_the_generator_equations_raises(monkeypatch, interchange):
    """J(x v) for the unit v = e_1 + e_2: X_a becomes f(J(v)) X_a, whose
    rows are combinations of the old ones, so the transport form read off
    is still the invertible W^T.  It no longer carries this map to the
    transpose: G f(J(e_i v)) = G f(J(v)) G^-1 f(e_i)^T G differs from
    f(e_i)^T G unless f(J(v)) is a scalar."""
    with pytest.raises(InvariantViolation, match="does not carry J to transpose on the generators"):
        _explicit_with_j(monkeypatch, interchange, lambda alg: alg.rmul_matrix(_unit_vector(alg)))


def test_asymmetric_transport_form_raises(monkeypatch, interchange):
    """J(v x v^-1) for the unit v = e_1 + e_2 = v^-1 is an anti-automorphism
    too, and its transport form G f(J(v)) satisfies its generator
    equations, but it is symmetric only if J(v) = v, and tau moves v."""
    alg = wf.algebra_for_space(interchange.space)
    v = _unit_vector(alg)
    assert wf.natural_involution(interchange, alg).apply(v) != v
    with pytest.raises(InvariantViolation, match="transport form is not symmetric"):
        _explicit_with_j(monkeypatch, interchange,
                         lambda alg: alg.lmul_matrix(v) * alg.rmul_matrix(v))


def _reference_transport_form(field, f_gen, f_j_gen):
    """The transport form as a linear solve: the canonical kernel vector of
    the n N^2 x N^2 system G f(J(e_i)) = f(e_i)^T G, given the (n, N, N)
    payload arrays of the f(e_i) and the f(J(e_i)), whose unknowns are the
    entries of G read row by row.  For A = f(J(e_i)) and B = f(e_i),
    equation (r, s) reads sum_t A[t, s] G[r, t] + B[t, r] G[t, s] = 0:
    row (r, s) of the system holds A[t, s] at unknown (r, t) and B[t, r]
    at unknown (t, s).  Over GF(2^k) the two terms add by XOR, and a 0/1
    factor selects payloads as an integer product does.  By Skolem-Noether
    the kernel is a line."""
    n, size = f_gen.shape[:2]
    eye = np.eye(size, dtype=np.uint8)
    # axes (i, r, s, unknown row, unknown column)
    system = (eye[None, :, None, :, None] * f_j_gen.transpose(0, 2, 1)[:, None, :, None, :]
              ^ f_gen.transpose(0, 2, 1)[:, :, None, :, None] * eye[None, None, :, None, :])
    system = Matrix.from_payloads(field, system.reshape(n * size * size, size * size).tolist())
    (kernel,) = system.kernel_rows()
    return Matrix.from_payloads(field, [kernel[i * size:(i + 1) * size] for i in range(size)])


@pytest.mark.parametrize("space, count, limit", [
    ("h4f2", 15, None), ("h4f4", 255, None), ("om42", 15, None), ("om44", 255, None),
    ("h6f2", 420, 20)])
def test_transport_form_is_the_canonical_kernel_vector(request, monkeypatch, space, count, limit):
    """On every r = k involution of each space (the first 20 on H6F2), the
    closed-form transport form is the canonical kernel vector of the
    linear system it solves, and the model built from that vector has the
    same blade images."""
    space = request.getfixturevalue(space)
    enum = wf.enumerate_orthogonal_group(space)
    isos = [iso for iso in map(enum.isometry, enum.involution_indices())
            if iso.residual_space() == iso.fixed_space()]
    assert len(isos) == count
    alg = wf.algebra_for_space(space)
    model = clifford._base_model(alg)
    generators = [1 << i for i in range(alg.n)]
    flat = model.reshape(alg.dim, alg.dim)
    arith = _batch_arith(space.field)
    forms = _count_calls(monkeypatch, (clifford,), "orthogonal_basis")
    orthogonal_basis = clifford.orthogonal_basis
    for iso in isos[:limit]:
        j_rows = np.array(wf.natural_involution(iso, alg).matrix.payload_rows, dtype=np.uint8).T
        f_j_gen = arith.matmul(j_rows[generators], flat).reshape(model[generators].shape)
        reference = _reference_transport_form(space.field, model[generators], f_j_gen)
        closed = wf.explicit_matrix_iso(iso)
        assert forms[-1] == (reference,)
        # the rest of the construction, from the reference form
        monkeypatch.setattr(clifford, "orthogonal_basis", lambda g: orthogonal_basis(reference))
        assert wf.explicit_matrix_iso(iso).blade_images == closed.blade_images
        monkeypatch.setattr(clifford, "orthogonal_basis", orthogonal_basis)


def test_unit_preimages_are_built_once_per_algebra(f8, monkeypatch):
    """U, the preimages of the matrix units E_{a,0}, is one elimination per
    algebra, kept beside the model and shared by every involution."""
    h4f8 = wf.QuadraticSpace.hyperbolic(f8, 2)
    fresh = functools.lru_cache(maxsize=None)(CliffordAlgebra.from_space)
    monkeypatch.setattr(clifford, "algebra_for_space", fresh)
    calls = _count_calls(monkeypatch, (clifford,), "_unit_preimages")
    builds = []
    solve_many = Matrix.solve_many
    monkeypatch.setattr(Matrix, "solve_many",
                        lambda m, rhs: builds.append(m.shape) or solve_many(m, rhs))
    e = h4f8.basis_vector
    for pair in ((0, 2), (1, 3), (0, 3)):
        wf.explicit_matrix_iso(wf.eichler(h4f8, e(pair[0]), e(pair[1])))
    alg = fresh(h4f8)
    assert len(calls) == 3 and builds.count((alg.dim, alg.dim)) == 1
    assert alg._preimages.shape == (4, alg.dim)


@pytest.mark.parametrize("pair", [(0, 5), (3, 5), (6, 9), (15, 15), (0b1010, 0b0001)])
def test_corrupted_structure_constant_fails_multiplicativity(monkeypatch, h4f2, tau_int, pair):
    class Corrupted(CliffordAlgebra):
        def blade_mul(self, s, t):
            out = super().blade_mul(s, t)
            if (s, t) == pair:
                out[0] = out.get(0, self.field.zero) + self.field.one
            return out

    alg = Corrupted.from_space(h4f2)
    monkeypatch.setattr(clifford, "algebra_for_space", lambda space: alg)
    with pytest.raises(InvariantViolation, match="isomorphism is not multiplicative"):
        wf.explicit_matrix_iso(tau_int)


@pytest.mark.parametrize("pair", [(4, 1), (1, 4)])  # e_2 e_0, e_0 e_2
def test_noncommuting_residual_generators_fail_phi_subalgebra(monkeypatch, h4f2, tau_int, pair):
    class Corrupted(CliffordAlgebra):
        def blade_mul(self, s, t):
            out = super().blade_mul(s, t)
            if (s, t) == pair:
                out[0] = out.get(0, self.field.zero) + self.field.one
            return out

    alg = Corrupted.from_space(h4f2)
    tau = wf.Isometry(h4f2, tau_int.mat)  # nothing derived on another algebra
    gens = [alg.vector(u) for u in wf.wall_form(tau).basis]
    assert len(gens) == 2 and gens[0] * gens[1] != gens[1] * gens[0]
    monkeypatch.setattr(clifford, "algebra_for_space", lambda space: alg)
    with pytest.raises(InvariantViolation):
        wf.phi_subalgebra(tau)


def test_natural_involution_rejects_an_algebra_of_another_space(h4f2, h4f4, f2, tau_int):
    """An algebra of another form on the same field and dimension, or of the
    same form over another field, with or without its space: tau is not an
    isometry of its space, so the call raises.  An algebra built without a
    space is accepted when its q values and polar form are tau's."""
    other_form = wf.QuadraticSpace.from_int_rows(
        f2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    for space in (other_form, h4f4):
        qvals = [space.qmat[i, i] for i in range(space.dim)]
        for alg in (wf.algebra_for_space(space), CliffordAlgebra(space.field, qvals, space.gram)):
            with pytest.raises(DimensionMismatch,
                               match="an isometry and an algebra of different spaces"):
                wf.natural_involution(tau_int, alg)
    # tau's q values (all zero) with another polar form, q = x1 x3 + x2 x4
    other_polar = wf.QuadraticSpace.from_int_rows(
        f2, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]).gram
    with pytest.raises(DimensionMismatch, match="an isometry and an algebra of different spaces"):
        wf.natural_involution(tau_int, CliffordAlgebra(f2, [f2.zero] * 4, other_polar))
    tau = wf.Isometry(h4f2, tau_int.mat)  # nothing derived on another algebra
    bare = CliffordAlgebra(f2, [f2.zero] * 4, h4f2.gram)
    assert wf.natural_involution(tau, bare).matrix == wf.natural_involution(tau_int).matrix


def test_natural_involution_is_kept_per_isometry_and_algebra(tau_int, h4f2, alg_h4f2):
    tau = wf.Isometry(h4f2, tau_int.mat)
    j = wf.natural_involution(tau, alg_h4f2)
    again = wf.natural_involution(tau, alg_h4f2)
    assert again.images is j.images and again.matrix is j.matrix and again.tau is tau
    other = wf.CliffordAlgebra.from_space(h4f2)  # a second algebra object of the space
    j_other = wf.natural_involution(tau, other)
    assert j_other.algebra is other and j_other.matrix == j.matrix
    assert wf.natural_involution(tau, alg_h4f2).images is j.images


# ---------------------------------------------------------------------------
# per-algebra tables: the sparse structure constants and the commutator
# table against references that recompute them, and Alt memberships from
# one elimination against one solve per element
# ---------------------------------------------------------------------------

def _ref_structure_constants(alg):
    """The dense (4^n, 2^n) payload matrix whose row s * 2^n + t holds the
    coefficients of e_s e_t, read from the algebra's structure table."""
    dim = alg.dim
    out = np.zeros((dim * dim, dim), dtype=np.uint8)
    for s in range(dim):
        for t in range(dim):
            for b, c in alg._terms(s, t):
                out[s * dim + t, b] = c
    return out


def _ref_pair_images(alg, flat):
    """The images of all blade pairs: the dense structure-constant matrix
    times the flattened blade images."""
    return _batch_arith(alg.field).matmul(_ref_structure_constants(alg), flat)


TABLE_SPACES = [("gf(2)", 2), ("gf(4;x^2+x+1)", 2), ("gf(8)", 2), ("gf(2)", 3)]


@pytest.mark.parametrize("literal, planes", TABLE_SPACES)
def test_sparse_structure_reproduces_the_dense_matrix(literal, planes):
    alg = CliffordAlgebra.from_space(wf.QuadraticSpace.hyperbolic(wf.parse_field(literal), planes))
    codes, starts = clifford._sparse_structure(alg)
    assert len(starts) == alg.dim ** 2 + 1 and starts[-1] == len(codes)
    for pair, row in enumerate(_ref_structure_constants(alg)):
        # (blade, coefficient) of the pair's codes c * 2^n + b; a zero
        # product keeps the one code 0
        terms = sorted(divmod(int(code), alg.dim)[::-1]
                       for code in codes[starts[pair]:starts[pair + 1]])
        assert terms == ([(b, int(row[b])) for b in np.flatnonzero(row)] or [(0, 0)])


@pytest.mark.parametrize("literal, planes", TABLE_SPACES)
def test_pair_images_match_the_dense_product(literal, planes):
    alg = CliffordAlgebra.from_space(wf.QuadraticSpace.hyperbolic(wf.parse_field(literal), planes))
    entries = 1 << (2 * planes)  # entries of an N x N image, N = 2^(n/2)
    rng = np.random.default_rng(29)
    flat = rng.integers(0, alg.field.order(), size=(alg.dim, entries), dtype=np.uint8)
    expected = _ref_pair_images(alg, flat)
    assert np.array_equal(clifford._pair_images(alg, flat, 0, alg.dim), expected)
    lo, hi = 3, 5  # a batch of rows s
    assert np.array_equal(clifford._pair_images(alg, flat, lo, hi),
                          expected[lo * alg.dim:hi * alg.dim])


@pytest.mark.parametrize("literal", CLIFFORD_FIELDS)
@given(data=st.data())
@_clifford_settings()
def test_commutator_product_matches_left_minus_right_multiplication(literal, data):
    field = wf.parse_field(literal)
    alg = data.draw(_algebra(field))
    vectors = [tuple(data.draw(_scalar(field)) for _ in range(alg.n))
               for _ in range(data.draw(st.integers(1, 2)))]
    expected = []
    for v in vectors:
        x = alg.vector(v)
        expected.extend((alg.lmul_matrix(x) - alg.rmul_matrix(x)).payload_rows)
    coords = [tuple(c.payload for c in v) for v in vectors]
    assert alg._centralizer_matrix(coords).payload_rows == tuple(expected)


def _ref_alt_membership(inv, a):
    """Alt membership as one solve of (I + J) x = a per element."""
    alg = inv.algebra
    sol = (Matrix.identity(alg.field, alg.dim) + inv.matrix).solve(alg.coeff_vector(a))
    return None if sol is None else alg.from_coeff_vector(sol)


@pytest.mark.parametrize("literal", CLIFFORD_FIELDS)
@given(data=st.data())
@_clifford_settings()
def test_one_elimination_alt_memberships_match_one_solve_each(literal, data):
    field = wf.parse_field(literal)
    tau = data.draw(_involution(field))
    alg = CliffordAlgebra.from_space(tau.space)
    inv = wf.natural_involution(tau, alg)
    members = [x + inv.apply(x) for x in (data.draw(_clifford_element(alg)) for _ in range(2))]
    others = [data.draw(_clifford_element(alg)) for _ in range(2)]
    elements = members + others + [alg.one()]
    witnesses = clifford._alt_witnesses(inv, elements)
    assert witnesses == [_ref_alt_membership(inv, a) for a in elements]
    assert witnesses == [alt_membership(inv, a) for a in elements]  # one at a time
    assert all(w is not None for w in witnesses[:2])


def test_one_elimination_keeps_a_non_member_apart(tau_int, alg_h4f2):
    inv = wf.natural_involution(tau_int, alg_h4f2)  # orthogonal: 1 is not in Alt
    member = alg_h4f2.basis_blade(0b0011) + inv.apply(alg_h4f2.basis_blade(0b0011))
    assert not member.is_zero()
    elements = [alg_h4f2.one(), member, alg_h4f2.one(), member]
    witnesses = clifford._alt_witnesses(inv, elements)
    assert witnesses == [_ref_alt_membership(inv, a) for a in elements]
    assert witnesses[0] is None and witnesses[2] is None
    assert witnesses[1] + inv.apply(witnesses[1]) == member


def test_tables_are_built_once_per_algebra(h4f4, monkeypatch):
    builds = []

    class Rows(list):
        def __setitem__(self, i, row):
            builds.append(("commutator row", i))
            super().__setitem__(i, row)

    class Spy(CliffordAlgebra):
        def __setattr__(self, name, value):
            if name == "_commutators":
                value = Rows(value)
            elif name == "_sparse" and value is not None:
                builds.append(("sparse", None))
            super().__setattr__(name, value)

    alg = Spy.from_space(h4f4)
    monkeypatch.setattr(clifford, "algebra_for_space", lambda space: alg)
    e = h4f4.basis_vector
    for tau in (wf.eichler(h4f4, e(0), e(2)), wf.eichler(h4f4, e(1), e(3))):
        wf.phi_subalgebra(tau)
        assert wf.explicit_matrix_iso(tau).algebra is alg
    assert ("sparse", None) in builds and len(builds) == len(set(builds))
    assert alg.center_dimension() == 1  # reads every row
    assert sorted(builds) == [("commutator row", i) for i in range(4)] + [("sparse", None)]


# ---------------------------------------------------------------------------
# phi_subalgebra: each check fails on a fault injected for it alone
# ---------------------------------------------------------------------------

def test_phi_multiplication_law_fails_on_a_scaled_top_monomial(h4f4, f4, monkeypatch):
    w = f4.parse("w")
    monomials = clifford._monomials

    def scaled_top(alg, gens):
        out = monomials(alg, gens)
        out[-1] = out[-1].scale(w)  # g_0 ... g_{s-1} times w: same span, still symmetric
        return out

    monkeypatch.setattr(clifford, "_monomials", scaled_top)
    enum = wf.enumerate_orthogonal_group(h4f4)
    checked = 0
    for tau in map(enum.isometry, enum.involution_indices()):
        if tau.residual_space() != tau.fixed_space():
            continue
        with pytest.raises(InvariantViolation, match=r"does not multiply like C\(q\|r\)"):
            wf.phi_subalgebra(tau)
        checked += 1
    assert checked == 255


@pytest.mark.parametrize("pair, blade, message", [
    ((1, 2), 0, "subalgebra is not self-centralizing"),        # (e_0)(e_1) gains 1
    ((5, 1), 0, "centralizer is larger than the subalgebra"),  # (e_0 e_2)(e_0) gains 1
])
def test_corrupted_structure_constant_fails_the_centralizer_checks(
        monkeypatch, h4f2, tau_int, pair, blade, message):
    class Corrupted(CliffordAlgebra):
        def blade_mul(self, s, t):
            out = super().blade_mul(s, t)
            if (s, t) == pair:
                out[blade] = out.get(blade, self.field.zero) + self.field.one
            return out

    alg = Corrupted.from_space(h4f2)
    monkeypatch.setattr(clifford, "algebra_for_space", lambda space: alg)
    with pytest.raises(InvariantViolation, match=message):
        wf.phi_subalgebra(wf.Isometry(h4f2, tau_int.mat))  # nothing derived on another algebra
