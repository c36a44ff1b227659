"""Isometry construction, validation, invariant subspaces, spinor norms."""

import random

import pytest

import wallforms as wf
from wallforms import oracle
from wallforms.errors import (
    DimensionMismatch,
    IsotropicVector,
    NotAnIsometry,
    NotInvariant,
    NotRegular,
    PreconditionError,
)
from wallforms.quadspace import Subspace

from boxed_vectors import vadd, vscale, vsub


def test_identity_is_isometry(h4f2):
    tau = wf.identity_isometry(h4f2)
    assert tau.is_identity()
    assert tau.fixed_space() == Subspace.full(h4f2)
    assert tau.residual_space().dim == 0


def test_tau_int_valid(tau_int):
    assert tau_int.is_involution()
    assert tau_int.is_interchange()


def test_non_isometry_rejected_with_witness(h4f2):
    # e1 -> e2, others fixed: preserves q on basis vectors but not pairings
    with pytest.raises(NotAnIsometry) as exc:
        wf.make_isometry(h4f2, [
            [0, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ])
    witness = exc.value.witness
    assert witness is not None


def test_witness_defect(h4f7, f7):
    bad = [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(NotAnIsometry) as exc:
        wf.make_isometry(h4f7, bad)
    w = exc.value.witness
    mat = wf.Matrix.from_ints(f7, bad)
    from wallforms.linalg import mat_vec
    assert h4f7.eval_q(mat_vec(mat, w)) != h4f7.eval_q(w)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def test_reflection_formula_r2t(r2t, ft, tau_r2t):
    u, v = r2t.basis_vector(0), r2t.basis_vector(1)
    # tau_u(v) = v + t^{-1} u
    expected = vadd(v, vscale(ft.one / ft.t, u))
    assert tau_r2t.apply(v) == expected
    assert tau_r2t.apply(u) == u  # -u = u in characteristic 2


def test_reflection_negates_axis_odd_char(gf7_plane_sum, f7):
    u = gf7_plane_sum.basis_vector(0)
    tau = wf.reflection(gf7_plane_sum, u)
    assert tau.apply(u) == vscale(-f7.one, u)


def test_reflection_fixes_orthogonal_vectors(gf7_plane_sum):
    u, v = gf7_plane_sum.basis_vector(0), gf7_plane_sum.basis_vector(1)
    tau = wf.reflection(gf7_plane_sum, u)
    assert tau.apply(v) == v  # b(u, v) = 0


def test_reflection_squares_to_identity(r4t, gf7_plane_sum):
    for space in (r4t, gf7_plane_sum):
        u = space.basis_vector(0)
        tau = wf.reflection(space, u)
        assert (tau * tau).is_identity()


def test_reflection_requires_anisotropic(h4f2):
    with pytest.raises(IsotropicVector):
        wf.reflection(h4f2, h4f2.basis_vector(0))


# ---------------------------------------------------------------------------
# Eichler transformations
# ---------------------------------------------------------------------------

def test_eichler_matches_interchange(h4f2, tau_int):
    e = h4f2.basis_vector
    assert wf.eichler(h4f2, e(0), e(2)).mat == tau_int.mat


def test_eichler_fixes_doubly_orthogonal(h4f7):
    e = h4f7.basis_vector
    tau = wf.eichler(h4f7, e(0), e(2))
    # e3 is orthogonal to both x = e1 and w = e3? b(e3, e1) = 0, b(e3, e3) = 0
    assert tau.apply(e(2)) == e(2)


def test_eichler_action_on_pair_partners(h4f7, f7):
    e = h4f7.basis_vector
    tau = wf.eichler(h4f7, e(0), e(2))
    assert tau.apply(e(1)) == vadd(e(1), e(2))            # y -> y + w
    assert tau.apply(e(3)) == vadd(e(3), vscale(-f7.one, e(0)))  # z -> z - x


def test_eichler_residual_space(h4f7):
    e = h4f7.basis_vector
    tau = wf.eichler(h4f7, e(0), e(2))
    assert tau.residual_space() == Subspace.from_vectors(h4f7, [e(0), e(2)])
    assert tau.unipotency_index() == 2


def test_eichler_preconditions(h4f7, f7):
    e = h4f7.basis_vector
    aniso = (f7.one, f7.one, f7.zero, f7.zero)  # q = 1
    with pytest.raises(PreconditionError):
        wf.eichler(h4f7, aniso, e(2))
    with pytest.raises(PreconditionError):
        wf.eichler(h4f7, e(0), e(1))  # b(e1, e2) = 1


# ---------------------------------------------------------------------------
# the closed forms against the column-by-column definitions
# ---------------------------------------------------------------------------

def _reflection_by_columns(space, u):
    """Column j: e_j - (b(u, e_j) / q(u)) u."""
    qu = space.eval_q(u)
    basis = [space.basis_vector(j) for j in range(space.dim)]
    return wf.Matrix(space.field, [vsub(e, vscale(space.eval_b(u, e) / qu, u))
                                   for e in basis]).transpose()


def _eichler_by_columns(space, x, w):
    """Column j: e_j + b(e_j, x) w - b(e_j, w) x - q(w) b(e_j, x) x."""
    qw = space.eval_q(w)
    cols = []
    for j in range(space.dim):
        v = space.basis_vector(j)
        bvx, bvw = space.eval_b(v, x), space.eval_b(v, w)
        cols.append(vsub(vsub(vadd(v, vscale(bvx, w)), vscale(bvw, x)), vscale(qw * bvx, x)))
    return wf.Matrix(space.field, cols).transpose()


def test_reflection_and_eichler_match_their_columns_on_h4f4(h4f4):
    vectors = list(h4f4.vectors())
    anisotropic = [u for u in vectors if h4f4.eval_q(u)]
    assert len(anisotropic) == 180
    for u in anisotropic:
        assert wf.reflection(h4f4, u).mat == _reflection_by_columns(h4f4, u)
    rng = random.Random(29)
    isotropic = [x for x in vectors if not h4f4.eval_q(x)]
    for x in isotropic:
        partners = [w for w in vectors if not h4f4.eval_b(x, w)]
        for w in rng.sample(partners, 4):
            assert wf.eichler(h4f4, x, w).mat == _eichler_by_columns(h4f4, x, w)


def _random_vector(space, rng):
    field = space.field
    if field.kind == "ratfunc":
        return tuple(field.fraction(rng.randrange(8), rng.randrange(1, 8)) for _ in range(4))
    elems = list(field.elements())
    return tuple(rng.choice(elems) for _ in range(4))


@pytest.mark.parametrize("name", ["h4f7", "r4t"])
def test_reflection_and_eichler_match_their_columns_at_random(name, request):
    space = request.getfixturevalue(name)
    e = space.basis_vector(1)  # isotropic in both spaces, b(e_0, e) = 1
    rng = random.Random(31)
    for _ in range(40):
        u = _random_vector(space, rng)
        if space.eval_q(u):
            assert wf.reflection(space, u).mat == _reflection_by_columns(space, u)
        # v - (q(v) / b(v, e)) e is isotropic; w - (b(x, w) / b(x, e)) e is orthogonal to x
        v = vadd(_random_vector(space, rng), space.basis_vector(0))
        if not space.eval_b(v, e):
            continue
        x = vsub(v, vscale(space.eval_q(v) / space.eval_b(v, e), e))
        w = _random_vector(space, rng)
        w = vsub(w, vscale(space.eval_b(x, w) / space.eval_b(x, e), e))
        assert wf.eichler(space, x, w).mat == _eichler_by_columns(space, x, w)


# ---------------------------------------------------------------------------
# fixed / residual spaces, unipotency
# ---------------------------------------------------------------------------

def test_fixed_residual_interchange(h4f2, tau_int):
    e = h4f2.basis_vector
    expected = Subspace.from_vectors(h4f2, [e(0), e(2)])
    assert tau_int.fixed_space() == expected
    assert tau_int.residual_space() == expected


def test_residual_is_perp_of_fixed(h4f2, h4f7, gf7_plane_sum):
    rng = random.Random(31)
    for space in (h4f2, h4f7, gf7_plane_sum):
        enum = wf.enumerate_orthogonal_group(space)
        indices = list(range(enum.order))
        rng.shuffle(indices)
        for i in indices[:40]:
            tau = enum.isometry(i)
            r, k = tau.residual_space(), tau.fixed_space()
            assert r == k.orthogonal_complement()
            assert r.dim + k.dim == space.dim


def test_r2t_reflection_spaces(r2t, tau_r2t):
    u_line = Subspace.from_vectors(r2t, [r2t.basis_vector(0)])
    assert tau_r2t.residual_space() == u_line
    assert tau_r2t.fixed_space() == u_line  # char 2: u is fixed


def test_unipotency_indices(h4f2, tau_int, gf7_plane_sum):
    assert wf.identity_isometry(h4f2).unipotency_index() == 0
    assert tau_int.unipotency_index() == 2
    refl = wf.reflection(gf7_plane_sum, gf7_plane_sum.basis_vector(0))
    assert refl.unipotency_index() is None


def test_is_interchange_cases(h4f2, tau_int, r4t, tau_r4t):
    assert tau_int.is_interchange()
    assert not wf.identity_isometry(h4f2).is_interchange()
    assert not tau_r4t.is_interchange()  # fixed space is not totally isotropic


# ---------------------------------------------------------------------------
# group operations and restriction
# ---------------------------------------------------------------------------

def test_compose_inverse(h4f2, tau_int):
    assert (tau_int * tau_int.inverse()).is_identity()
    assert (tau_int * tau_int).is_identity()  # involution


def test_restrict_to_invariant_plane(r4t, tau_r4t, ft):
    plane = Subspace.from_vectors(r4t, [r4t.basis_vector(0), r4t.basis_vector(1)])
    res = tau_r4t.restrict(plane)
    assert res.space.dim == 2
    assert res.space.eval_q(res.space.basis_vector(0)) == ft.t
    assert not res.is_identity()


def test_restrict_rejects_noninvariant(h4f2, tau_int):
    plane = Subspace.from_vectors(h4f2, [h4f2.basis_vector(0), h4f2.basis_vector(1)])
    assert plane.is_regular()
    with pytest.raises(NotInvariant):
        tau_int.restrict(plane)


def test_restrict_rejects_irregular(h4f2, tau_int):
    iso_plane = Subspace.from_vectors(h4f2, [h4f2.basis_vector(0), h4f2.basis_vector(2)])
    with pytest.raises(NotRegular):
        tau_int.restrict(iso_plane)


def _ref_restrict(tau, sub):
    """The restriction's matrix column by column, the coordinates of the
    image of each basis vector, or None if `sub` is not invariant."""
    cols = [sub.coordinates(tau.apply(v)) for v in sub.vectors()]
    if None in cols:
        return None
    return wf.Matrix(tau.space.field, cols).transpose()


def test_restrict_matches_reference_on_every_regular_subspace(h4f2):
    subspaces = oracle._proper_regular_subspaces(h4f2)
    invariant = 0
    for tau in wf.enumerate_orthogonal_group(h4f2).isometries():
        for sub in subspaces:
            ref = _ref_restrict(tau, sub)
            if ref is None:
                with pytest.raises(NotInvariant):
                    tau.restrict(sub)
            else:
                assert tau.restrict(sub).mat == ref
                invariant += 1
    assert 0 < invariant < 72 * len(subspaces)


def test_isometry_pairs_of_different_spaces_are_rejected(h4f2, h4f4, f2, tau_int):
    """Another form on the same field and dimension, or the same form over
    another field: composing and restricting raise the one guard's error.
    An equal space built again is the same space."""
    other_form = wf.QuadraticSpace.from_int_rows(
        f2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    for space in (other_form, h4f4):
        with pytest.raises(DimensionMismatch, match="isometries of different spaces"):
            tau_int * wf.identity_isometry(space)
        with pytest.raises(DimensionMismatch,
                           match="an isometry and a subspace of different spaces"):
            tau_int.restrict(Subspace.full(space))
    again = wf.QuadraticSpace.hyperbolic(f2, 2)
    assert (tau_int * wf.identity_isometry(again)).mat == tau_int.mat
    assert tau_int.restrict(Subspace.full(again)).mat == tau_int.mat


# ---------------------------------------------------------------------------
# spinor norms of reflection words
# ---------------------------------------------------------------------------

def test_spinor_norm_single_reflection(r2t, ft):
    word = wf.ReflectionWord(r2t, (r2t.basis_vector(0),))
    cls = wf.spinor_norm_word(word)
    assert cls.rep == ft.t
    assert not cls.is_trivial()


def test_spinor_norm_empty_word(r2t):
    word = wf.ReflectionWord(r2t, ())
    assert word.spinor_norm().is_trivial()
    assert word.isometry().is_identity()


def test_spinor_norm_repeated_factor_trivial(r2t):
    u = r2t.basis_vector(0)
    word = wf.ReflectionWord(r2t, (u, u))
    assert word.spinor_norm().is_trivial()


def test_spinor_norm_uu_insertion_invariance(r4t, ft):
    rng = random.Random(37)
    vectors = [v for v in [
        r4t.basis_vector(0), r4t.basis_vector(2),
        tuple(ft.fraction(c, 1) for c in (1, 0, 1, 0)),
    ] if r4t.eval_q(v)]
    for _ in range(20):
        factors = tuple(rng.choice(vectors) for _ in range(rng.randrange(1, 4)))
        base = wf.ReflectionWord(r4t, factors).spinor_norm()
        u = rng.choice(vectors)
        pos = rng.randrange(len(factors) + 1)
        padded = factors[:pos] + (u, u) + factors[pos:]
        assert wf.ReflectionWord(r4t, padded).spinor_norm() == base


def test_word_factors_must_be_anisotropic(h4f2):
    with pytest.raises(IsotropicVector):
        wf.ReflectionWord(h4f2, (h4f2.basis_vector(0),))


def _index_by_powers(tau):
    """Least k <= n with (M - I)^k = 0 (0 for the identity), or None:
    every power up to n is formed."""
    n = tau.space.dim
    delta = tau.mat - wf.Matrix.identity(tau.space.field, n)
    if delta.is_zero():
        return 0
    power = delta
    for k in range(1, n + 1):
        if power.is_zero():
            return k
        power = power * delta
    return None


def _random_reflection_words(space, count, rng):
    elems = list(space.field.elements())
    taus = []
    while len(taus) < count:
        tau = wf.identity_isometry(space)
        for _ in range(rng.randrange(1, 5)):
            while True:
                v = tuple(rng.choice(elems) for _ in range(space.dim))
                if space.eval_q(v):
                    break
            tau = tau * wf.reflection(space, v)
        taus.append(tau)
    return taus


def test_unipotency_index_matches_every_power(h4f2, h4f7, f2):
    group = wf.enumerate_orthogonal_group(h4f2)
    taus = list(group.isometries())
    taus += _random_reflection_words(h4f7, 40, random.Random(3))
    big = h4f2.orthogonal_sum(wf.QuadraticSpace.hyperbolic(f2, 1))
    taus += _random_reflection_words(big, 40, random.Random(4))
    seen = set()
    for tau in taus:
        expected = _index_by_powers(tau)
        assert tau.unipotency_index() == expected
        seen.add(expected)
    assert {0, 2, None} <= seen and len(seen) >= 4  # index 3 or more occurs


def test_unipotency_index_ratfunc_words(r4t, ft):
    rng = random.Random(5)
    for _ in range(12):
        tau = wf.identity_isometry(r4t)
        for _ in range(rng.randrange(1, 4)):
            while True:
                v = tuple(ft.fraction(rng.randrange(8), 1) for _ in range(4))
                if r4t.eval_q(v):
                    break
            tau = tau * wf.reflection(r4t, v)
        assert tau.unipotency_index() == _index_by_powers(tau)


def test_derived_data_is_kept_and_matches_a_fresh_isometry(h4f2, tau_int):
    fresh = wf.Isometry(h4f2, tau_int.mat)
    for name in ("displacement", "fixed_space", "residual_space", "is_involution",
                 "is_unipotent2", "unipotency_index"):
        first = getattr(tau_int, name)()
        assert getattr(tau_int, name)() is first
        assert getattr(wf.Isometry(h4f2, tau_int.mat), name)() == first
    assert wf.wall_form(tau_int) == wf.wall_form(fresh)
    # the kept values take no part in equality or hashing
    assert fresh == tau_int and hash(fresh) == hash(tau_int)
    assert repr(fresh) == repr(wf.Isometry(h4f2, tau_int.mat))


def test_a_failed_derivation_is_not_kept(h4f2, tau_int):
    tau = wf.Isometry(h4f2, tau_int.mat)
    calls = []

    def failing(t):
        calls.append(t)
        raise PreconditionError("no value")

    for _ in range(2):
        with pytest.raises(PreconditionError):
            tau.derived("probe", failing)
    assert calls == [tau, tau]
