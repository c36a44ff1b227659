"""Block extraction and the full orthogonal decomposition."""

import functools
import importlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wallforms as wf
from wallforms.errors import (
    DimensionMismatch,
    NotHyperbolicPair,
    NotInResidual,
    NotInterchange,
    NotUnipotent2,
    PreconditionError,
    PreimageUnsolvable,
    ZeroDiagonal,
)
from wallforms.decompose import (
    InterchangeBlock,
    ReflectionBlock,
    _hyperbolic_pairs,
    _interchange,
    reassemble,
    validate_decomposition,
)
from wallforms.linalg import vec_mat
from wallforms.quadspace import Subspace

from boxed_vectors import (
    isotropic_pairs,
    isotropic_partners,
    isotropic_vectors,
    vadd,
    vscale,
    vsub,
)


# ---------------------------------------------------------------------------
# identity complement
# ---------------------------------------------------------------------------

def test_complement_identity(h4f2):
    tau = wf.identity_isometry(h4f2)
    assert wf.complement_W(tau) == Subspace.full(h4f2)


def test_complement_interchange_is_zero(tau_int):
    assert wf.complement_W(tau_int).dim == 0


def test_complement_six_dim(f2, h4f2, tau_int):
    plane = wf.QuadraticSpace.hyperbolic(f2, 1)
    big = h4f2.orthogonal_sum(plane)
    mat = [[tau_int.mat[i, j] for j in range(4)] + [f2.zero] * 2 for i in range(4)]
    mat += [[f2.zero] * 4 + [f2.one, f2.zero], [f2.zero] * 4 + [f2.zero, f2.one]]
    tau = wf.Isometry(big, wf.Matrix(f2, mat))
    w = wf.complement_W(tau)
    assert w == Subspace.from_vectors(big, [big.basis_vector(4), big.basis_vector(5)])
    assert w.is_regular()


def test_complement_requires_unipotent2(gf7_plane_sum):
    refl = wf.reflection(gf7_plane_sum, gf7_plane_sum.basis_vector(0))
    with pytest.raises(NotUnipotent2):
        wf.complement_W(refl)


# ---------------------------------------------------------------------------
# reflection blocks
# ---------------------------------------------------------------------------

def test_reflection_block_r2t_whole_space(r2t, tau_r2t):
    blk = wf.reflection_block(tau_r2t, r2t.basis_vector(0))
    assert blk.plane == Subspace.full(r2t)


def test_reflection_block_r4t(r4t, tau_r4t):
    u1 = r4t.basis_vector(0)
    blk = wf.reflection_block(tau_r4t, u1)
    assert blk.plane.dim == 2
    assert blk.plane.contains(u1)
    # orthogonal to the second reflection plane
    for v in blk.plane.vectors():
        assert not r4t.eval_b(v, r4t.basis_vector(2))
        assert not r4t.eval_b(v, r4t.basis_vector(3))


def test_reflection_block_zero_diagonal(tau_int, h4f2):
    with pytest.raises(ZeroDiagonal):
        wf.reflection_block(tau_int, h4f2.basis_vector(0))


# the residual space of tau_int is span(e_0, e_2)
@pytest.mark.parametrize("block, vectors, message", [
    ("reflection_block", (1,), "^u is not in the residual space$"),
    ("interchange_block", (1, 3), "^pair does not lie in the residual space$"),
    ("interchange_block", (0, 3), "^pair does not lie in the residual space$"),
], ids=["reflection", "interchange-both-outside", "interchange-one-outside"])
def test_blocks_refuse_vectors_outside_the_residual_space(tau_int, h4f2, block, vectors, message):
    with pytest.raises(NotInResidual, match=message):
        getattr(wf, block)(tau_int, *map(h4f2.basis_vector, vectors))


# ---------------------------------------------------------------------------
# interchange blocks
# ---------------------------------------------------------------------------

def test_interchange_block_canonical(h4f2, tau_int):
    e = h4f2.basis_vector
    blk = wf.interchange_block(tau_int, e(0), e(2))
    assert blk.subspace() == Subspace.full(h4f2)
    assert (blk.x, blk.y, blk.w, blk.z) == (e(0), e(1), e(2), e(3))


def test_interchange_block_skew_pair(h4f2, tau_int):
    # w(e1, e1+e3) = 1, so the pair is hyperbolic; the block contract is
    # re-verified internally on the recomputed basis
    e = h4f2.basis_vector
    blk = wf.interchange_block(tau_int, e(0), vadd(e(0), e(2)))
    assert blk.subspace().dim == 4
    assert blk.w == vadd(e(0), e(2))


def test_interchange_block_needs_the_hyperbolic_pairing(h4f7, f7):
    # w(x, w) = 1 = -w(w, x) and w(x, x) = w(w, w) = 0, in this order only
    e = h4f7.basis_vector
    tau = wf.eichler(h4f7, e(0), e(2))
    x, _, w, _ = wf.interchange_normal_basis(tau)
    assert wf.interchange_block(tau, x, w).vectors()[::2] == (x, w)
    for pair in ((w, x), (x, x), (x, tuple(f7.from_int(2) * c for c in w))):
        with pytest.raises(NotHyperbolicPair):
            wf.interchange_block(tau, *pair)


def test_interchange_block_rejects_bad_pair(tau_r4t, r4t):
    # w(u1, u1) = t != 0
    with pytest.raises((NotHyperbolicPair, wf.WallformsError)):
        wf.interchange_block(tau_r4t, r4t.basis_vector(0), r4t.basis_vector(2))


# ---------------------------------------------------------------------------
# normal bases of interchange isometries
# ---------------------------------------------------------------------------

def test_normal_basis_canonical(h4f2, tau_int):
    e = h4f2.basis_vector
    assert wf.interchange_normal_basis(tau_int) == (e(0), e(1), e(2), e(3))


def test_normal_basis_eichler_roundtrip(h4f2, tau_int):
    x, y, w, z = wf.interchange_normal_basis(tau_int)
    assert wf.eichler(h4f2, x, w).mat == tau_int.mat


def test_normal_basis_of_conjugates(h4f2, tau_int):
    enum = wf.enumerate_orthogonal_group(h4f2)
    rng = random.Random(47)
    for _ in range(12):
        g = enum.isometry(rng.randrange(enum.order))
        conj = g * tau_int * g.inverse()
        x, y, w, z = wf.interchange_normal_basis(conj)
        # the contract is fully verified inside; spot-check the action here
        assert conj.apply(x) == x
        assert conj.apply(y) == vadd(y, w)
        assert wf.eichler(h4f2, x, w).mat == conj.mat


def test_normal_basis_rejects_reflection(tau_r4t):
    with pytest.raises(NotInterchange):
        wf.interchange_normal_basis(tau_r4t)


def test_normal_basis_gf7_interchange(h4f7):
    e = h4f7.basis_vector
    tau = wf.eichler(h4f7, e(0), e(2))
    assert tau.is_interchange()
    x, y, w, z = wf.interchange_normal_basis(tau)
    assert wf.eichler(h4f7, x, w).mat == tau.mat


def _ref_solve_preimage(tau, target, within):
    """A vector y with (tau - id) y = target, restricted to `within` if
    given: one elimination per target."""
    n_mat = tau.displacement()
    if within is None:
        return n_mat.solve(target)
    coeffs = (n_mat * within.basis.transpose()).solve(target)
    if coeffs is None:
        return None
    return vec_mat(coeffs, within.basis)


def _ref_interchange(tau, x, w, within):
    """The interchange frame as it was built on boxed vectors: one eval_q or
    eval_b per correction."""
    space = tau.space
    y = _ref_solve_preimage(tau, w, within)
    z = _ref_solve_preimage(tau, tuple(-c for c in x), within)
    if y is None or z is None:
        raise PreimageUnsolvable("no preimage for a residual vector")
    y = vsub(y, vscale(space.eval_q(y), x))
    z = vsub(z, vscale(space.eval_q(z), w))
    z = vsub(z, vscale(space.eval_b(y, z), x))
    frame = (x, y, w, z)
    return InterchangeBlock(wf.Matrix(space.field, frame), Subspace.from_vectors(space, frame))


def _payloads(*vectors):
    """The payload rows of boxed vectors, as the library's block builders take them."""
    return tuple(tuple(c.payload for c in v) for v in vectors)


@pytest.mark.parametrize("literal", ["gf(2)", "gf(3)"])
def test_interchange_frame_matches_reference_on_every_isotropic_pair(literal):
    """The Eichler transformation of a totally isotropic pair (x, w) has
    residual space span(x, w), with preimages of w and -x."""
    space = wf.QuadraticSpace.hyperbolic(wf.parse_field(literal), 2)
    for x, w in isotropic_pairs(space):
        tau = wf.eichler(space, x, w)
        assert _interchange(tau, *_payloads(x, w), None) == _ref_interchange(tau, x, w, None)


@given(data=st.data())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_interchange_frame_matches_reference_gf7(h4f7, data):
    x = data.draw(st.sampled_from(isotropic_vectors(h4f7)))
    w = data.draw(st.sampled_from(isotropic_partners(h4f7, x)))
    tau = wf.eichler(h4f7, x, w)
    assert _interchange(tau, *_payloads(x, w), None) == _ref_interchange(tau, x, w, None)


# ---------------------------------------------------------------------------
# the full decomposition
# ---------------------------------------------------------------------------

def test_decompose_identity(h4f2):
    d = wf.decompose(wf.identity_isometry(h4f2))
    assert d.m == 0
    assert d.fixed_complement == Subspace.full(h4f2)


def test_decompose_interchange(tau_int):
    d = wf.decompose(tau_int)
    assert d.m == 1
    assert d.fixed_complement.dim == 0
    assert d.blocks[0].kind == "interchange"


def test_decompose_r4t(tau_r4t):
    d = wf.decompose(tau_r4t)
    assert d.m == 2
    assert all(blk.kind == "reflection" for blk in d.blocks)
    assert d.fixed_complement.dim == 0
    assert reassemble(d) == tau_r4t.mat


def test_decompose_rejects_non_unipotent(gf7_plane_sum):
    refl = wf.reflection(gf7_plane_sum, gf7_plane_sum.basis_vector(0))
    with pytest.raises(NotUnipotent2):
        wf.decompose(refl)


def test_decompose_block_counts_match_residual(tau_int, tau_r4t, tau_r2t):
    for tau in (tau_int, tau_r4t, tau_r2t):
        d = wf.decompose(tau)
        w = wf.wall_form(tau)
        expected = w.s // 2 if w.is_alternating() else w.s
        assert d.m == expected


def test_decompose_mixed_identity_part(f2, h4f2, tau_int):
    plane = wf.QuadraticSpace.hyperbolic(f2, 1)
    big = h4f2.orthogonal_sum(plane)
    mat = [[tau_int.mat[i, j] for j in range(4)] + [f2.zero] * 2 for i in range(4)]
    mat += [[f2.zero] * 4 + [f2.one, f2.zero], [f2.zero] * 4 + [f2.zero, f2.one]]
    tau = wf.Isometry(big, wf.Matrix(f2, mat))
    d = wf.decompose(tau)
    assert d.fixed_complement.dim == 2
    assert d.m == 1
    assert reassemble(d) == tau.mat


def test_decompose_with_an_identity_part_of_unequal_norms(f7):
    """W = span(e4, e5) with Gram matrix diag(2, 6): the fixed summand's
    columns of P follow the order of its Gram matrix."""
    space = wf.QuadraticSpace.hyperbolic(f7, 2).orthogonal_sum(
        wf.QuadraticSpace.from_int_rows(f7, [[1, 0], [0, 3]]))
    e = space.basis_vector
    tau = wf.eichler(space, e(0), e(2))
    d = wf.decompose(tau)
    assert d.fixed_complement == Subspace.from_vectors(space, [e(4), e(5)])
    assert d.m == 1 and reassemble(d) == tau.mat


def test_is_interchanging_kind(tau_int, tau_r2t, h4f2):
    assert wf.is_interchanging_kind(tau_int)
    assert not wf.is_interchanging_kind(tau_r2t)
    assert wf.is_interchanging_kind(wf.identity_isometry(h4f2))


def test_validate_rejects_tampered_decomposition(tau_int):
    d = wf.decompose(tau_int)
    bad = wf.Decomposition(tau_int, d.fixed_complement, ())
    with pytest.raises(wf.WallformsError):
        validate_decomposition(bad)


def test_validate_accepts_the_precomputed_wall_form(tau_int, tau_r4t):
    for tau in (tau_int, tau_r4t):
        d = wf.decompose(tau)
        validate_decomposition(d, wf.wall_form(tau))
        bad = wf.Decomposition(tau, d.fixed_complement, ())
        with pytest.raises(wf.WallformsError):
            validate_decomposition(bad, wf.wall_form(tau))


def test_validate_rejects_a_wall_form_of_another_isometry(tau_int, h4f2):
    d = wf.decompose(tau_int)
    with pytest.raises(PreconditionError):
        validate_decomposition(d, wf.wall_form(wf.identity_isometry(h4f2)))


@pytest.fixture(scope="module")
def h4f2_unipotents(h4f2):
    """The unipotents of H4F2 with s > 0: 15 of reflection kind (a
    nonalternating residual form) and 6 of interchange kind."""
    group = wf.enumerate_orthogonal_group(h4f2)
    isos = [group.isometry(i) for i in group.unipotent2_indices()]
    kinds = {kind: [t for t in isos if wf.wall_form(t).s
                    and wf.wall_form(t).is_alternating() == (kind == "interchange")]
             for kind in ("reflection", "interchange")}
    assert {kind: len(isos) for kind, isos in kinds.items()} == {"reflection": 15, "interchange": 6}
    return kinds


def _nonzero_residual_vectors(tau):
    residual = tau.residual_space()
    return [v for v in tau.space.vectors() if any(v) and residual.contains(v)]


def _frame_or_error(build, **kwargs):
    """The frame of the block built, or the class of its typed refusal."""
    try:
        return build(**kwargs).frame
    except (ZeroDiagonal, NotHyperbolicPair) as exc:
        return type(exc)


def test_reflection_block_takes_only_the_wall_form_of_its_isometry(h4f2_unipotents):
    # tau's own form, also of an equal isometry built again, gives tau's
    # block or refusal; the form of any other isometry is refused first
    isos = h4f2_unipotents["reflection"]
    for tau in isos:
        own = wf.wall_form(wf.Isometry(tau.space, tau.mat))
        for u in _nonzero_residual_vectors(tau):
            build = functools.partial(wf.reflection_block, tau, u)
            assert _frame_or_error(build, wf=own) == _frame_or_error(build)
            for sigma in isos:
                if sigma != tau:
                    with pytest.raises(PreconditionError, match="another isometry"):
                        wf.reflection_block(tau, u, wf=wf.wall_form(sigma))


def test_interchange_block_takes_only_the_wall_form_of_its_isometry(h4f2_unipotents):
    isos = h4f2_unipotents["interchange"]
    for tau in isos:
        own = wf.wall_form(wf.Isometry(tau.space, tau.mat))
        vectors = _nonzero_residual_vectors(tau)
        for x, w in ((x, w) for x in vectors for w in vectors if x != w):
            build = functools.partial(wf.interchange_block, tau, x, w)
            assert _frame_or_error(build, wf=own) == _frame_or_error(build)
            for sigma in isos:
                if sigma != tau:
                    with pytest.raises(PreconditionError, match="another isometry"):
                        wf.interchange_block(tau, x, w, wf=wf.wall_form(sigma))


def test_block_constructors_take_only_a_subspace_of_their_space(h4f2_unipotents, tau_int,
                                                               f2, f4):
    """`within` of another form on the same field and dimension, or of the
    same form over another field, raises the one space guard's error; of an
    equal space built again, it gives the block."""
    tau = h4f2_unipotents["reflection"][0]
    u = tau.residual_space().vectors()[0]
    blk = wf.decompose(tau_int).blocks[0]
    calls = (lambda within: wf.reflection_block(tau, u, within=within),
             lambda within: wf.interchange_block(tau_int, blk.x, blk.w, within=within))
    other_form = wf.QuadraticSpace.from_int_rows(
        f2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    for call in calls:
        for space in (other_form, wf.QuadraticSpace.hyperbolic(f4, 2)):
            with pytest.raises(DimensionMismatch,
                               match="an isometry and a subspace of different spaces"):
                call(Subspace.full(space))
        again = Subspace.full(wf.QuadraticSpace.hyperbolic(f2, 2))
        assert call(again).frame == call(None).frame


def test_decompose_computes_the_wall_form_once(tau_int, tau_r4t, monkeypatch):
    module = importlib.import_module("wallforms.decompose")
    calls = []
    real = module.wall_form
    monkeypatch.setattr(module, "wall_form", lambda tau: calls.append(tau) or real(tau))
    for tau in (tau_int, tau_r4t):
        calls.clear()
        wf.decompose(tau)
        assert calls == [tau]


def test_validate_rejects_a_block_action_that_does_not_reassemble(tau_r4t, ft):
    d = wf.decompose(tau_r4t)
    blk = d.blocks[0]
    # t * preimage spans the same plane, but tau does not act on it as the block claims
    scaled = type(blk)(wf.Matrix(ft, [blk.u, tuple(ft.t * c for c in blk.preimage)]), blk.plane)
    bad = wf.Decomposition(tau_r4t, d.fixed_complement, (scaled,) + d.blocks[1:])
    assert reassemble(bad) != tau_r4t.mat
    with pytest.raises(wf.WallformsError, match="reassembled"):
        validate_decomposition(bad)


def test_validate_rejects_a_fixed_summand_that_is_not_orthogonal(f2):
    h6f2 = wf.QuadraticSpace.hyperbolic(f2, 3)
    e = h6f2.basis_vector
    tau = wf.eichler(h6f2, e(0), e(2))
    d = wf.decompose(tau)
    (blk,) = d.blocks
    w1, w2 = d.fixed_complement.vectors()
    # tau fixes w1 + x and P stays invertible, but w1 + x pairs with y
    moved = Subspace.from_vectors(h6f2, [vadd(w1, blk.x), w2])
    assert all(tau.apply(v) == v for v in moved.vectors())
    bad = wf.Decomposition(tau, moved, d.blocks)
    with pytest.raises(wf.WallformsError, match="summands are not orthogonal"):
        validate_decomposition(bad)


def test_validate_rejects_dependent_decomposition_vectors(tau_r4t):
    d = wf.decompose(tau_r4t)
    blk = d.blocks[0]
    twice = wf.Decomposition(tau_r4t, d.fixed_complement, (blk, blk))
    with pytest.raises(wf.WallformsError):
        validate_decomposition(twice)


def test_validate_rejects_a_frame_that_is_not_hyperbolic(h4f4, f4):
    e = h4f4.basis_vector
    tau = wf.eichler(h4f4, e(0), e(2))
    w = f4.parse("w")
    frame = (e(0), vscale(w, e(1)), vscale(w, e(2)), e(3))
    # tau acts on the frame as an interchange block claims, and the frame
    # vectors are isotropic and span an orthogonal summand, but b(x, y) = w
    blk = wf.InterchangeBlock(wf.Matrix(f4, frame), Subspace.from_vectors(h4f4, frame))
    bad = wf.Decomposition(tau, Subspace.zero(h4f4), (blk,))
    assert reassemble(bad) == tau.mat
    assert h4f4.eval_b(blk.x, blk.y) == w
    with pytest.raises(wf.WallformsError, match="claimed forms"):
        validate_decomposition(bad)



def test_validate_rejects_an_interchange_frame_that_is_not_isotropic(h4f2, tau_int):
    e = h4f2.basis_vector
    # y = e1 + e0: tau(y) = y + w and every pairing of the frame is
    # hyperbolic, but q(y) = b(e0, e1) = 1
    frame = (e(0), vadd(e(1), e(0)), e(2), e(3))
    blk = wf.InterchangeBlock(wf.Matrix(h4f2.field, frame), Subspace.full(h4f2))
    bad = wf.Decomposition(tau_int, Subspace.zero(h4f2), (blk,))
    assert reassemble(bad) == tau_int.mat
    with pytest.raises(wf.WallformsError, match="isotropic"):
        validate_decomposition(bad)


def test_every_block_is_checked_once(tau_int, tau_r4t, r4t, monkeypatch):
    module = importlib.import_module("wallforms.decompose")
    checked = []
    real = module._check_blocks

    def spy(tau, blocks, fixed):
        checked.append([blk.kind for blk in blocks])
        return real(tau, blocks, fixed)

    monkeypatch.setattr(module, "_check_blocks", spy)
    wf.decompose(tau_r4t)
    wf.decompose(tau_int)
    wf.reflection_block(tau_r4t, r4t.basis_vector(0))
    fresh = wf.Isometry(tau_int.space, tau_int.mat)  # no normal basis kept with it yet
    wf.interchange_normal_basis(fresh)
    wf.interchange_normal_basis(fresh)  # kept with the isometry, so not checked again
    assert checked == [["reflection", "reflection"], ["interchange"],
                       ["reflection"], ["interchange"]]


def _ref_orthogonal_complement(sub):
    """{x : b(y, x) = 0 for every y in sub}, spanned by the boxed kernel
    basis of (basis B)."""
    if sub.dim == 0:
        return Subspace.full(sub.space)
    return Subspace.from_vectors(sub.space, (sub.basis * sub.space.gram).kernel_basis())


def _ref_reflection(tau, u, within):
    v = _ref_solve_preimage(tau, u, within)
    if v is None:
        raise PreimageUnsolvable("no preimage for a residual vector")
    return ReflectionBlock(wf.Matrix(tau.space.field, [u, v]), Subspace.from_vectors(tau.space, [u, v]))


def _ref_decompose(tau):
    """The identity summand and the blocks, each block built inside the
    complement of W intersected with the complement of each earlier block
    in turn."""
    wall = wf.wall_form(tau)
    fixed = wf.complement_W(tau)
    if wall.is_alternating():
        field = tau.space.field
        build, pieces = _ref_interchange, [tuple(map(field.wrap_all, pair))
                                           for pair in _hyperbolic_pairs(tau, wall)]
    else:
        build, pieces = _ref_reflection, [(u,) for u in wall.orthogonal_basis()[0]]
    current = _ref_orthogonal_complement(fixed)
    blocks = []
    for piece in pieces:
        if blocks:
            current = current.intersection(_ref_orthogonal_complement(blocks[-1].subspace()))
        blocks.append(build(tau, *piece, current))
    return fixed, blocks


def _assert_matches_reference(tau):
    space, delta = tau.space, tau.displacement()
    assert tau.fixed_space() == Subspace.from_vectors(space, delta.kernel_basis())
    assert tau.residual_space() == Subspace.from_vectors(space, delta.transpose().rows)
    d = wf.decompose(tau)
    fixed, blocks = _ref_decompose(tau)
    assert d.fixed_complement == fixed
    assert [blk.vectors() for blk in d.blocks] == [blk.vectors() for blk in blocks]
    assert [blk.subspace() for blk in d.blocks] == [blk.subspace() for blk in blocks]
    return d


@pytest.mark.parametrize("literal, planes, most_blocks", [
    ("gf(2)", 2, 2), ("gf(4;x^2+x+1)", 2, 2), ("gf(2)", 3, 3), ("gf(7)", 2, 1)])
def test_decompose_matches_reference_on_every_unipotent(literal, planes, most_blocks):
    space = wf.QuadraticSpace.hyperbolic(wf.parse_field(literal), planes)
    enum = wf.enumerate_orthogonal_group(space)
    counts = {_assert_matches_reference(enum.isometry(i)).m
              for i in enum.unipotent2_indices()}
    assert max(counts) == most_blocks


def test_decompose_matches_reference_on_r4t(r4t, tau_r4t):
    # u = e0 + e1 + e2 and v = e0 + e1 are orthogonal, with q(u) = 1 and q(v) = t + 1
    e = r4t.basis_vector
    u, v = vadd(vadd(e(0), e(1)), e(2)), vadd(e(0), e(1))
    taus = [tau_r4t, wf.reflection(r4t, u), wf.reflection(r4t, u) * wf.reflection(r4t, v)]
    assert [_assert_matches_reference(tau).m for tau in taus] == [2, 1, 2]


def test_decompose_of_three_reflections_makes_at_most_17_eliminations(f2, monkeypatch):
    """The antidiagonal isometry of H6F2: s = 3 reflection blocks and no
    identity summand.  One product and one kernel per block complement
    (23 eliminations as complement-and-intersection)."""
    h6f2 = wf.QuadraticSpace.hyperbolic(f2, 3)
    tau = wf.make_isometry(h6f2, [[int(i + j == 5) for j in range(6)] for i in range(6)])
    linalg = importlib.import_module("wallforms.linalg")
    calls = []
    real = linalg._gauss_jordan
    monkeypatch.setattr(linalg, "_gauss_jordan", lambda *a: calls.append(a) or real(*a))
    d = wf.decompose(tau)
    as_ints = lambda v: [int(str(c)) for c in v]
    assert [(blk.kind, as_ints(blk.u), as_ints(blk.preimage)) for blk in d.blocks] == [
        ("reflection", [1, 0, 1, 1, 0, 1], [1, 0, 1, 0, 0, 0]),
        ("reflection", [0, 1, 1, 1, 1, 0], [0, 1, 0, 1, 0, 0]),
        ("reflection", [1, 1, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0]),
    ]
    assert (d.m, d.s, d.fixed_complement.dim) == (3, 3, 0)
    assert len(calls) <= 17


def test_validate_rejects_singular_planes_that_repeat(f2):
    # tau: the reflection along e0 + e1 on the first plane, and the
    # interchange eichler(e2, e4) on the other two; s = 3, nonalternating
    h6f2 = wf.QuadraticSpace.hyperbolic(f2, 3)
    e = h6f2.basis_vector
    tau = wf.reflection(h6f2, vadd(e(0), e(1))) * wf.eichler(h6f2, e(2), e(4))
    honest = wf.reflection_block(tau, vadd(e(0), e(1)))
    # (e2, e5) has the claimed action and the claimed Gram matrix, which is
    # zero as q(e2) = 0; twice over, P^T B P is block diagonal but P is singular
    singular = wf.ReflectionBlock(wf.Matrix(f2, [e(2), e(5)]),
                                  Subspace.from_vectors(h6f2, [e(2), e(5)]))
    bad = wf.Decomposition(tau, Subspace.zero(h6f2), (honest, singular, singular))
    with pytest.raises(wf.WallformsError, match="not regular"):
        validate_decomposition(bad)
