"""Metamorphic relations across the library's size switches.

Stabilisation: for a unipotent tau on V, tau + 1 on V + H^k (H a
hyperbolic plane) has the same Wall form, the same residual basis padded
with 2k zeros, a fixed space and a W larger by 2k, and the same
decomposition shape.  The seeded draws stabilise far enough that the
eliminations cross linalg's switches: GF(2) rows wider than
PACKED_WIDTH, which convert to bit rows through binary digits rather than
tables, and GF(4) rows at least PACKED_WIDTH wide, which are eliminated
byte-packed.

Change of basis: for an invertible P, tau' = P^-1 tau P is an isometry of
q'(x) = q(Px), whose upper form matrix is P^T Q P folded.  P^-1 maps the
residual space of tau onto that of tau' and carries its Wall form along,
so every invariant is equal and the Wall forms are congruent through the
change of residual basis.
"""

import importlib
import random

import pytest

import wallforms as wf
from wallforms.linalg import PACKED_WIDTH, block_diag

# (field, planes of the base space, the largest k): GF(2) to dimension 14,
# GF(4) to 12, GF(7) to 8
CASES = {
    "H4F2": ("gf(2)", 2, 5),
    "H6F2": ("gf(2)", 3, 4),
    "H4F4": ("gf(4;x^2+x+1)", 2, 4),
    "H4F7": ("gf(7)", 2, 2),
}
DRAWS = 3  # seeded unipotents per space


def _base_unipotents(space):
    """Unipotents of index 2 on a hyperbolic space: the Eichler
    transformation E(e0, e2) (e0 singular, e2 singular and orthogonal to
    it) and, in characteristic 2, where every reflection is unipotent, the
    reflection along e0 + e1 and its product with the one along e2 + e3."""
    e = space.basis_vector
    bases = [wf.eichler(space, e(0), e(2))]
    if space.field.characteristic() == 2:
        u = tuple(a + b for a, b in zip(e(0), e(1)))
        v = tuple(a + b for a, b in zip(e(2), e(3)))
        bases += [wf.reflection(space, u), wf.reflection(space, u) * wf.reflection(space, v)]
    return bases


def _unipotents(space, count, seed):
    """`count` conjugates g tau g^-1 of the base unipotents, g a product of
    three reflections along random nonsingular vectors."""
    rng = random.Random(seed)
    bases, elements = _base_unipotents(space), list(space.field.elements())

    def nonsingular():
        v = space.zero_vector()
        while not space.eval_q(v):
            v = tuple(rng.choice(elements) for _ in range(space.dim))
        return v

    drawn = []
    for i in range(count):
        g = wf.reflection(space, nonsingular())
        for _ in range(2):
            g = g * wf.reflection(space, nonsingular())
        drawn.append(g * bases[i % len(bases)] * g.inverse())
        assert drawn[-1].is_unipotent2()
    return drawn


def _stabilised(tau, k):
    """tau + 1 on V + H^k."""
    field = tau.space.field
    space = tau.space.orthogonal_sum(wf.QuadraticSpace.hyperbolic(field, k))
    return wf.Isometry(space, block_diag(field, [tau.mat, wf.Matrix.identity(field, 2 * k)]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stabilisation_keeps_the_wall_form_and_the_decomposition(name, monkeypatch):
    literal, planes, largest = CASES[name]
    field = wf.parse_field(literal)
    space = wf.QuadraticSpace.hyperbolic(field, planes)
    linalg = importlib.import_module("wallforms.linalg")
    widths, real = [], linalg._gauss_jordan
    monkeypatch.setattr(linalg, "_gauss_jordan", lambda *a: widths.append(a[-1]) or real(*a))
    zero = field.zero.payload
    for tau in _unipotents(space, DRAWS, seed=sum(map(ord, name))):
        wall, parts = wf.wall_form(tau), wf.decompose(tau)
        for k in range(1, largest + 1):
            big = _stabilised(tau, k)
            big_wall, big_parts = wf.wall_form(big), wf.decompose(big)
            assert big_wall.gram == wall.gram
            assert big.unipotency_index() == tau.unipotency_index()
            assert big_wall.basis_rows.payload_rows == tuple(
                r + (zero,) * (2 * k) for r in wall.basis_rows.payload_rows)
            assert big.fixed_space().dim == tau.fixed_space().dim + 2 * k
            assert big_parts.fixed_complement.dim == parts.fixed_complement.dim + 2 * k
            assert (big_parts.m, big_parts.s, [b.kind for b in big_parts.blocks]) == (
                parts.m, parts.s, [b.kind for b in parts.blocks])
    # the eliminations cross the switch of their field
    if field.order() == 2:
        assert max(widths) > PACKED_WIDTH
    elif field.order() == 4:
        assert min(widths) < PACKED_WIDTH <= max(widths)


def _invertible(field, n, rng):
    """A random invertible n x n matrix over `field`."""
    payloads = [e.payload for e in field.elements()]
    while True:
        p = wf.Matrix.from_payloads(field, [[rng.choice(payloads) for _ in range(n)]
                                            for _ in range(n)])
        if p.det():
            return p


def _invariants(tau):
    """The facts of `analyze`, `decompose` and (in characteristic 2)
    `clifford` that do not depend on the basis."""
    wall, parts = wf.wall_form(tau), wf.decompose(tau)
    flags = wf.classify(wall)
    facts = {
        "r_dim": tau.residual_space().dim, "k_dim": tau.fixed_space().dim,
        "index": tau.unipotency_index(),
        "flags": (flags.symmetric, flags.antisymmetric, flags.alternating),
        "m": parts.m, "s": parts.s, "kinds": [b.kind for b in parts.blocks],
    }
    if tau.space.field.characteristic() == 2:
        fixed = tau.residual_space() == tau.fixed_space()
        facts["involution_type"] = wf.involution_type(wf.natural_involution(tau))
        facts["residual_fixed"] = fixed
        facts["transpose_iso"] = wf.transpose_iso_criterion(tau).holds if fixed else None
    return facts


@pytest.mark.parametrize("name", sorted(CASES))
def test_change_of_basis_keeps_the_invariants_and_the_wall_form_class(name):
    literal, planes, _ = CASES[name]
    field = wf.parse_field(literal)
    space = wf.QuadraticSpace.hyperbolic(field, planes)
    seed = sum(map(ord, name)) + 1
    rng = random.Random(seed)
    for tau in _unipotents(space, DRAWS, seed):
        p = _invertible(field, space.dim, rng)
        p_inv = p.inverse()
        moved_space = wf.QuadraticSpace.from_q_upper(field, p.transpose() * space.qmat * p)
        moved = wf.Isometry(moved_space, p_inv * tau.mat * p)
        assert _invariants(moved) == _invariants(tau)
        # rows of P^-1 r_k span the new residual space; C solves r'_j = sum_k C_jk P^-1 r_k
        wall, moved_wall = wf.wall_form(tau), wf.wall_form(moved)
        carried = wall.basis_rows * p_inv.transpose()
        change = carried.transpose().solve_many(moved_wall.basis_rows)
        assert change is not None and change.det()
        assert moved_wall.gram == change * wall.gram * change.transpose()
