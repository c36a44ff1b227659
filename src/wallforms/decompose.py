"""Orthogonal decomposition of unipotent isometries of index at most two.

Any isometry t with (t - id)^2 = 0 splits the space as

    V = W  |  V_1  |  ...  |  V_m     (pairwise orthogonal, t-invariant)

with t acting as the identity on W, where either the residual form is
alternating and every V_i is a 4-dimensional interchange block, or it is
nonalternating (characteristic 2) and every V_i is a 2-dimensional
reflection plane.  Block extraction follows the residual form: hyperbolic
pairs give interchange blocks, orthogonal basis vectors give reflections.

Each block claims its action and its Gram matrix: an interchange frame
(x, y, w, z) is hyperbolic; a reflection plane (u, v) has Gram
[[0, q(u)], [q(u), 0]], as in characteristic 2 b(u, u) = b(v, v) = 0 and
q(v + u) = q(v) gives b(u, v) = q(u).  One check (:func:`_check_blocks`)
verifies the claims; the public block constructors run it on their block,
and :func:`decompose` once on the whole decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CharacteristicNot2,
    InvariantViolation,
    NotHyperbolicPair,
    NotInResidual,
    NotInterchange,
    NotUnipotent2,
    PreconditionError,
    PreimageUnsolvable,
    ZeroDiagonal,
)
from .linalg import Matrix, Vector, _kernel, _vec_mat, block_diag, from_columns
from .quadspace import Subspace, _orthogonal_to, complement_in, hyperbolic_basis_alternating
from .isometry import Isometry
from .wallform import WallForm, wall_form


@dataclass(frozen=True)
class ReflectionBlock:
    u: Vector
    preimage: Vector
    plane: Subspace

    kind = "reflection"

    def vectors(self) -> tuple[Vector, ...]:
        return (self.u, self.preimage)

    def subspace(self) -> Subspace:
        return self.plane

    def local_matrix(self, field) -> Matrix:
        # action on the basis (u, v): u -> -u, v -> v + u
        one = field.one
        return Matrix(field, [[-one, one], [field.zero, one]])

    def gram(self, field, qvals) -> Matrix:
        """The claimed Gram matrix, given q(u) and q(v)."""
        qu, z = qvals[0], field.zero
        return Matrix(field, [[z, qu], [qu, z]])


@dataclass(frozen=True)
class InterchangeBlock:
    x: Vector
    y: Vector
    w: Vector
    z: Vector
    space4: Subspace

    kind = "interchange"

    def vectors(self) -> tuple[Vector, ...]:
        return (self.x, self.y, self.w, self.z)

    def subspace(self) -> Subspace:
        return self.space4

    def local_matrix(self, field) -> Matrix:
        # action on (x, y, w, z): x -> x, y -> y + w, w -> w, z -> z - x
        z, o = field.zero, field.one
        return Matrix(field, [
            [o, z, z, -o],
            [z, o, z, z],
            [z, o, o, z],
            [z, z, z, o],
        ])

    def gram(self, field, qvals) -> Matrix:
        """The claimed Gram matrix, hyperbolic: b(x, y) = b(w, z) = 1, every
        other pairing zero."""
        return Matrix.from_ints(field, [[0, 1, 0, 0], [1, 0, 0, 0],
                                        [0, 0, 0, 1], [0, 0, 1, 0]])


Block = ReflectionBlock | InterchangeBlock


@dataclass(frozen=True)
class Decomposition:
    tau: Isometry
    fixed_complement: Subspace          # W: t acts as the identity here
    blocks: tuple[Block, ...]

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def s(self) -> int:
        return self.tau.residual_space().dim


def _require_unipotent2(tau: Isometry):
    if not tau.is_unipotent2():
        raise NotUnipotent2("(tau - id)^2 != 0")


def complement_W(tau: Isometry) -> Subspace:
    """A regular complement of r(tau) inside k(tau); tau is the identity on it."""
    _require_unipotent2(tau)
    w = complement_in(tau.residual_space(), tau.fixed_space())
    if not w.is_regular():
        raise InvariantViolation("complement of the residual space is not regular")
    return w


def _preimages(tau: Isometry, targets: Matrix, within: Subspace | None) -> Matrix:
    """Rows y_j with (tau - id) y_j = row j of `targets`, restricted to
    `within` if given, all from one elimination; PreimageUnsolvable if any
    of them has none."""
    n_mat = tau.displacement()
    if within is None:
        found = n_mat.solve_many(targets)
    else:
        coeffs = (n_mat * within.basis.transpose()).solve_many(targets)
        found = None if coeffs is None else coeffs * within.basis
    if found is None:
        raise PreimageUnsolvable("no preimage for a residual vector")
    return found


def _reflection(tau: Isometry, u: Vector, within: Subspace | None) -> ReflectionBlock:
    """The reflection block of u, unchecked; `within` restricts the
    preimage v of u to a subspace."""
    target = Matrix(tau.space.field, [u])
    v = _preimages(tau, target, within)
    plane = Subspace.from_rows(tau.space, target.payload_rows + v.payload_rows)
    return ReflectionBlock(u, v.row(0), plane)


def _interchange(tau: Isometry, x: Vector, w: Vector, within: Subspace | None) -> InterchangeBlock:
    """The interchange block of a residual hyperbolic pair (x, w), unchecked:
    preimages y, z of w and -x, adjusted by fixed vectors so that
    q(y) = q(z) = b(y, z) = 0, make the frame (x, y, w, z) with
    tau(y) = y + w and tau(z) = z - x."""
    space, field = tau.space, tau.space.field
    kernel = _kernel(field)
    px, pw = Matrix(field, [x, w]).payload_rows
    targets = Matrix._trusted(field, (pw, kernel.neg_row(px)), space.dim)
    py, pz = _preimages(tau, targets, within).payload_rows
    _, qy, _, qz = space.q_values(Matrix._trusted(field, (px, py, pw, pz), space.dim))
    py = tuple(kernel.eliminate(py, qy.payload, px))
    pz = kernel.eliminate(pz, qz.payload, pw)
    pz = tuple(kernel.eliminate(pz, kernel.dot(_vec_mat(field, py, space.gram), pz), px))
    frame = Matrix._trusted(field, (px, py, pw, pz), space.dim)
    return InterchangeBlock(*frame.rows, Subspace.from_rows(space, frame.payload_rows))


def reflection_block(
    tau: Isometry, u: Vector, wf: WallForm | None = None,
    within: Subspace | None = None,
) -> ReflectionBlock:
    """The regular plane span(u, v) with tau acting as the reflection along u,
    where v solves (tau - id) v = u.  Requires characteristic 2, u in the
    residual space, and nonzero residual-form diagonal at u.  `within`
    restricts the preimage to a subspace."""
    if tau.space.field.characteristic() != 2:
        raise CharacteristicNot2("reflection blocks exist in characteristic 2 only")
    wf = wf if wf is not None else wall_form(tau)
    if not tau.residual_space().contains(u):
        raise NotInResidual("u is not in the residual space")
    if not wf.evaluate(u, u):
        raise ZeroDiagonal("residual form vanishes at u")
    blk = _reflection(tau, u, within)
    _check_blocks(tau, [blk], Subspace.zero(tau.space))
    return blk


def interchange_block(
    tau: Isometry, x: Vector, w: Vector, wf: WallForm | None = None,
    within: Subspace | None = None,
) -> InterchangeBlock:
    """The regular 4-dimensional t-invariant subspace attached to a residual
    pair with w(x, x) = w(w, w) = 0 and w(x, w) = 1 = -w(w, x)."""
    _require_unipotent2(tau)
    wf = wf if wf is not None else wall_form(tau)
    residual = tau.residual_space()
    if not (residual.contains(x) and residual.contains(w)):
        raise NotInResidual("pair does not lie in the residual space")
    field = tau.space.field
    coords = Matrix(field, [wf.coords(x), wf.coords(w)])
    if coords * wf.gram * coords.transpose() != Matrix.from_ints(field, [[0, 1], [-1, 0]]):
        raise NotHyperbolicPair("pair is not hyperbolic for the residual form")
    blk = _interchange(tau, x, w, within)
    _check_blocks(tau, [blk], Subspace.zero(tau.space))
    return blk


def interchange_normal_basis(tau: Isometry) -> tuple[Vector, Vector, Vector, Vector]:
    """A hyperbolic basis (x, y, w, z) of a 4-dimensional interchange isometry
    with (x, w) spanning the fixed space, tau(y) = y + w and tau(z) = z - x.
    The Eichler transformation of (x, w) reproduces tau exactly: on this
    basis it acts as the block check has shown tau to act; kept with tau."""
    return tau.derived("interchange_normal_basis", _normal_basis)


def _normal_basis(tau: Isometry) -> tuple[Vector, Vector, Vector, Vector]:
    if not tau.is_interchange():
        raise NotInterchange("isometry is not an interchange isometry")
    (x, w), = _hyperbolic_pairs(tau, wall_form(tau))
    blk = _interchange(tau, x, w, None)
    _check_blocks(tau, [blk], Subspace.zero(tau.space))
    return blk.vectors()


def is_interchanging_kind(tau: Isometry) -> bool:
    """Whether the residual form is alternating (all blocks are interchanges)."""
    if tau.space.field.characteristic() != 2:
        raise CharacteristicNot2("interchanging kind is a characteristic-2 notion")
    _require_unipotent2(tau)
    return wall_form(tau).is_alternating()


def decompose(tau: Isometry) -> Decomposition:
    """The full orthogonal decomposition; validated once before it is
    returned.

    Blocks are peeled off inside a shrinking orthogonal complement: block i
    is built inside the complement of the earlier blocks and of the
    identity summand, which keeps the summands pairwise orthogonal.  That
    complement is the kernel of (W basis; the earlier blocks' bases) B, one
    product and one elimination, put in RREF; its RREF basis is unique."""
    _require_unipotent2(tau)
    wf = wall_form(tau)
    fixed_complement = complement_W(tau)
    if wf.is_alternating():
        build, pieces = _interchange, _hyperbolic_pairs(tau, wf)
    else:
        # antisymmetric yet nonalternating residual forms exist only in char 2
        build, pieces = _reflection, [(u,) for u in wf.orthogonal_basis()[0]]
    taken = list(fixed_complement.basis.payload_rows)
    blocks: list[Block] = []
    for piece in pieces:
        blocks.append(build(tau, *piece, within=_orthogonal_to(tau.space, taken)))
        taken.extend(blocks[-1].subspace().basis.payload_rows)
    decomposition = Decomposition(tau, fixed_complement, tuple(blocks))
    validate_decomposition(decomposition, wf)
    return decomposition


def _hyperbolic_pairs(tau: Isometry, wf: WallForm) -> list[tuple[Vector, Vector]]:
    """The hyperbolic pairs (x, w) of an alternating residual form, as
    residual vectors."""
    rows = (hyperbolic_basis_alternating(wf.gram) * tau.residual_space().basis).rows
    return list(zip(rows[0::2], rows[1::2]))


def _block_basis(field, fixed: Subspace, blocks) -> tuple[Matrix, Matrix]:
    """P, whose columns are the vectors of the summands (those of `fixed`
    first), and D, the block-diagonal matrix of the claimed actions on them
    (the identity on `fixed`)."""
    columns = list(fixed.vectors())
    locals_ = [Matrix.identity(field, len(columns))]
    for blk in blocks:
        columns.extend(blk.vectors())
        locals_.append(blk.local_matrix(field))
    return from_columns(field, columns), block_diag(field, locals_)


def _check_blocks(tau: Isometry, blocks, fixed: Subspace):
    """The one block check: raise InvariantViolation unless, with P and D
    from :func:`_block_basis` and G = block_diag(Gram matrix on `fixed`,
    each block's claimed Gram matrix), M P = P D, P^T B P = G, every
    diagonal block of G is regular and q vanishes on interchange frames.
    Then P^T B P is regular, so the summand vectors are independent."""
    space = tau.space
    field = space.field
    p, local = _block_basis(field, fixed, blocks)
    # P D P^-1 = M iff M P = P D, without the inverse
    if tau.mat * p != p * local:
        raise InvariantViolation("reassembled blocks do not reproduce tau")
    # q of every block vector, one product over the columns of P past the fixed ones
    qvals = iter(space.q_values(p.transpose())[fixed.dim:])
    block_q = [tuple(itertools.islice(qvals, len(blk.vectors()))) for blk in blocks]
    grams = [fixed.gram_matrix()] + [blk.gram(field, q) for blk, q in zip(blocks, block_q)]
    if p.transpose() * space.gram * p != block_diag(field, grams):
        raise InvariantViolation("summands are not orthogonal or not of their claimed forms")
    if not all(g.det() for g in grams):
        raise InvariantViolation("a summand is not regular")
    if any(any(q) for blk, q in zip(blocks, block_q) if blk.kind == "interchange"):
        raise InvariantViolation("interchange frame vectors are not isotropic")


def reassemble(d: Decomposition) -> Matrix:
    """Rebuild the isometry matrix from the block data alone."""
    p, local = _block_basis(d.tau.space.field, d.fixed_complement, d.blocks)
    if not p.is_square():
        raise InvariantViolation("decomposition vectors do not form a basis")
    return p * local * p.inverse()


def validate_decomposition(d: Decomposition, wf: WallForm | None = None):
    """Raise InvariantViolation unless `d` is a valid decomposition of its
    isometry.  `wf` is the Wall form of ``d.tau`` if already computed.

    Checks the block kind/count law, that the summand dimensions add up to
    dim V, and the one block check (:func:`_check_blocks`) with W as the
    fixed summand.  Then P is square and P^T B P regular, so
    det(P)^2 det(B) != 0 and P is a basis; tau fixes W pointwise; and
    every summand is regular and orthogonal to the others."""
    tau = d.tau
    if wf is None:
        wf = wall_form(tau)
    elif wf.tau != tau:
        raise PreconditionError("the Wall form belongs to another isometry")
    # the block kind/count law: s/2 interchange blocks or s reflection blocks
    kind, size = ("interchange", 2) if wf.is_alternating() else ("reflection", 1)
    if any(blk.kind != kind for blk in d.blocks) or size * d.m != wf.s:
        raise InvariantViolation(f"the residual form asks for {wf.s // size} {kind} blocks")
    if d.fixed_complement.dim + sum(len(blk.vectors()) for blk in d.blocks) != tau.space.dim:
        raise InvariantViolation("decomposition vectors do not form a basis")
    _check_blocks(tau, d.blocks, d.fixed_complement)
