"""Orthogonal decomposition of unipotent isometries of index at most two.

Any isometry t with (t - id)^2 = 0 splits the space as

    V = W  |  V_1  |  ...  |  V_m     (pairwise orthogonal, t-invariant)

with t acting as the identity on W, where either the residual form is
alternating and every V_i is a 4-dimensional interchange block, or it is
nonalternating (characteristic 2) and every V_i is a 2-dimensional
reflection plane.  Block extraction follows the residual form: hyperbolic
pairs give interchange blocks, orthogonal basis vectors give reflections.

A block holds its frame as one payload matrix, boxed only by its public
views (``u``, ``x``, ..., ``vectors()``), and claims its action and Gram
matrix there: an interchange frame (x, y, w, z) is hyperbolic; a reflection
frame (u, v) has Gram [[0, q(u)], [q(u), 0]], as in characteristic 2
b(u, u) = b(v, v) = 0 and q(v + u) = q(v) gives b(u, v) = q(u).  One check
(:func:`_check_blocks`) verifies the claims on payloads; the public block
constructors run it on their block, and :func:`decompose` once on all.
"""

from __future__ import annotations

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
from .linalg import Matrix, Vector, _kernel, _rows_at, _unbox, _vec_mat, block_diag, stack_rows
from .quadspace import (Subspace, _orthogonal_to, _same_space, complement_in,
                        hyperbolic_basis_alternating)
from .isometry import Isometry
from .wallform import WallForm, wall_form


def _frame_row(i: int) -> property:
    return property(lambda blk: blk.frame.rows[i], doc=f"Row {i} of the frame, boxed.")


@dataclass(frozen=True)
class ReflectionBlock:
    """A reflection plane: `frame` has the rows u and v, with tau(u) = -u
    and tau(v) = v + u; `u`, `preimage` and :meth:`vectors` box them."""

    frame: Matrix
    plane: Subspace

    kind = "reflection"
    u, preimage = _frame_row(0), _frame_row(1)

    def vectors(self) -> tuple[Vector, ...]:
        return self.frame.rows

    def subspace(self) -> Subspace:
        return self.plane


@dataclass(frozen=True)
class InterchangeBlock:
    """An interchange block: `frame` has the rows x, y, w, z, with tau
    fixing x and w, tau(y) = y + w and tau(z) = z - x; `x`, `y`, `w`, `z`
    and :meth:`vectors` box them."""

    frame: Matrix
    space4: Subspace

    kind = "interchange"
    x, y, w, z = map(_frame_row, range(4))

    def vectors(self) -> tuple[Vector, ...]:
        return self.frame.rows

    def subspace(self) -> Subspace:
        return self.space4


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


def _own_wall_form(tau: Isometry, wf: WallForm | None) -> WallForm:
    """`wf`, computed if None; PreconditionError if it is the Wall form of
    another isometry."""
    if wf is None:
        return wall_form(tau)
    if wf.tau != tau:
        raise PreconditionError("the Wall form belongs to another isometry")
    return wf


def _preimages(tau: Isometry, targets: Matrix, within: Subspace | None) -> Matrix:
    """Rows y_j with (tau - id) y_j = row j of `targets`, restricted to
    `within` if given, all from one elimination; PreimageUnsolvable if any
    of them has none."""
    n_mat = tau.displacement()
    if within is None:
        found = n_mat.solve_many(targets)
    else:
        _same_space(tau.space, within.space, "an isometry and a subspace")
        coeffs = (n_mat * within.basis.transpose()).solve_many(targets)
        found = None if coeffs is None else coeffs * within.basis
    if found is None:
        raise PreimageUnsolvable("no preimage for a residual vector")
    return found


def _reflection(tau: Isometry, u: Matrix, within: Subspace | None) -> ReflectionBlock:
    """The reflection block of the one row of `u`, unchecked; `within`
    restricts the preimage v of u to a subspace."""
    frame = stack_rows(u, _preimages(tau, u, within))
    return ReflectionBlock(frame, Subspace.span(tau.space, frame))


def _interchange(tau: Isometry, x, w, within: Subspace | None) -> InterchangeBlock:
    """The interchange block of a residual hyperbolic pair of payload rows
    (x, w), unchecked: preimages y, z of w and -x, adjusted by fixed vectors
    so that q(y) = q(z) = b(y, z) = 0, make the frame (x, y, w, z) with
    tau(y) = y + w and tau(z) = z - x."""
    space, field = tau.space, tau.space.field
    kernel = _kernel(field)
    targets = Matrix._trusted(field, (w, kernel.neg_row(x)), space.dim)
    found = _preimages(tau, targets, within)
    y, z = found.payload_rows
    qy, qz = space._q_payloads(found)
    y = tuple(kernel.eliminate(y, qy, x))
    z = kernel.eliminate(z, qz, w)
    z = tuple(kernel.eliminate(z, kernel.dot(_vec_mat(field, y, space.gram), z), x))
    frame = Matrix._trusted(field, (x, y, w, z), space.dim)
    return InterchangeBlock(frame, Subspace.span(space, frame))


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
    wf = _own_wall_form(tau, wf)
    if not tau.residual_space().contains(u):
        raise NotInResidual("u is not in the residual space")
    if not wf.evaluate(u, u):
        raise ZeroDiagonal("residual form vanishes at u")
    field = tau.space.field
    blk = _reflection(tau, Matrix._trusted(field, (_unbox(field, u),), tau.space.dim), within)
    _check_blocks(tau, [blk], Subspace.zero(tau.space))
    return blk


def interchange_block(
    tau: Isometry, x: Vector, w: Vector, wf: WallForm | None = None,
    within: Subspace | None = None,
) -> InterchangeBlock:
    """The regular 4-dimensional t-invariant subspace attached to a residual
    pair with w(x, x) = w(w, w) = 0 and w(x, w) = 1 = -w(w, x)."""
    _require_unipotent2(tau)
    wf = _own_wall_form(tau, wf)
    residual = tau.residual_space()
    if not (residual.contains(x) and residual.contains(w)):
        raise NotInResidual("pair does not lie in the residual space")
    field = tau.space.field
    coords = Matrix(field, [wf.coords(x), wf.coords(w)])
    if coords * wf.gram * coords.transpose() != Matrix.from_ints(field, [[0, 1], [-1, 0]]):
        raise NotHyperbolicPair("pair is not hyperbolic for the residual form")
    blk = _interchange(tau, *Matrix(field, [x, w]).payload_rows, within)
    _check_blocks(tau, [blk], Subspace.zero(tau.space))
    return blk


def interchange_normal_basis(tau: Isometry) -> tuple[Vector, Vector, Vector, Vector]:
    """A hyperbolic basis (x, y, w, z) of a 4-dimensional interchange isometry
    with (x, w) spanning the fixed space, tau(y) = y + w and tau(z) = z - x.
    The Eichler transformation of (x, w) reproduces tau exactly: on this
    basis it acts as the block check has shown tau to act."""
    return normal_frame(tau).rows


def normal_frame(tau: Isometry) -> Matrix:
    """The rows of :func:`interchange_normal_basis`, kept with tau."""
    return tau.derived("interchange_normal_basis", _normal_basis)


def _normal_basis(tau: Isometry) -> Matrix:
    if not tau.is_interchange():
        raise NotInterchange("isometry is not an interchange isometry")
    (x, w), = _hyperbolic_pairs(tau, wall_form(tau))
    blk = _interchange(tau, x, w, None)
    _check_blocks(tau, [blk], Subspace.zero(tau.space))
    return blk.frame


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
        rows = wf.orthogonal_rows()[0]
        build, pieces = _reflection, [(_rows_at(rows, (i,)),) for i in range(rows.nrows)]
    taken = [fixed_complement.basis]
    blocks: list[Block] = []
    for piece in pieces:
        blocks.append(build(tau, *piece, within=_orthogonal_to(tau.space, stack_rows(*taken))))
        taken.append(blocks[-1].subspace().basis)
    decomposition = Decomposition(tau, fixed_complement, tuple(blocks))
    validate_decomposition(decomposition, wf)
    return decomposition


def _hyperbolic_pairs(tau: Isometry, wf: WallForm) -> list[tuple[tuple, tuple]]:
    """The hyperbolic pairs (x, w) of an alternating residual form, as
    payload rows of residual vectors."""
    rows = (hyperbolic_basis_alternating(wf.gram) * tau.residual_space().basis).payload_rows
    return list(zip(rows[0::2], rows[1::2]))


# per kind, patterns of 0, 1, -1: the claimed action (column j holds the image
# of frame row j) and Gram matrix, which a reflection frame (u, v) scales by q(u)
_CLAIMS = {
    "reflection": (((-1, 1), (0, 1)), ((0, 1), (1, 0))),  # u -> -u, v -> v + u
    "interchange": (((1, 0, 0, -1), (0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)),  # y -> y+w, z -> z-x
                    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))),  # hyperbolic
}


def _claimed(field, pattern, scale) -> Matrix:
    """The payload matrix of a claim pattern times the payload `scale`."""
    entries = {0: field.zero.payload, 1: scale, -1: _kernel(field).neg(scale)}
    return Matrix._trusted(field, tuple(tuple(map(entries.__getitem__, r)) for r in pattern),
                           len(pattern))


def _block_basis(field, fixed: Subspace, blocks) -> tuple[Matrix, Matrix]:
    """P, whose columns are the vectors of the summands (the basis of
    `fixed` first, then each block's frame), and D, the block-diagonal
    matrix of the claimed actions on them (the identity on `fixed`)."""
    actions = [Matrix.identity(field, fixed.dim)]
    for blk in blocks:
        actions.append(_claimed(field, _CLAIMS[blk.kind][0], field.one.payload))
    p = stack_rows(fixed.basis, *(blk.frame for blk in blocks)).transpose()
    return p, block_diag(field, actions)


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
    zero, one = field.zero.payload, field.one.payload
    grams, isotropic = [fixed.gram_matrix()], True
    for blk in blocks:
        q = space._q_payloads(blk.frame)
        reflection = blk.kind == "reflection"
        grams.append(_claimed(field, _CLAIMS[blk.kind][1], q[0] if reflection else one))
        isotropic = isotropic and (reflection or all(c == zero for c in q))
    if p.transpose() * space.gram * p != block_diag(field, grams):
        raise InvariantViolation("summands are not orthogonal or not of their claimed forms")
    if not all(g.det() for g in grams):
        raise InvariantViolation("a summand is not regular")
    if not isotropic:
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
    wf = _own_wall_form(tau, wf)
    # the block kind/count law: s/2 interchange blocks or s reflection blocks
    kind, size = ("interchange", 2) if wf.is_alternating() else ("reflection", 1)
    if any(blk.kind != kind for blk in d.blocks) or size * d.m != wf.s:
        raise InvariantViolation(f"the residual form asks for {wf.s // size} {kind} blocks")
    if d.fixed_complement.dim + sum(blk.frame.nrows for blk in d.blocks) != tau.space.dim:
        raise InvariantViolation("decomposition vectors do not form a basis")
    _check_blocks(tau, d.blocks, d.fixed_complement)
