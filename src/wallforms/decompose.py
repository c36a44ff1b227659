"""Orthogonal decomposition of unipotent isometries of index at most two.

Any isometry t with (t - id)^2 = 0 splits the space as

    V = W  |  V_1  |  ...  |  V_m     (pairwise orthogonal, t-invariant)

with t acting as the identity on W, where either the residual form is
alternating and every V_i is a 4-dimensional interchange block, or it is
nonalternating (characteristic 2) and every V_i is a 2-dimensional
reflection plane.  Block extraction follows the residual form: hyperbolic
pairs give interchange blocks, orthogonal basis vectors give reflections.

Every decomposition is validated before it is returned: the summands are
regular, pairwise orthogonal and invariant, and reassembling the claimed
block actions reproduces the isometry matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CharacteristicNot2,
    InvariantViolation,
    IsotropicVector,
    NotHyperbolicPair,
    NotInResidual,
    NotInterchange,
    NotUnipotent2,
    PreconditionError,
    PreimageUnsolvable,
    ZeroDiagonal,
)
from .linalg import Matrix, Vector, block_diag, from_columns, vadd, vscale, vsub
from .quadspace import Subspace, complement_in, hyperbolic_basis_alternating
from .isometry import Isometry, eichler
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


def _solve_preimage(tau: Isometry, target: Vector, within: Subspace | None) -> Vector | None:
    """A vector y with (tau - id) y = target, restricted to `within` if given."""
    n_mat = tau.displacement()
    if within is None:
        return n_mat.solve(target)
    coeffs = (n_mat * within.basis.transpose()).solve(target)
    if coeffs is None:
        return None
    y = tau.space.zero_vector()
    for c, row in zip(coeffs, within.basis.rows):
        y = vadd(y, vscale(c, row))
    return y


def reflection_block(
    tau: Isometry, u: Vector, wf: WallForm | None = None,
    within: Subspace | None = None,
) -> ReflectionBlock:
    """The regular plane span(u, v) with tau acting as the reflection along u,
    where v solves (tau - id) v = u.  Requires characteristic 2, u in the
    residual space, and nonzero residual-form diagonal at u.  `within`
    restricts the preimage to a subspace (used when peeling off blocks)."""
    space = tau.space
    if space.field.characteristic() != 2:
        raise CharacteristicNot2("reflection blocks exist in characteristic 2 only")
    wf = wf if wf is not None else wall_form(tau)
    if not tau.residual_space().contains(u):
        raise NotInResidual("u is not in the residual space")
    if not wf.evaluate(u, u):
        raise ZeroDiagonal("residual form vanishes at u")
    v = _solve_preimage(tau, u, within)
    if v is None:
        raise PreimageUnsolvable("no preimage for a residual vector")
    plane = Subspace.from_vectors(space, [u, v])
    if plane.dim != 2 or not plane.is_regular():
        raise InvariantViolation("reflection block plane is not a regular plane")
    qu = space.eval_q(u)
    if not qu:
        raise IsotropicVector("reflection requires q(u) != 0")
    for vec in (u, v):
        # the reflection along u, x -> x - (b(u, x) / q(u)) u, without its matrix
        if tau.apply(vec) != vsub(vec, vscale(space.eval_b(u, vec) / qu, u)):
            raise InvariantViolation("restriction to the block is not the reflection")
    return ReflectionBlock(u, v, plane)


def _normalized_interchange_frame(
    tau: Isometry, x: Vector, w: Vector, within: Subspace | None = None
) -> tuple[Vector, Vector, Vector, Vector]:
    """Solve preimages for a residual hyperbolic pair (x, w) and normalize
    them so that (x, y, w, z) is a hyperbolic basis with tau(y) = y + w and
    tau(z) = z - x."""
    space = tau.space
    y = _solve_preimage(tau, w, within)
    z = _solve_preimage(tau, tuple(-c for c in x), within)
    if y is None or z is None:
        raise PreimageUnsolvable("no preimage for a residual vector")
    # adjust by fixed vectors: q(y') = 0, q(z') = 0, b(y', z') = 0
    y = vsub(y, vscale(space.eval_q(y), x))
    z = vsub(z, vscale(space.eval_q(z), w))
    z = vsub(z, vscale(space.eval_b(y, z), x))
    return (x, y, w, z)


def _check_interchange_frame(tau: Isometry, frame) -> Subspace:
    space = tau.space
    x, y, w, z = frame
    b, q = space.eval_b, space.eval_q
    expected_pairings = {
        (0, 1): space.field.one, (2, 3): space.field.one,
        (0, 2): space.field.zero, (0, 3): space.field.zero,
        (1, 2): space.field.zero, (1, 3): space.field.zero,
    }
    for (i, j), val in expected_pairings.items():
        if b(frame[i], frame[j]) != val:
            raise InvariantViolation("interchange frame is not hyperbolic")
    if any(q(v) for v in frame):
        raise InvariantViolation("interchange frame vectors are not isotropic")
    if tau.apply(x) != x or tau.apply(w) != w:
        raise InvariantViolation("interchange frame: x, w are not fixed")
    if tau.apply(y) != vadd(y, w) or tau.apply(z) != vsub(z, x):
        raise InvariantViolation("interchange frame: wrong action on y, z")
    sub = Subspace.from_vectors(space, frame)
    if sub.dim != 4 or not sub.is_regular():
        raise InvariantViolation("interchange frame does not span a regular 4-space")
    return sub


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
    one = tau.space.field.one
    if (
        wf.evaluate(x, x)
        or wf.evaluate(w, w)
        or wf.evaluate(x, w) != one
        or wf.evaluate(w, x) != -one
    ):
        raise NotHyperbolicPair("pair is not hyperbolic for the residual form")
    frame = _normalized_interchange_frame(tau, x, w, within)
    sub = _check_interchange_frame(tau, frame)
    return InterchangeBlock(*frame, sub)


def interchange_normal_basis(tau: Isometry) -> tuple[Vector, Vector, Vector, Vector]:
    """A hyperbolic basis (x, y, w, z) of a 4-dimensional interchange isometry
    with (x, w) spanning the fixed space, tau(y) = y + w and tau(z) = z - x.
    The Eichler transformation of (x, w) reproduces tau exactly."""
    if not tau.is_interchange():
        raise NotInterchange("isometry is not an interchange isometry")
    wf = wall_form(tau)
    pairs = hyperbolic_basis_alternating(wf.form())
    (x, w), = pairs
    frame = _normalized_interchange_frame(tau, x, w)
    _check_interchange_frame(tau, frame)
    if eichler(tau.space, frame[0], frame[2]).mat != tau.mat:
        raise InvariantViolation("normal basis does not reproduce the isometry")
    return frame


def is_interchanging_kind(tau: Isometry) -> bool:
    """Whether the residual form is alternating (all blocks are interchanges)."""
    if tau.space.field.characteristic() != 2:
        raise CharacteristicNot2("interchanging kind is a characteristic-2 notion")
    _require_unipotent2(tau)
    return wall_form(tau).is_alternating()


def decompose(tau: Isometry) -> Decomposition:
    """The full orthogonal decomposition; validated before being returned.

    Blocks are peeled off inside a shrinking orthogonal complement: block i
    is built inside the complement of the earlier blocks (and of the
    identity summand), which keeps the summands pairwise orthogonal."""
    _require_unipotent2(tau)
    wf = wall_form(tau)
    fixed_complement = complement_W(tau)
    current = fixed_complement.orthogonal_complement()
    blocks: list[Block] = []
    if wf.is_alternating():
        for x, w in hyperbolic_basis_alternating(wf.form()):
            if not (current.contains(x) and current.contains(w)):
                raise InvariantViolation("residual pair left the running complement")
            blk = interchange_block(tau, x, w, wf, within=current)
            blocks.append(blk)
            current = current.intersection(blk.subspace().orthogonal_complement())
    else:
        # antisymmetric yet nonalternating residual forms exist only in char 2
        for u in wf.orthogonal_basis():
            if not current.contains(u):
                raise InvariantViolation("residual vector left the running complement")
            blk = reflection_block(tau, u, wf, within=current)
            blocks.append(blk)
            current = current.intersection(blk.subspace().orthogonal_complement())
    decomposition = Decomposition(tau, fixed_complement, tuple(blocks))
    validate_decomposition(decomposition, wf)
    return decomposition


def _block_basis(d: Decomposition) -> tuple[Matrix, Matrix]:
    """P, whose columns are the vectors of the summands, and the
    block-diagonal matrix of the claimed actions on them."""
    space = d.tau.space
    field = space.field
    columns = list(d.fixed_complement.vectors())
    locals_ = [Matrix.identity(field, d.fixed_complement.dim)]
    for blk in d.blocks:
        columns.extend(blk.vectors())
        locals_.append(blk.local_matrix(field))
    p = from_columns(field, columns)
    if p.nrows != p.ncols:
        raise InvariantViolation("decomposition vectors do not form a basis")
    return p, block_diag(field, locals_)


def reassemble(d: Decomposition) -> Matrix:
    """Rebuild the isometry matrix from the block data alone."""
    p, local = _block_basis(d)
    return p * local * p.inverse()


def validate_decomposition(d: Decomposition, wf: WallForm | None = None):
    """Raise InvariantViolation unless `d` is a valid decomposition of its
    isometry.  `wf` is the Wall form of ``d.tau`` if already computed.

    Besides the block kind/count law, three matrix facts on P (columns the
    summand vectors) and D (the claimed actions) are checked: det P != 0,
    P^T B P is zero outside the summands' diagonal blocks, and M P = P D.
    They imply the rest: each summand is regular, as
    det(P^T B P) = det(P)^2 det(B) != 0; tau fixes W pointwise; and the
    summand dimensions add up to dim V (P is square)."""
    tau, space = d.tau, d.tau.space
    if wf is None:
        wf = wall_form(tau)
    elif wf.tau != tau:
        raise PreconditionError("the Wall form belongs to another isometry")
    s = wf.s
    if wf.is_alternating():
        if any(blk.kind != "interchange" for blk in d.blocks) or 2 * d.m != s:
            raise InvariantViolation("alternating case must give s/2 interchange blocks")
    else:
        if any(blk.kind != "reflection" for blk in d.blocks) or d.m != s:
            raise InvariantViolation("nonalternating case must give s reflection blocks")
    p, local = _block_basis(d)
    if not p.det():
        raise InvariantViolation("decomposition vectors do not form a basis")
    summand = [0] * d.fixed_complement.dim
    for k, blk in enumerate(d.blocks, 1):
        summand += [k] * len(blk.vectors())
    gram = (p.transpose() * space.gram * p).rows
    if any(c for i, row in enumerate(gram) for j, c in enumerate(row) if summand[i] != summand[j]):
        raise InvariantViolation("summands are not orthogonal")
    # reassemble(d) == tau.mat without the inverse: P D P^-1 = M iff M P = P D
    if tau.mat * p != p * local:
        raise InvariantViolation("reassembled blocks do not reproduce tau")
