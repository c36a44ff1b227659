"""The nondegenerate bilinear form an isometry induces on its residual space.

For an isometry t of (V, q), the residual space r(t) = im(t - id) carries
the form

    w(t(x) - x, t(y) - y) = b(t(x) - x, y),

which is nondegenerate and satisfies w(u, u) = -q(u).  It is symmetric
exactly when t^2 = id and antisymmetric exactly when (t - id)^2 = 0.

The residual basis is canonical: the nonzero rows of the reduced
row-echelon form of (M - I)^T, i.e. the column-echelon basis of
im(M - I).  Preimages are the deterministic solutions (free variables
zero) of (M - I) y = u, all of them from one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotSymmetric
from .fields import FieldElement
from .linalg import Matrix, Vector, _kernel, bilinear
from .quadspace import Subspace, _upper_triangularize, orthogonal_basis
from .isometry import Isometry


@dataclass(frozen=True)
class WallForm:
    """The Wall form of `tau`, on payload matrices: `basis` and `preimages`
    box their rows on first access."""

    tau: Isometry
    basis_rows: Matrix     # canonical basis of r(tau)
    preimage_rows: Matrix  # row j: y_j with tau(y_j) - y_j = basis[j]
    gram: Matrix           # gram[i][j] = b(basis[i], preimages[j])

    @property
    def basis(self) -> tuple[Vector, ...]:
        return self.basis_rows.rows

    @property
    def preimages(self) -> tuple[Vector, ...]:
        return self.preimage_rows.rows

    @property
    def s(self) -> int:
        return self.basis_rows.nrows

    def orthogonal_basis(self) -> tuple[tuple[Vector, ...], tuple[FieldElement, ...]]:
        """An orthogonal basis of the residual form (nonalternating forms
        only) and its diagonal w(u, u); :meth:`orthogonal_rows` boxed."""
        rows, diagonal = self.orthogonal_rows()
        return rows.rows, diagonal

    def orthogonal_rows(self) -> tuple[Matrix, tuple[FieldElement, ...]]:
        """The orthogonal basis as the rows of P R (P from
        :func:`orthogonal_basis`, R the residual basis) and its diagonal,
        kept with the isometry."""
        return self.tau.derived("orthogonal_basis", _orthogonal_residual_basis)

    def carrier(self) -> Subspace:
        """The residual space, whose RREF basis is `basis`."""
        return self.tau.residual_space()

    def coords(self, u: Vector) -> Vector:
        """Coordinates of u in the (RREF) residual basis."""
        c = self.carrier().coordinates(u)
        if c is None:
            raise InvariantViolation("vector is not in the residual space")
        return c

    def evaluate(self, u: Vector, v: Vector) -> FieldElement:
        """w(u, v) for arbitrary u, v in r(tau)."""
        return bilinear(self.coords(u), self.gram, self.coords(v))

    def is_symmetric(self) -> bool:
        return self.gram.is_symmetric()

    def is_antisymmetric(self) -> bool:
        return self.gram.is_antisymmetric()

    def is_alternating(self) -> bool:
        return self.gram.is_alternating()


def wall_form(tau: Isometry) -> WallForm:
    """The Wall form of `tau`.  Its basis, preimages and Gram matrix are
    built and checked once per isometry; the isometry keeps only those, so
    that it holds no reference to itself."""
    return WallForm(tau, *tau.derived("wall_form", _wall_form_parts))


def _orthogonal_residual_basis(tau: Isometry):
    # from the kept Gram matrix, not the WallForm, which refers back to tau
    p, diagonal = orthogonal_basis(tau.derived("wall_form", _wall_form_parts)[2])
    return p * tau.residual_space().basis, diagonal


def _wall_form_parts(tau: Isometry) -> tuple[Matrix, Matrix, Matrix]:
    space = tau.space
    residual = tau.residual_space().basis  # the RREF of the columns of M - I
    # every preimage from one elimination of [M - I | R^T]
    preimages = tau.displacement().solve_many(residual)
    if preimages is None:
        raise InvariantViolation("residual vector has no preimage")
    # gram[i][j] = b(basis[i], preimages[j])
    gram = residual * space.gram * preimages.transpose()
    # two theorems, checked eagerly: nondegeneracy and the diagonal law
    if residual.nrows and not gram.det():
        raise InvariantViolation("residual form is degenerate")
    neg, grows = _kernel(space.field).neg, gram.payload_rows
    if any(grows[i][i] != neg(q) for i, q in enumerate(space._q_payloads(residual))):
        raise InvariantViolation("diagonal law w(u, u) = -q(u) failed")
    return residual, preimages, gram


@dataclass(frozen=True)
class WallClassification:
    symmetric: bool
    antisymmetric: bool
    alternating: bool


def classify(w: WallForm) -> WallClassification:
    """All three flags are reported independently: in characteristic 2,
    symmetric and antisymmetric coincide."""
    return WallClassification(
        symmetric=w.is_symmetric(),
        antisymmetric=w.is_antisymmetric(),
        alternating=w.is_alternating(),
    )


@dataclass(frozen=True)
class AssocQuadratic:
    """The quadratic form v -> w(v, v) of a symmetric form w, written as an
    upper-triangular matrix over the residual basis."""

    basis: tuple[Vector, ...]
    qmat: Matrix

    def value_coords(self, coords: Vector) -> FieldElement:
        return bilinear(coords, self.qmat, coords)

    def diagonal(self) -> tuple[FieldElement, ...]:
        return tuple(self.qmat[i, i] for i in range(self.qmat.nrows))

    def is_totally_singular(self) -> bool:
        polar = self.qmat + self.qmat.transpose()
        return polar.is_zero()


def assoc_quadratic(w: WallForm) -> AssocQuadratic:
    if not w.is_symmetric():
        raise NotSymmetric("associated quadratic form needs a symmetric input")
    return AssocQuadratic(w.basis, _upper_triangularize(w.tau.space.field, w.gram))
