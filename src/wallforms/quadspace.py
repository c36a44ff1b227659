"""Quadratic and bilinear spaces, subspaces, and basis constructions.

A :class:`QuadraticSpace` stores a quadratic form as a canonical
upper-triangular matrix Q (so q(x) = x^T Q x) together with the derived
polar Gram matrix B = Q + Q^T.  Regularity (B invertible) is enforced at
construction: in characteristic 2 this forces B to be alternating, hence
the dimension to be even.

q on a set of vectors is one payload product: :meth:`QuadraticSpace.q_values`
is the diagonal of R Q R^T for the rows of R.  ``eval_q`` and ``eval_b``
take boxed vectors one at a time.

Subspaces keep their bases in reduced row-echelon form so that equality
is representational; ``from_rows`` builds them from payload rows and
``span`` from the rows of a matrix.  Every
call on two space-bound operands raises through one guard, ``_same_space``.

A bilinear form enters as its Gram matrix G.  Its orthogonal and
hyperbolic bases come back as coordinate rows P, built on payload rows by
the field's kernel, and are checked by one product: P G P^T must be
diagonal with nonzero entries (:func:`orthogonal_basis`) or the standard
hyperbolic form (:func:`hyperbolic_basis_alternating`).  A caller that
holds the form on an explicit basis B gets the basis vectors as P B.

Greedy choices ("keep each vector that is independent of those kept so
far") are one elimination: column j of [v_1 ... v_k] is a pivot column of
its RREF exactly when v_j lies outside span(v_1, ..., v_{j-1}), so the
pivot columns are the greedy choice, in order (:func:`_independent`,
:func:`complement_in`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    AlternatingForm,
    Degenerate,
    DimensionMismatch,
    DescriptorMismatch,
    InvariantViolation,
    NotAlternating,
    NotExtendable,
    NotNested,
    NotRegular,
    NotSymmetric,
)
from .fields import Field, FieldElement
from .linalg import (
    Matrix,
    Vector,
    _columns,
    _diagonal,
    _kernel,
    _row_forms,
    _rows_at,
    _unbox,
    _vec_mat,
    bilinear,
    block_diag,
    stack_rows,
    vec_mat,
)


def _upper_triangularize(field: Field, qmat: Matrix) -> Matrix:
    """Fold a square form matrix over `field` into the canonical
    upper-triangular shape: Q_ii on the diagonal, Q_ij + Q_ji above it."""
    if qmat.field != field:
        raise DescriptorMismatch(f"a form over {qmat.field} for a space over {field}")
    rows, n, zero = qmat.payload_rows, qmat.nrows, field.zero.payload
    return Matrix._trusted(field, tuple(tuple(
        zero if j < i else rows[i][i] if j == i else field.add(rows[i][j], rows[j][i])
        for j in range(n)) for i in range(n)), n)


@dataclass(frozen=True)
class QuadraticSpace:
    field: Field
    dim: int
    qmat: Matrix   # upper triangular, q(x) = x^T qmat x
    gram: Matrix   # polar form, qmat + qmat^T

    @classmethod
    def from_q_upper(cls, field: Field, qmat: Matrix) -> "QuadraticSpace":
        if not qmat.is_square():
            raise DimensionMismatch("form matrix must be square")
        qmat = _upper_triangularize(field, qmat)
        gram = qmat + qmat.transpose()
        if gram.rank() != qmat.nrows:
            raise NotRegular("polar form is degenerate; the space is not regular")
        return cls(field, qmat.nrows, qmat, gram)

    @classmethod
    def from_int_rows(cls, field: Field, rows) -> "QuadraticSpace":
        return cls.from_q_upper(field, Matrix.from_ints(field, rows))

    @classmethod
    def hyperbolic(cls, field: Field, planes: int) -> "QuadraticSpace":
        """Orthogonal sum of `planes` hyperbolic planes: q = x1 x2 + x3 x4 + ..."""
        plane = Matrix.from_ints(field, [[0, 1], [0, 0]])
        return cls.from_q_upper(field, block_diag(field, [plane] * planes))

    def eval_q(self, x: Vector) -> FieldElement:
        if len(x) != self.dim:
            raise DimensionMismatch(f"vector of length {len(x)} in dim {self.dim}")
        return bilinear(x, self.qmat, x)

    def eval_b(self, x: Vector, y: Vector) -> FieldElement:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length mismatch")
        return bilinear(x, self.gram, y)

    def q_values(self, rows: Matrix) -> tuple[FieldElement, ...]:
        """q of every row of `rows`: the diagonal of R Q R^T, one payload
        product."""
        if rows.field != self.field:
            raise DescriptorMismatch(f"rows over {rows.field} in a space over {self.field}")
        if rows.ncols != self.dim:
            raise DimensionMismatch(f"rows of length {rows.ncols} in dim {self.dim}")
        return self.field.wrap_all(self._q_payloads(rows))

    def _q_payloads(self, rows: Matrix) -> tuple:
        """q of every row of `rows` (of length dim), as payloads."""
        return _row_forms(rows, self.qmat)

    def basis_vector(self, i: int) -> Vector:
        return Matrix.identity(self.field, self.dim).row(i)

    def zero_vector(self) -> Vector:
        return (self.field.zero,) * self.dim

    def vectors(self) -> Iterator[Vector]:
        """All vectors of the space, the first entry varying fastest; finite
        fields only."""
        for v in itertools.product(list(self.field.elements()), repeat=self.dim):
            yield v[::-1]

    def orthogonal_sum(self, other: "QuadraticSpace") -> "QuadraticSpace":
        if self.field != other.field:
            raise DimensionMismatch("spaces over different fields")
        qmat = block_diag(self.field, [self.qmat, other.qmat])
        return QuadraticSpace.from_q_upper(self.field, qmat)

    def __repr__(self):
        return f"QuadraticSpace({self.field.literal()}, dim={self.dim})"


@dataclass(frozen=True)
class Subspace:
    space: QuadraticSpace
    basis: Matrix  # rows in RREF, no zero rows

    @classmethod
    def from_vectors(cls, space: QuadraticSpace, vectors) -> "Subspace":
        """The span of vectors of the space's field; DescriptorMismatch for
        an entry of another field."""
        return cls.from_rows(space, [_unbox(space.field, v) for v in vectors])

    @classmethod
    def from_rows(cls, space: QuadraticSpace, rows) -> "Subspace":
        """The span of payload rows of the space's field, as the kernel
        makes them (tuples of canonical payloads): one elimination."""
        rows = tuple(rows)
        if not rows:
            return cls.zero(space)
        if any(len(r) != space.dim for r in rows):
            raise DimensionMismatch("vector length mismatch")
        return cls.span(space, Matrix._trusted(space.field, rows, space.dim))

    @classmethod
    def span(cls, space: QuadraticSpace, rows: Matrix) -> "Subspace":
        """The span of the rows of a matrix over the space's field, each
        dim long: one elimination."""
        if rows.ncols != space.dim:
            raise DimensionMismatch("vector length mismatch")
        if not rows.nrows:
            return cls.zero(space)
        return cls(space, rows.row_space())

    @classmethod
    def zero(cls, space: QuadraticSpace) -> "Subspace":
        return cls(space, Matrix._trusted(space.field, (), space.dim))

    @classmethod
    def full(cls, space: QuadraticSpace) -> "Subspace":
        return cls(space, Matrix.identity(space.field, space.dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def vectors(self) -> tuple[Vector, ...]:
        return self.basis.rows

    def contains(self, v: Vector) -> bool:
        return self.coordinates(v) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        _same_space(self.space, other.space, "subspaces")
        return stack_rows(self.basis, other.basis).rank() == self.dim

    def coordinates(self, v: Vector) -> Vector | None:
        """Coefficients of v in this basis, or None if v is outside.

        The basis is in RREF, so the coefficient of row j is v[pivot_j]."""
        if len(v) != self.space.dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dim {self.space.dim}")
        _, pivots = self.basis.rref()
        coords = tuple(v[p] for p in pivots)
        if vec_mat(coords, self.basis) != tuple(v):
            return None
        return coords

    def intersection(self, other: "Subspace") -> "Subspace":
        _same_space(self.space, other.space, "subspaces")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.space)
        # x = a . basis1 = b . basis2  <=>  (basis1^T | -basis2^T) (a; b) = 0
        joint = stack_rows(self.basis, -other.basis).transpose()
        kernel = joint.null_space()
        if not kernel.nrows:
            return Subspace.zero(self.space)
        return Subspace(self.space, (_columns(kernel, 0, self.dim) * self.basis).row_space())

    def subspace_sum(self, other: "Subspace") -> "Subspace":
        _same_space(self.space, other.space, "subspaces")
        return Subspace(self.space, stack_rows(self.basis, other.basis).row_space())

    def orthogonal_complement(self) -> "Subspace":
        """{x : b(x, y) = 0 for all y in self} via a kernel computation."""
        return _orthogonal_to(self.space, self.basis)

    def is_regular(self) -> bool:
        """W meets its orthogonal complement in 0: the polar form has no
        radical on W, i.e. its Gram matrix on the basis is invertible."""
        return self.dim == 0 or bool(self.gram_matrix().det())

    def is_totally_singular(self) -> bool:
        """The polar form vanishes on the subspace."""
        return self.gram_matrix().is_zero()

    def is_totally_isotropic(self) -> bool:
        """q vanishes identically on the subspace."""
        return not any(self.space.q_values(self.basis)) and self.is_totally_singular()

    def gram_matrix(self) -> Matrix:
        return self.basis * self.space.gram * self.basis.transpose()

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.space!r})"


def _same_space(a: QuadraticSpace, b: QuadraticSpace, operands: str):
    """The one guard of every call on two space-bound operands:
    DimensionMismatch, naming the `operands`, unless both belong to one
    space (identity first, as most pairs share it)."""
    if a is not b and a != b:
        raise DimensionMismatch(f"{operands} of different spaces")


def _orthogonal_to(space: QuadraticSpace, rows: Matrix) -> Subspace:
    """{x : b(r, x) = 0 for every row r of `rows`}: the kernel of R B (one
    product, one elimination), put in RREF (one more)."""
    if not rows.nrows:
        return Subspace.full(space)
    return Subspace.span(space, (rows * space.gram).null_space())


def complement_in(inner: Subspace, outer: Subspace) -> Subspace:
    """A complement of `inner` inside `outer`: the basis vectors of `outer`
    that the greedy choice keeps after those of `inner`, i.e. the pivot
    columns of (inner | outer) past inner's.  `inner` lies in `outer`
    exactly when that elimination has rank dim(outer)."""
    _same_space(inner.space, outer.space, "subspaces")
    joint = stack_rows(inner.basis, outer.basis).transpose()
    pivots = joint.rref()[1]
    if len(pivots) != outer.dim:
        raise NotNested("inner subspace is not contained in outer")
    chosen = _rows_at(outer.basis, [j - inner.dim for j in pivots if j >= inner.dim])
    return Subspace.span(outer.space, chosen)


# ---------------------------------------------------------------------------
# Orthogonal and hyperbolic bases of a Gram matrix
# ---------------------------------------------------------------------------

def _independent(field: Field, rows) -> list:
    """The greedy choice of independent payload rows: the pivot columns of
    the matrix whose columns they are."""
    if not rows:
        return []
    columns = Matrix._trusted(field, tuple(zip(*rows)), len(rows))
    return [rows[j] for j in columns.rref()[1]]


def _symplectic_pairs(gram: Matrix, rows) -> list:
    """Symplectic Gram-Schmidt on payload rows spanning a nondegenerate
    piece of the alternating form G; returns pairs (u, v) with u G v^T = 1."""
    field, kernel = gram.field, _kernel(gram.field)
    dot, zero = kernel.dot, kernel.zero
    remaining = list(rows)
    pairs = []
    while remaining:
        u = remaining[0]
        ug = _vec_mat(field, u, gram)
        v = next((w for w in remaining[1:] if dot(ug, w) != zero), None)
        if v is None:
            raise Degenerate("no symplectic partner; form is degenerate")
        v = kernel.scale_row(kernel.inv(dot(ug, v)), v)
        pairs.append((u, v))
        gv = [dot(r, v) for r in gram.payload_rows]  # G v^T
        new = []
        for w in remaining[1:]:
            w = kernel.eliminate(w, dot(w, gv), u)
            new.append(kernel.eliminate(w, dot(ug, w), v))
        remaining = _independent(field, new)
    return pairs


def orthogonal_basis(gram: Matrix) -> tuple[Matrix, tuple[FieldElement, ...]]:
    """An orthogonal basis of the nonalternating nondegenerate symmetric form
    with Gram matrix G: coordinate rows P and the diagonal d, with
    P G P^T = diag(d) and every d_i nonzero.  In characteristic 2 a greedy
    split can leave an alternating remainder; it is repaired by combining
    the last diagonal vector v (of norm a) with a hyperbolic pair (e, f) of
    the remainder, replacing them by (v+e, v+af, v+e+af), whose Gram matrix
    is diag(a, a, a).  A non-square G fails its determinant with
    DimensionMismatch."""
    if not gram.det():
        raise Degenerate("form is degenerate")
    if not gram.is_symmetric():
        raise NotSymmetric("form is not symmetric")
    field, kernel = gram.field, _kernel(gram.field)
    dot, zero = kernel.dot, kernel.zero
    char2 = field.characteristic() == 2
    remaining = list(Matrix.identity(field, gram.nrows).payload_rows)
    diag = []
    while remaining:
        at = next((i for i, v in enumerate(remaining)
                   if dot(_vec_mat(field, v, gram), v) != zero), None)
        if at is None and not char2:
            # f(u+v, u+v) = 2 f(u, v) rescues the greedy split
            for i, u in enumerate(remaining):
                ug = _vec_mat(field, u, gram)
                v = next((w for w in remaining[i + 1:] if dot(ug, w) != zero), None)
                if v is not None:
                    at = len(remaining)
                    remaining.append(kernel.add_rows(u, v))
                    break
        if at is None:
            break
        pick = remaining[at]
        diag.append(pick)
        pg = _vec_mat(field, pick, gram)
        inv = kernel.inv(dot(pg, pick))
        remaining = _independent(field, [
            kernel.eliminate(w, kernel.mul(dot(pg, w), inv), pick)
            for i, w in enumerate(remaining) if i != at
        ])

    if remaining:
        # alternating remainder (characteristic 2 only)
        if not diag:
            raise AlternatingForm("form is alternating; no orthogonal basis")
        v = diag.pop()
        for e, f in _symplectic_pairs(gram, remaining):
            af = kernel.scale_row(dot(_vec_mat(field, v, gram), v), f)
            diag.extend([kernel.add_rows(v, e), kernel.add_rows(v, af)])
            v = kernel.add_rows(kernel.add_rows(v, e), af)
        diag.append(v)

    p = Matrix.from_payloads(field, diag, gram.nrows)
    product = p * gram * p.transpose()
    d = tuple(product.payload_rows[i][i] for i in range(p.nrows))
    if p.nrows != gram.nrows or zero in d or product != _diagonal(field, d):
        raise InvariantViolation("P G P^T is not diagonal with nonzero entries")
    return p, field.wrap_all(d)


def hyperbolic_basis_alternating(gram: Matrix) -> Matrix:
    """Symplectic Gram-Schmidt on the alternating nondegenerate form with
    Gram matrix G: coordinate rows u_1, v_1, u_2, v_2, ... with
    f(u_i, v_i) = 1, f(v_i, u_i) = -1 and all other pairings zero, i.e.
    P G P^T is the standard hyperbolic form.  A non-square G fails its
    determinant with DimensionMismatch."""
    if not gram.det():
        raise Degenerate("form is degenerate")
    if not gram.is_alternating():
        raise NotAlternating("form is not alternating")
    field, n = gram.field, gram.nrows
    pairs = _symplectic_pairs(gram, Matrix.identity(field, n).payload_rows)
    p = Matrix.from_payloads(field, [r for pair in pairs for r in pair], n)
    zero, one = field.zero.payload, field.one.payload
    plane = Matrix._trusted(field, ((zero, one), (_kernel(field).neg(one), zero)), 2)
    if p * gram * p.transpose() != block_diag(field, [plane] * (n // 2)):
        raise InvariantViolation("P G P^T is not the standard hyperbolic form")
    return p


def extend_to_hyperbolic_basis(
    space: QuadraticSpace, x: Vector, w: Vector
) -> tuple[Vector, Vector, Vector, Vector]:
    """Extend a totally isotropic pair (x, w) of a 4-dimensional space to a
    hyperbolic basis (x, y, w, z): q vanishes on all four vectors,
    b(x,y) = b(w,z) = 1, and all other pairings are zero."""
    if space.dim != 4:
        raise NotExtendable("space must be 4-dimensional")
    pair = Subspace.from_vectors(space, [x, w])
    if pair.dim != 2 or not pair.is_totally_isotropic():
        raise NotExtendable("(x, w) must span a totally isotropic plane")

    field, kernel = space.field, _kernel(space.field)
    xw = Matrix(field, [x, w])
    bxw = xw * space.gram  # rows b(x, .) and b(w, .)
    y = bxw.solve((field.one, field.zero))
    if y is None:
        raise NotExtendable("cannot solve for the first partner vector")
    # y - q(y) x and z - q(z) w are isotropic and keep their pairings
    px, pw = xw.payload_rows
    py = tuple(kernel.eliminate(_unbox(field, y), space.eval_q(y).payload, px))

    by = _vec_mat(field, py, space.gram)
    z = Matrix._trusted(field, bxw.payload_rows + (by,), space.dim).solve(
        (field.zero, field.one, field.zero))
    if z is None:
        raise NotExtendable("cannot solve for the second partner vector")
    pz = tuple(kernel.eliminate(_unbox(field, z), space.eval_q(z).payload, pw))

    frame = Matrix._trusted(field, (px, py, pw, pz), space.dim)
    if any(space.q_values(frame)):
        raise NotExtendable("space is not hyperbolic on the constructed basis")
    return frame.rows
