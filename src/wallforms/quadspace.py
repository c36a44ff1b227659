"""Quadratic and bilinear spaces, subspaces, and basis constructions.

A :class:`QuadraticSpace` stores a quadratic form as a canonical
upper-triangular matrix Q (so q(x) = x^T Q x) together with the derived
polar Gram matrix B = Q + Q^T.  Regularity (B invertible) is enforced at
construction: in characteristic 2 this forces B to be alternating, hence
the dimension to be even.

Subspaces keep their bases in reduced row-echelon form so that equality
is representational.

Greedy choices ("keep each vector that is independent of those kept so
far") are one elimination: column j of [v_1 ... v_k] is a pivot column of
its RREF exactly when v_j lies outside span(v_1, ..., v_{j-1}), so the
pivot columns are the greedy choice, in order (:func:`_independent`,
:func:`complement_in`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import (
    AlternatingForm,
    Degenerate,
    DimensionMismatch,
    NotAlternating,
    NotExtendable,
    NotNested,
    NotRegular,
)
from .fields import Field, FieldElement
from .linalg import (
    Matrix,
    Vector,
    bilinear,
    from_columns,
    stack_rows,
    unit_vector,
    vadd,
    vec_mat,
    vscale,
    vsub,
    vzero,
)


def _upper_triangularize(field: Field, qmat: Matrix) -> Matrix:
    """Fold a square form matrix into the canonical upper-triangular shape."""
    n = qmat.nrows
    z = field.zero
    rows = [[z] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = qmat[i, i]
        for j in range(i + 1, n):
            rows[i][j] = qmat[i, j] + qmat[j, i]
    return Matrix(field, rows)


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
        n = 2 * planes
        z, o = field.zero, field.one
        rows = [[z] * n for _ in range(n)]
        for k in range(planes):
            rows[2 * k][2 * k + 1] = o
        return cls.from_q_upper(field, Matrix(field, rows))

    def eval_q(self, x: Vector) -> FieldElement:
        if len(x) != self.dim:
            raise DimensionMismatch(f"vector of length {len(x)} in dim {self.dim}")
        return bilinear(x, self.qmat, x)

    def eval_b(self, x: Vector, y: Vector) -> FieldElement:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length mismatch")
        return bilinear(x, self.gram, y)

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.field, self.dim, i)

    def zero_vector(self) -> Vector:
        return vzero(self.field, self.dim)

    def vectors(self) -> Iterator[Vector]:
        """All vectors of the space; finite fields only."""
        elems = list(self.field.elements())
        idx = [0] * self.dim
        while True:
            yield tuple(elems[i] for i in idx)
            j = 0
            while j < self.dim:
                idx[j] += 1
                if idx[j] < len(elems):
                    break
                idx[j] = 0
                j += 1
            if j == self.dim:
                return

    def orthogonal_sum(self, other: "QuadraticSpace") -> "QuadraticSpace":
        if self.field != other.field:
            raise DimensionMismatch("spaces over different fields")
        n, m = self.dim, other.dim
        z = self.field.zero
        rows = [[z] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                rows[i][j] = self.qmat[i, j]
        for i in range(m):
            for j in range(m):
                rows[n + i][n + j] = other.qmat[i, j]
        return QuadraticSpace.from_q_upper(self.field, Matrix(self.field, rows))

    def __repr__(self):
        return f"QuadraticSpace({self.field.literal()}, dim={self.dim})"


@dataclass(frozen=True)
class Subspace:
    space: QuadraticSpace
    basis: Matrix  # rows in RREF, no zero rows

    @classmethod
    def from_vectors(cls, space: QuadraticSpace, vectors) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return cls.zero(space)
        m = Matrix(space.field, vectors)
        if m.ncols != space.dim:
            raise DimensionMismatch("vector length mismatch")
        return cls(space, m.row_space())

    @classmethod
    def zero(cls, space: QuadraticSpace) -> "Subspace":
        return cls(space, Matrix(space.field, [], ncols=space.dim))

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
        return stack_rows(self.space.field, [self.basis, other.basis]).rank() == self.dim

    def coordinates(self, v: Vector) -> Vector | None:
        """Coefficients of v in this basis, or None if v is outside.

        The basis is in RREF, so the coefficient of row j is v[pivot_j]."""
        _, pivots = self.basis.rref()
        coords = tuple(v[p] for p in pivots)
        if vec_mat(coords, self.basis) != tuple(v):
            return None
        return coords

    def intersection(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.space)
        # x = a . basis1 = b . basis2  <=>  (basis1^T | -basis2^T) (a; b) = 0
        field = self.space.field
        joint = stack_rows(field, [self.basis, -other.basis]).transpose()
        kernel = joint.kernel_basis()
        if not kernel:
            return Subspace.zero(self.space)
        coeffs = Matrix(field, [k[: self.dim] for k in kernel])
        return Subspace(self.space, (coeffs * self.basis).row_space())

    def subspace_sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.space, stack_rows(
            self.space.field, [self.basis, other.basis]).row_space())

    def orthogonal_complement(self) -> "Subspace":
        """{x : b(x, y) = 0 for all y in self} via a kernel computation."""
        if self.dim == 0:
            return Subspace.full(self.space)
        constraint = self.basis * self.space.gram
        return Subspace.from_vectors(self.space, constraint.kernel_basis())

    def is_regular(self) -> bool:
        """W meets its orthogonal complement in 0: the polar form has no
        radical on W, i.e. its Gram matrix on the basis is invertible."""
        return self.dim == 0 or bool(self.gram_matrix().det())

    def is_totally_singular(self) -> bool:
        """The polar form vanishes on the subspace."""
        return self.gram_matrix().is_zero()

    def is_totally_isotropic(self) -> bool:
        """q vanishes identically on the subspace."""
        if not all(not self.space.eval_q(v) for v in self.vectors()):
            return False
        return self.is_totally_singular()

    def gram_matrix(self) -> Matrix:
        return self.basis * self.space.gram * self.basis.transpose()

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.space!r})"


def complement_in(inner: Subspace, outer: Subspace) -> Subspace:
    """A complement of `inner` inside `outer`: the basis vectors of `outer`
    that the greedy choice keeps after those of `inner`, i.e. the pivot
    columns of (inner | outer) past inner's.  `inner` lies in `outer`
    exactly when that elimination has rank dim(outer)."""
    if inner.space != outer.space:
        raise DimensionMismatch("subspaces of different spaces")
    joint = stack_rows(outer.space.field, [inner.basis, outer.basis]).transpose()
    pivots = joint.rref()[1]
    if len(pivots) != outer.dim:
        raise NotNested("inner subspace is not contained in outer")
    outer_rows = outer.vectors()
    chosen = [outer_rows[j - inner.dim] for j in pivots if j >= inner.dim]
    return Subspace.from_vectors(outer.space, chosen)


# ---------------------------------------------------------------------------
# Symmetric bilinear forms on an explicit basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymBilinearForm:
    """A bilinear form given by its Gram matrix on an explicit vector basis.

    ``basis`` are ambient vectors (rows); ``gram[i][j]`` is the value of the
    form on (basis[i], basis[j]).  ``space`` is the ambient quadratic space
    when there is one (coordinate-only forms pass None).
    """

    field: Field
    basis: tuple[Vector, ...]
    gram: Matrix
    space: QuadraticSpace | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def eval_coords(self, a: Vector, b: Vector) -> FieldElement:
        return bilinear(a, self.gram, b)

    def ambient(self, coords: Vector) -> Vector:
        """The ambient vector with the given coefficients in this basis."""
        if self.dim == 0:
            raise DimensionMismatch("zero-dimensional form has no vectors")
        return vec_mat(coords, Matrix(self.field, self.basis))

    def is_symmetric(self) -> bool:
        return self.gram.is_symmetric()

    def is_alternating(self) -> bool:
        return self.gram.is_alternating()

    def is_nondegenerate(self) -> bool:
        return self.dim == 0 or bool(self.gram.det())


def _independent(field: Field, vectors) -> list[Vector]:
    """The greedy choice of independent vectors: the pivot columns."""
    if not vectors:
        return []
    return [vectors[j] for j in from_columns(field, vectors).rref()[1]]


def _symplectic_pairs(form: SymBilinearForm, coord_vectors: list[Vector]):
    """Symplectic Gram-Schmidt on coordinate vectors spanning an alternating
    nondegenerate piece; returns coordinate pairs with f(u, v) = 1."""
    field = form.field
    f = form.eval_coords
    remaining = list(coord_vectors)
    pairs = []
    while remaining:
        u = remaining[0]
        v = next((w for w in remaining[1:] if f(u, w)), None)
        if v is None:
            raise Degenerate("no symplectic partner; form is degenerate")
        v = vscale(field.one / f(u, v), v)
        pairs.append((u, v))
        new = []
        for w in remaining:
            if w is u:
                continue
            w1 = vsub(w, vscale(f(w, v), u))
            w1 = vsub(w1, vscale(f(u, w1), v))
            new.append(w1)
        remaining = _independent(field, new)
    return pairs


def orthogonal_basis(form: SymBilinearForm) -> tuple[Vector, ...]:
    """An orthogonal basis of a nonalternating nondegenerate symmetric form.

    Returns ambient vectors whose Gram matrix under the form is diagonal
    with nonzero entries.  In characteristic 2 a greedy split can leave an
    alternating remainder; it is repaired by combining the last diagonal
    vector v (of norm a) with a hyperbolic pair (e, f) of the remainder,
    replacing them by (v+e, v+af, v+e+af), whose Gram is diag(a, a, a).
    """
    if not form.is_symmetric():
        raise NotAlternating("form is not symmetric")
    if not form.is_nondegenerate():
        raise Degenerate("form is degenerate")
    field = form.field
    n = form.dim
    char2 = field.characteristic() == 2
    f = form.eval_coords

    remaining = [unit_vector(field, n, i) for i in range(n)]
    diag: list[Vector] = []

    while remaining:
        pick = next((v for v in remaining if f(v, v)), None)
        if pick is None and not char2:
            # f(u+v, u+v) = 2 f(u, v) rescues the greedy split
            for i, u in enumerate(remaining):
                v = next((w for w in remaining[i + 1:] if f(u, w)), None)
                if v is not None:
                    pick = vadd(u, v)
                    remaining.append(pick)
                    break
        if pick is None:
            break
        diag.append(pick)
        a = f(pick, pick)
        remaining = _independent(field, [
            vsub(w, vscale(f(pick, w) / a, pick))
            for w in remaining
            if w is not pick
        ])

    if remaining:
        # alternating remainder (characteristic 2 only)
        if not diag:
            raise AlternatingForm("form is alternating; no orthogonal basis")
        pairs = _symplectic_pairs(form, remaining)
        v = diag.pop()
        for e, fv in pairs:
            a = f(v, v)
            v1 = vadd(v, e)
            v2 = vadd(v, vscale(a, fv))
            v3 = vadd(v1, vscale(a, fv))
            diag.extend([v1, v2])
            v = v3
        diag.append(v)

    _check_diagonal(form, diag)
    return tuple(form.ambient(c) for c in diag)


def _check_diagonal(form: SymBilinearForm, coord_basis: list[Vector]):
    for i, u in enumerate(coord_basis):
        if not form.eval_coords(u, u):
            raise AlternatingForm("internal: produced a zero diagonal entry")
        for v in coord_basis[i + 1:]:
            if form.eval_coords(u, v):
                raise AlternatingForm("internal: produced a non-orthogonal pair")


def hyperbolic_basis_alternating(form: SymBilinearForm) -> tuple[tuple[Vector, Vector], ...]:
    """Symplectic Gram-Schmidt: pairs (u_i, v_i) with f(u_i, v_i) = 1,
    f(v_i, u_i) = -1, and all other pairings zero."""
    if not form.is_alternating():
        raise NotAlternating("form is not alternating")
    if not form.is_nondegenerate():
        raise Degenerate("form is degenerate")
    coords = [unit_vector(form.field, form.dim, i) for i in range(form.dim)]
    pairs = _symplectic_pairs(form, coords)
    return tuple((form.ambient(u), form.ambient(v)) for u, v in pairs)


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

    field = space.field
    bx = vec_mat(x, space.gram)  # bx[j] = b(x, e_j)
    bw = vec_mat(w, space.gram)

    sys_y = Matrix(field, [bx, bw])
    y = sys_y.solve((field.one, field.zero))
    if y is None:
        raise NotExtendable("cannot solve for the first partner vector")
    y = vsub(y, vscale(space.eval_q(y), x))  # fix q(y) = 0; keeps pairings

    by = vec_mat(y, space.gram)
    sys_z = Matrix(field, [bx, bw, by])
    z = sys_z.solve((field.zero, field.one, field.zero))
    if z is None:
        raise NotExtendable("cannot solve for the second partner vector")
    z = vsub(z, vscale(space.eval_q(z), w))  # fix q(z) = 0

    for v in (x, y, w, z):
        if space.eval_q(v):
            raise NotExtendable("space is not hyperbolic on the constructed basis")
    return (x, y, w, z)
