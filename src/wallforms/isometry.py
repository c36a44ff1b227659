"""Elements of the orthogonal group O(V, q).

An :class:`Isometry` wraps an invertible matrix M (columns are the images
of the basis vectors) and is validated at construction: M preserves q
exactly iff N = M^T Q M - Q satisfies N + N^T = 0 and diag(N) = 0.

Constructions: reflections along anisotropic vectors and Eichler
transformations from an isotropic vector and an orthogonal partner.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .errors import (
    DimensionMismatch,
    IsotropicVector,
    NotAnIsometry,
    NotInvariant,
    NotRegular,
    PreconditionError,
)
from .fields import Field, FieldElement
from .linalg import Matrix, Vector, _kernel, mat_vec, vec_mat
from .quadspace import QuadraticSpace, Subspace, _same_space


def _isometry_defect_witness(space: QuadraticSpace, mat: Matrix) -> Vector | None:
    """A vector x with q(Mx) != q(x), or None if M preserves q.  The
    diagonal of N and N + N^T are read on payload rows; only the witness
    is boxed."""
    n, kernel = space.dim, _kernel(space.field)
    defect = mat.transpose() * space.qmat * mat - space.qmat
    rows, zero = defect.payload_rows, kernel.zero
    for i in range(n):
        if rows[i][i] != zero:
            return space.basis_vector(i)
    sym = (defect + defect.transpose()).payload_rows
    ident = Matrix.identity(space.field, n).payload_rows
    for i in range(n):
        for j in range(i + 1, n):
            if sym[i][j] != zero:
                return space.field.wrap_all(kernel.add_rows(ident[i], ident[j]))
    return None


T = TypeVar("T")


def _once(method):
    """An argument-free method of Isometry, computed once per isometry."""
    name = method.__name__

    @functools.wraps(method)
    def once(self):
        return self.derived(name, method)
    return once


@dataclass(frozen=True)
class Isometry:
    """Immutable; what is derived from the matrix alone (the displacement,
    the fixed and residual spaces, the parts of the Wall form and of the
    induced involution) is computed on first use and kept with the
    isometry."""

    space: QuadraticSpace
    mat: Matrix
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mat.shape != (self.space.dim, self.space.dim):
            raise DimensionMismatch("matrix shape does not match the space")
        witness = _isometry_defect_witness(self.space, self.mat)
        if witness is not None:
            raise NotAnIsometry(
                "matrix does not preserve the quadratic form", witness=witness
            )

    @classmethod
    def _trusted(cls, space: QuadraticSpace, mat: Matrix) -> "Isometry":
        """An isometry on a matrix already proven to preserve q; no check."""
        self = object.__new__(cls)
        self.__dict__.update(space=space, mat=mat, _memo={})
        return self

    def derived(self, key: str, compute: Callable[["Isometry"], T]) -> T:
        """`compute(self)`, computed on the first call with `key` only.  The
        value must not refer back to the isometry: a reference cycle would
        leave every isometry to the cyclic garbage collector."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(self)
            return value

    def apply(self, v: Vector) -> Vector:
        return mat_vec(self.mat, v)

    def __mul__(self, other: "Isometry") -> "Isometry":
        if not isinstance(other, Isometry):
            return NotImplemented
        _same_space(self.space, other.space, "isometries")
        return Isometry(self.space, self.mat * other.mat)

    def inverse(self) -> "Isometry":
        return Isometry(self.space, self.mat.inverse())

    def is_identity(self) -> bool:
        return self.mat == Matrix.identity(self.space.field, self.space.dim)

    @_once
    def is_involution(self) -> bool:
        return (self.mat * self.mat) == Matrix.identity(self.space.field, self.space.dim)

    @_once
    def displacement(self) -> Matrix:
        """M - I; its kernel is the fixed space, its image the residual space."""
        return self.mat - Matrix.identity(self.space.field, self.space.dim)

    @_once
    def fixed_space(self) -> Subspace:
        return Subspace.span(self.space, self.displacement().null_space())

    @_once
    def residual_space(self) -> Subspace:
        return Subspace.span(self.space, self.displacement().transpose())

    @_once
    def unipotency_index(self) -> int | None:
        """Least k with (M - I)^k = 0, or None if M - I is not nilpotent.
        The identity gets index 0 by convention.  The nonzero powers of a
        nilpotent M - I fall in rank by at least one a step, so its index is
        at most rank(M - I) + 1, and no higher power is formed."""
        delta = self.displacement()
        if delta.is_zero():
            return 0
        power = delta
        for k in range(2, delta.rank() + 2):
            power = power * delta
            if power.is_zero():
                return k
        return None

    @_once
    def is_unipotent2(self) -> bool:
        """(M - I)^2 = 0; includes the identity."""
        delta = self.displacement()
        return (delta * delta).is_zero()

    def is_interchange(self) -> bool:
        """4-dimensional with a 2-dimensional totally isotropic fixed space."""
        if self.space.dim != 4:
            return False
        k = self.fixed_space()
        return k.dim == 2 and k.is_totally_isotropic()

    def restrict(self, sub: Subspace) -> "Isometry":
        """Restriction to an invariant regular subspace, as an isometry of the
        subspace with the form written in the coordinates of its RREF basis:
        the images' entries at the pivots, if they give the images back."""
        _same_space(self.space, sub.space, "an isometry and a subspace")
        if not sub.is_regular():
            raise NotRegular("restriction requires a regular subspace")
        basis = sub.basis
        images = basis * self.mat.transpose()  # row i: the image of basis row i
        pivots = basis.rref()[1]
        coords = Matrix._trusted(self.space.field, tuple(
            tuple(r[p] for p in pivots) for r in images.payload_rows), sub.dim)
        if coords * basis != images:
            raise NotInvariant("subspace is not invariant under the isometry")
        sub_q = basis * self.space.qmat * basis.transpose()
        sub_space = QuadraticSpace.from_q_upper(self.space.field, sub_q)
        return Isometry(sub_space, coords.transpose())

    def __repr__(self):
        return f"Isometry({self.mat!r})"


def identity_isometry(space: QuadraticSpace) -> Isometry:
    return Isometry(space, Matrix.identity(space.field, space.dim))


def make_isometry(space: QuadraticSpace, rows) -> Isometry:
    """Validate and wrap a matrix given as rows of field elements or ints."""
    if rows and rows[0] and isinstance(rows[0][0], FieldElement):
        mat = Matrix(space.field, rows)
    else:
        mat = Matrix.from_ints(space.field, rows)
    return Isometry(space, mat)


def reflection(space: QuadraticSpace, u: Vector) -> Isometry:
    """The orthogonal reflection along u, x -> x - (b(u, x) / q(u)) u:
    M = I - u (B u)^T / q(u)."""
    qu = space.eval_q(u)
    if not qu:
        raise IsotropicVector("reflection requires q(u) != 0")
    field = space.field
    bu = Matrix(field, [vec_mat(u, space.gram)])
    shear = Matrix(field, [u]).transpose() * bu.scale(-field.one / qu)
    return Isometry(space, Matrix.identity(field, space.dim) + shear)


def eichler(space: QuadraticSpace, x: Vector, w: Vector) -> Isometry:
    """The Eichler transformation for isotropic x and w orthogonal to x,
    v -> v + b(v, x) w - b(v, w) x - q(w) b(v, x) x:
    M = I + w (B x)^T - x (B w + q(w) B x)^T."""
    if space.eval_q(x):
        raise PreconditionError("Eichler transformation requires q(x) = 0")
    if space.eval_b(x, w):
        raise PreconditionError("Eichler transformation requires b(x, w) = 0")
    field = space.field
    # (x, w) C has the columns w - q(w) x and -x
    c = Matrix(field, [[-space.eval_q(w), -field.one], [field.one, field.zero]])
    xw = Matrix(field, [x, w])
    shear = xw.transpose() * c * (xw * space.gram)
    return Isometry(space, Matrix.identity(field, space.dim) + shear)


# ---------------------------------------------------------------------------
# spinor norms of reflection words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SquareClass:
    """A nonzero field element up to multiplication by nonzero squares."""

    field: Field
    rep: FieldElement

    def __post_init__(self):
        if not self.rep:
            raise PreconditionError("square classes live in F^x")

    def is_trivial(self) -> bool:
        return self.field.is_square(self.rep)

    def __eq__(self, other):
        if not isinstance(other, SquareClass):
            return NotImplemented
        if self.field != other.field:
            return False
        return self.field.is_square(self.rep / other.rep)

    def __hash__(self):
        # classes over these fields cannot be hashed canonically in general
        return hash(self.field)

    def __repr__(self):
        return f"SquareClass({self.rep})"


@dataclass(frozen=True)
class ReflectionWord:
    """A product of reflections, recorded by its anisotropic factor vectors."""

    space: QuadraticSpace
    factors: tuple[Vector, ...]

    def __post_init__(self):
        if not all(self._q_values()):
            raise IsotropicVector("reflection word factors must be anisotropic")

    def _q_values(self) -> tuple[FieldElement, ...]:
        return self.space.q_values(Matrix(self.space.field, self.factors, ncols=self.space.dim))

    def isometry(self) -> Isometry:
        out = identity_isometry(self.space)
        for u in self.factors:
            out = out * reflection(self.space, u)
        return out

    def spinor_norm(self) -> SquareClass:
        """The class of the product of the q-values of the factors."""
        acc = self.space.field.one
        for qu in self._q_values():
            acc = acc * qu
        return SquareClass(self.space.field, acc)


def spinor_norm_word(word: ReflectionWord) -> SquareClass:
    return word.spinor_norm()
