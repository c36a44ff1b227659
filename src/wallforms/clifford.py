"""Clifford algebras of characteristic-2 quadratic spaces with involution.

The algebra C(q) of an n-dimensional space has dimension 2^n with basis
indexed by subsets of the generators e_1..e_n (products in increasing
index order, encoded as bitmasks).  The generator relations are

    e_i^2 = q(e_i),        e_j e_i = e_i e_j + b(e_i, e_j)   (i < j),

with no signs because the characteristic is 2.  An orthogonal involution
t of the space induces an algebra involution J with J(v) = t(v) on
vectors, extended anti-multiplicatively to products.

Arithmetic runs on field payloads, as in ``linalg``: an element maps
blades to the payloads of its nonzero coefficients, and products read a
per-algebra structure table (the payload expansion of every blade
product e_s e_t, filled lazily from :meth:`CliffordAlgebra.blade_mul`).
Two views of that table are built on first use and kept on the algebra:
the commutator table (the maps x -> e_i x - x e_i, one row per generator,
whose products with vector coordinates give centralizers) and the sparse structure constants
of all blade pairs (for the multiplicativity check of a matrix model).
Field elements are made only at the API boundary.  Constructors reject a
coefficient of another field (DescriptorMismatch) and a blade or vector
outside the algebra (DimensionMismatch).

On top of the algebra this module computes the invariants of (C(q), J):
the involution type via 1 in Alt = im(id + J), the commutative subalgebra
generated by a residual basis, alternating-generator witnesses, the
multiset of diagonal residual-form values (a bilinear Pfister form datum),
an explicit isomorphism to matrices with the transpose involution over
finite fields, conjugating elements for interchange isometries, and a
tensor-factorization witness.

The matrix model of C(q) alone is built once per algebra and kept on it,
as one uint8 array of blade images: orthogonal planes, each quaternion
algebra split by a closed form, Kronecker products, then n + 1 batched
products.  So are the preimages of the matrix units E_{a,0} under the
model.  Per involution only the transport form and the conjugation are
computed, on payload arrays: the transport form in closed form, from one
product of those preimages with the involution and the model, and the
conjugated images stay the array the batched products made, through the
final checks and in :class:`MatrixIso` (over GF(4) to GF(16) those
products are spread-bit integer products, see ``batched``).  The final
checks over all blades and all 4^n blade pairs (batched products and
gathers of payload arrays) are the model's only relation checks, and they
run for every involution.  The explicit model is this module's only numpy
work: :func:`explicit_matrix_iso`, its helpers and :class:`MatrixIso`
import the batched arithmetic (``batched._batch_arith``), and with it
numpy, when they run, so loading this module loads no numpy.  The
eliminations and products of this module's matrices run on ``linalg``'s
packed rows: bit rows over GF(2), and over GF(2^k), k >= 2, one byte per
payload in rows at least ``linalg.PACKED_WIDTH`` wide.

An algebra has at most MAX_GENERATORS generators: its structure table
holds 4^n entries, so a larger space raises CapExceeded before any table
is allocated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import xor as _xor
from typing import TYPE_CHECKING

from .errors import (
    AlgebraMismatch,
    AlternatingForm,
    CapExceeded,
    CharacteristicNot2,
    CriterionFails,
    DescriptorMismatch,
    DimensionMismatch,
    InvariantViolation,
    NotInterchange,
    NotInvolution,
    NotOrthogonalBasis,
    NotScalarSquare,
    NotSymmetric,
    ResidualNotFixed,
    SingularMatrix,
    UnknownConstruction,
    UnsupportedField,
    ZeroSquare,
)
from .fields import Field, FieldElement, Galois2Field, field_tables
from .linalg import (
    Matrix,
    Vector,
    _augmented,
    _diagonal,
    _kernel,
    _unbox,
    _unbox_one,
    _vec_mat,
    kron,
    stack_rows,
)
from .quadspace import (
    QuadraticSpace,
    Subspace,
    _same_space,
    hyperbolic_basis_alternating,
    orthogonal_basis,
)
from .isometry import Isometry
from .wallform import WallForm, wall_form
from .decompose import Decomposition, decompose, normal_frame

if TYPE_CHECKING:  # the explicit-model functions import numpy when they run
    import numpy as np

# the structure table holds 4^n entries: on a 2-vCPU Xeon, n = 12 answers a
# `clifford` request in about 15 s, and n = 14 ran out of memory after 26 s
MAX_GENERATORS = 13


class CliffordAlgebra:
    """Structure data and multiplication of C(q) in characteristic 2.

    Coefficients are field payloads (see :mod:`fields`): an element stores
    ``{blade: payload}`` and boxes its coefficients as field elements only
    at the API boundary (``coeffs``, ``scalar_part``, ``coeff_vector``).
    Products read a structure table with one entry per blade pair (s, t),
    the payload expansion of e_s e_t, filled on first use from
    :meth:`blade_mul`, the one source of structure constants.  Over GF(2^k)
    products are lookups in the field's product table and sums are XOR;
    over GF(2)(t) they are the field's payload ``mul`` and ``add``.  Table
    entries, the commutator table, the sparse structure constants and the
    kept matrix model are filled idempotently (a racing fill writes an
    equal value), so shared instances are safe for concurrent readers.
    """

    def __init__(self, field: Field, qvals, bmat: Matrix, space: QuadraticSpace | None = None):
        if field.characteristic() != 2:
            raise CharacteristicNot2("Clifford algebras are built in characteristic 2 only")
        self.field = field
        self.qvals = tuple(qvals)
        self.n = len(self.qvals)
        if self.n > MAX_GENERATORS:
            raise CapExceeded(f"{self.n} generators exceed cap {MAX_GENERATORS}")
        if bmat.field != field:
            raise DescriptorMismatch(f"polar form over {bmat.field} for an algebra over {field}")
        if bmat.shape != (self.n, self.n):
            raise DimensionMismatch(f"polar form of shape {bmat.shape} for {self.n} generators")
        self.bmat = bmat
        self.space = space
        self.dim = 1 << self.n
        self._q = _unbox(field, self.qvals)
        self._zero, self._one = field.zero.payload, field.one.payload
        # payload arithmetic: product-table rows over GF(2^k), field ops otherwise
        self._tab = field_tables(field).mul if isinstance(field, Galois2Field) else None
        self._add = _xor if self._tab is not None else field.add
        self._mul = _kernel(field).mul
        self._push_memo: dict[tuple[int, int], dict[int, object]] = {}
        self._table: list[tuple | None] = [None] * (self.dim * self.dim)
        self._commutators: list[tuple | None] = [None] * self.n  # see _commutator_row
        self._sparse: tuple[np.ndarray, np.ndarray] | None = None  # see _sparse_structure
        self._model: np.ndarray | None = None  # see _base_model
        self._preimages: np.ndarray | None = None  # see _unit_preimages

    @classmethod
    def from_space(cls, space: QuadraticSpace) -> "CliffordAlgebra":
        qvals = [space.qmat[i, i] for i in range(space.dim)]  # q(e_i) = Q_ii
        return cls(space.field, qvals, space.gram, space)

    # -- blade multiplication -------------------------------------------------

    def _push(self, blade: int, i: int) -> dict[int, object]:
        """Payload expansion of e_blade * e_i as a combination of blades."""
        key = (blade, i)
        cached = self._push_memo.get(key)
        if cached is not None:
            return cached
        bit = 1 << i
        zero = self._zero
        if blade == 0 or blade.bit_length() - 1 < i:
            out = {blade | bit: self._one}
        else:
            j = blade.bit_length() - 1
            rest = blade ^ (1 << j)
            if j == i:
                out = {rest: self._q[i]} if self._q[i] != zero else {}
            else:
                # e_rest e_j e_i = e_rest e_i e_j + b_ij e_rest
                out = {}
                bij = self.bmat.payload_rows[i][j]
                if bij != zero:
                    out[rest] = bij
                # bits of products of e_rest * e_i stay below j
                add = self._add
                for b2, c2 in self._push(rest, i).items():
                    target = b2 | (1 << j)
                    prev = out.get(target)
                    val = c2 if prev is None else add(prev, c2)
                    if val != zero:
                        out[target] = val
                    else:
                        del out[target]
        self._push_memo[key] = out
        return out

    def blade_mul(self, s: int, t: int) -> dict[int, FieldElement]:
        """The structure constants of e_s e_t: its nonzero coefficients by
        blade."""
        if not (0 <= s < self.dim and 0 <= t < self.dim):
            raise DimensionMismatch(f"blades {s}, {t} outside an algebra of dimension {self.dim}")
        add, mul, zero = self._add, self._mul, self._zero
        terms = {s: self._one}
        rest = t
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest ^= 1 << i
            new: dict[int, object] = {}
            for blade, c in terms.items():
                for b2, c2 in self._push(blade, i).items():
                    val = mul(c, c2)
                    prev = new.get(b2)
                    new[b2] = val if prev is None else add(prev, val)
            terms = {b: c for b, c in new.items() if c != zero}
        wrap = self.field.wrap
        return {b: wrap(c) for b, c in terms.items()}

    def _terms(self, s: int, t: int) -> tuple:
        """The structure-table entry of (s, t): ((blade, payload), ...)."""
        terms = self._table[s * self.dim + t]
        if terms is None:
            terms = self._table[s * self.dim + t] = tuple(
                (b, c.payload) for b, c in self.blade_mul(s, t).items())
        return terms

    def _commutator_row(self, i: int) -> tuple:
        """Row i of the commutator table: the matrix of x -> e_i x - x e_i,
        flattened row by row, as its nonzero entries (b * 2^n + t, c), c
        the coefficient of e_b in e_i e_t + e_t e_i (characteristic 2).
        Read from the structure table, filled on first use and kept, so a
        row costs only the table entries it reads."""
        row = self._commutators[i]
        if row is None:
            dim, add, zero, terms_of = self.dim, self._add, self._zero, self._terms
            entries: dict[int, object] = {}
            for t in range(dim):
                for b, c in terms_of(1 << i, t) + terms_of(t, 1 << i):
                    prev = entries.get(b * dim + t)
                    entries[b * dim + t] = c if prev is None else add(prev, c)
            row = self._commutators[i] = tuple((k, c) for k, c in entries.items() if c != zero)
        return row

    def _centralizer_matrix(self, coords) -> Matrix:
        """The maps x -> v x - x v of the vectors v with payload coordinate
        rows `coords`, stacked: its kernel is their centralizer.  One
        product of the coordinates with the commutator table, over the
        table's nonzero entries."""
        dim, add, mul, zero = self.dim, self._add, self._mul, self._zero
        rows = []
        for u in coords:
            flat = [zero] * (dim * dim)
            for i, c in enumerate(u):
                if c != zero:
                    for k, v in self._commutator_row(i):
                        flat[k] = add(flat[k], mul(c, v))
            rows.extend(tuple(flat[k:k + dim]) for k in range(0, dim * dim, dim))
        return Matrix._trusted(self.field, tuple(rows), dim)

    # -- element constructors -------------------------------------------------

    def element(self, coeffs: dict[int, FieldElement]) -> "CliffordElement":
        """The element with coefficients ``{blade: FieldElement}``."""
        return CliffordElement(self, coeffs)

    def zero(self) -> "CliffordElement":
        return _element(self, {})

    def scalar(self, c: FieldElement) -> "CliffordElement":
        return self.element({0: c})

    def one(self) -> "CliffordElement":
        return _element(self, {0: self._one})

    def basis_blade(self, s: int) -> "CliffordElement":
        self._check_blade(s)
        return _element(self, {s: self._one})

    def vector(self, v: Vector) -> "CliffordElement":
        """The element sum v_i e_i; DimensionMismatch unless v has one entry
        per generator, DescriptorMismatch for an entry of another field."""
        if len(v) != self.n:
            raise DimensionMismatch(f"vector of length {len(v)} for {self.n} generators")
        return self._vector(_unbox(self.field, v))

    def _vector(self, row) -> "CliffordElement":
        """:meth:`vector` of a payload row of canonical payloads, unchecked."""
        zero = self._zero
        return _element(self, {1 << i: c for i, c in enumerate(row) if c != zero})

    def _check_blade(self, b) -> None:
        if type(b) is not int or not 0 <= b < self.dim:
            raise DimensionMismatch(f"{b!r} is not a blade of an algebra of dimension {self.dim}")

    def _unbox_coeffs(self, coeffs) -> dict:
        """The nonzero payloads of a ``{blade: FieldElement}`` map."""
        out = {}
        for b, c in coeffs.items():
            self._check_blade(b)
            c = _unbox_one(self.field, c)
            if c != self._zero:
                out[b] = c
        return out

    # -- arithmetic ------------------------------------------------------------

    def mul(self, a: "CliffordElement", b: "CliffordElement") -> "CliffordElement":
        if a.algebra is not self or b.algebra is not self:
            raise AlgebraMismatch("elements of different algebras")
        table, dim, terms_of = self._table, self.dim, self._terms
        out: dict[int, object] = {}
        get = out.get
        tab = self._tab
        if tab is not None:
            for s, ca in a.payloads.items():
                row, tab_a = s * dim, tab[ca]
                for t, cb in b.payloads.items():
                    terms = table[row + t]
                    if terms is None:
                        terms = terms_of(s, t)
                    c = tab_a[cb]
                    if c == 1:
                        for blade, k in terms:
                            out[blade] = get(blade, 0) ^ k
                    else:
                        tab_c = tab[c]
                        for blade, k in terms:
                            out[blade] = get(blade, 0) ^ tab_c[k]
            return _element(self, {bl: v for bl, v in out.items() if v})
        add, mul, zero = self._add, self._mul, self._zero
        for s, ca in a.payloads.items():
            row = s * dim
            for t, cb in b.payloads.items():
                terms = table[row + t]
                if terms is None:
                    terms = terms_of(s, t)
                c = mul(ca, cb)
                for blade, k in terms:
                    val = mul(c, k)
                    prev = get(blade)
                    out[blade] = val if prev is None else add(prev, val)
        return _element(self, {bl: v for bl, v in out.items() if v != zero})

    def _combine(self, terms) -> "CliffordElement":
        """The sum of c * x over pairs (payload c, element x)."""
        add, mul, zero = self._add, self._mul, self._zero
        out: dict[int, object] = {}
        get = out.get
        for c, x in terms:
            for b, v in x.payloads.items():
                val = mul(c, v)
                prev = get(b)
                out[b] = val if prev is None else add(prev, val)
        return _element(self, {b: v for b, v in out.items() if v != zero})

    def _payload_vector(self, a: "CliffordElement") -> tuple:
        get, zero = a.payloads.get, self._zero
        return tuple([get(b, zero) for b in range(self.dim)])

    def _payload_matrix(self, elements, by_columns: bool = False) -> Matrix:
        """The payload coefficient vectors of `elements` as the rows (or
        the columns) of a matrix."""
        rows = tuple(map(self._payload_vector, elements))
        if by_columns:
            return Matrix._trusted(self.field, tuple(zip(*rows)), len(rows))
        return Matrix._trusted(self.field, rows, self.dim)

    def coeff_vector(self, a: "CliffordElement") -> Vector:
        return self.field.wrap_all(self._payload_vector(a))

    def from_coeff_vector(self, v: Vector) -> "CliffordElement":
        if len(v) != self.dim:
            raise DimensionMismatch(f"{len(v)} coefficients in dimension {self.dim}")
        return self.element(dict(enumerate(v)))

    def _blades(self) -> list["CliffordElement"]:
        return [_element(self, {t: self._one}) for t in range(self.dim)]

    def lmul_matrix(self, a: "CliffordElement") -> Matrix:
        return self._payload_matrix([self.mul(a, e) for e in self._blades()], by_columns=True)

    def rmul_matrix(self, a: "CliffordElement") -> Matrix:
        return self._payload_matrix([self.mul(e, a) for e in self._blades()], by_columns=True)

    def inverse(self, a: "CliffordElement") -> "CliffordElement":
        """The x with a x = 1, solved on payloads."""
        sol = self.lmul_matrix(a).solve_many(self._payload_matrix([self.one()]))
        if sol is None:
            raise SingularMatrix("element is not invertible")
        return _element(self, {b: c for b, c in enumerate(sol.payload_rows[0]) if c != self._zero})

    def center_dimension(self) -> int:
        """Dimension of the center, the centralizer of the generators; 1
        means the algebra is central."""
        return self.dim - self._centralizer_matrix(
            Matrix.identity(self.field, self.n).payload_rows).rank()

    def __repr__(self):
        return f"CliffordAlgebra(n={self.n}, {self.field.literal()})"


@lru_cache(maxsize=None)
def algebra_for_space(space: QuadraticSpace) -> CliffordAlgebra:
    """One shared (and table-memoized) algebra per quadratic space."""
    return CliffordAlgebra.from_space(space)


class CliffordElement:
    """An element of a Clifford algebra: blade bitmasks mapped to the
    payloads of its nonzero coefficients (``payloads``).  ``coeffs`` is the
    same map with the coefficients boxed as field elements."""

    __slots__ = ("algebra", "payloads")

    def __init__(self, algebra: CliffordAlgebra, coeffs: dict[int, FieldElement]):
        """The element with coefficients ``{blade: FieldElement}``, zero
        coefficients dropped; DimensionMismatch for a key that is not a
        blade of `algebra`, DescriptorMismatch for a coefficient that is not
        an element of its field."""
        self.algebra = algebra
        self.payloads = algebra._unbox_coeffs(coeffs)

    @property
    def coeffs(self) -> dict[int, FieldElement]:
        wrap = self.algebra.field.wrap
        return {b: wrap(c) for b, c in self.payloads.items()}

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements of different algebras")
        alg = self.algebra
        add, zero = alg._add, alg._zero
        out = dict(self.payloads)
        for b, c in other.payloads.items():
            prev = out.get(b)
            if prev is None:
                out[b] = c
            else:
                total = add(prev, c)
                if total != zero:
                    out[b] = total
                else:
                    del out[b]
        return _element(alg, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + other  # characteristic 2

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        return self.algebra.mul(self, other)

    def scale(self, c: FieldElement) -> "CliffordElement":
        alg = self.algebra
        c = _unbox_one(alg.field, c)
        if c == alg._zero:
            return alg.zero()
        mul = alg._mul
        return _element(alg, {b: mul(c, v) for b, v in self.payloads.items()})

    def scalar_part(self) -> FieldElement:
        alg = self.algebra
        return alg.field.wrap(self.payloads.get(0, alg._zero))

    def is_scalar(self) -> bool:
        return all(b == 0 for b in self.payloads)

    def is_zero(self) -> bool:
        return not self.payloads

    def __eq__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.algebra is other.algebra and self.payloads == other.payloads

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.payloads.items())))

    def __repr__(self):
        if not self.payloads:
            return "0"
        alg = self.algebra
        fmt = alg.field.format
        parts = []
        for b in sorted(self.payloads):
            name = "1" if b == 0 else "".join(
                f"e{i + 1}" for i in range(alg.n) if b >> i & 1
            )
            c = self.payloads[b]
            parts.append(name if (c == alg._one and b) else
                         (fmt(c) if b == 0 else f"({fmt(c)}){name}"))
        return "+".join(parts)


def _element(algebra: CliffordAlgebra, payloads: dict) -> CliffordElement:
    """The element on a map of blades of `algebra` to nonzero canonical
    payloads (results of the algebra's own arithmetic; not checked)."""
    elt = _new(CliffordElement)
    _set_algebra(elt, algebra)
    _set_payloads(elt, payloads)
    return elt


_new = object.__new__
_set_algebra = CliffordElement.algebra.__set__
_set_payloads = CliffordElement.payloads.__set__


# ---------------------------------------------------------------------------
# the induced involution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraInvolution:
    algebra: CliffordAlgebra
    tau: Isometry
    images: tuple[CliffordElement, ...]  # image of each basis blade
    matrix: Matrix                       # columns are the blade images

    def apply(self, a: CliffordElement) -> CliffordElement:
        if a.algebra is not self.algebra:
            raise AlgebraMismatch("element of another algebra")
        images = self.images
        return self.algebra._combine((c, images[b]) for b, c in a.payloads.items())


def natural_involution(tau: Isometry, algebra: CliffordAlgebra | None = None) -> AlgebraInvolution:
    """The involution J with J(v) = tau(v) on vectors, extended to products
    anti-multiplicatively: J(e_{i1} ... e_{il}) = tau(e_{il}) ... tau(e_{i1}).

    One product per blade: J(e_B) = tau(e_top) J(e_{B - top}) for the top
    generator of B.  The matrix (columns the blade images) must square to
    the identity."""
    space = tau.space
    if space.field.characteristic() != 2:
        raise CharacteristicNot2("the induced involution is built in characteristic 2")
    if not tau.is_involution():
        raise NotInvolution("tau^2 != id")
    alg = algebra if algebra is not None else algebra_for_space(space)
    # one built without a space must have q values and polar form of tau's
    if alg.space is not None:
        _same_space(alg.space, space, "an isometry and an algebra")
    elif alg.bmat != space.gram or alg.qvals != tuple(space.qmat[i, i] for i in range(space.dim)):
        raise DimensionMismatch("an isometry and an algebra of different spaces")
    # the isometry keeps the blade images for the first algebra object it
    # was asked of (not the involution, which refers back to it)
    kept_alg, images, mat = tau.derived(
        "natural_involution", lambda tau: _involution_images(tau, alg))
    if kept_alg is not alg:
        _, images, mat = _involution_images(tau, alg)
    return AlgebraInvolution(alg, tau, images, mat)


def _involution_images(tau: Isometry, alg: CliffordAlgebra):
    """(alg, the image of each blade, the matrix of those images)."""
    tau_vectors = list(map(alg._vector, tau.mat.transpose().payload_rows))  # the columns of M
    images = [alg.one()]
    for blade in range(1, alg.dim):
        top = blade.bit_length() - 1
        images.append(alg.mul(tau_vectors[top], images[blade ^ (1 << top)]))
    mat = alg._payload_matrix(images, by_columns=True)
    if mat * mat != Matrix.identity(alg.field, alg.dim):
        raise InvariantViolation("involution does not square to the identity")
    return alg, tuple(images), mat


def alt_membership(inv: AlgebraInvolution, a: CliffordElement) -> CliffordElement | None:
    """A witness x with a = x + J(x), or None if a is not in Alt."""
    return _alt_witnesses(inv, (a,))[0]


def _alt_witnesses(inv: AlgebraInvolution, elements) -> list[CliffordElement | None]:
    """:func:`alt_membership` of each of `elements`, from one reduced
    row-echelon form of [I + J | the elements as columns].  Its columns
    are reduced left to right, so its first `rank` rows (the pivots in the
    operator's columns) are those of I + J's own elimination, extended by
    the elements' columns.  An element is in Alt iff its column vanishes
    below those rows, and its witness is read from them with the free
    variables zero (the particular solution ``Matrix.solve`` gives).  A
    later pivot lies in the column of an element outside Alt, and its row
    is zero in every member's column, so the reduction past the operator's
    columns moves neither answer."""
    alg = inv.algebra
    dim, zero = alg.dim, alg._zero
    operator = Matrix.identity(alg.field, dim) + inv.matrix
    red, pivots = _augmented(operator, alg._payload_matrix(elements, by_columns=True)).rref()
    rank = sum(pc < dim for pc in pivots)
    rows = red.payload_rows
    witnesses = []
    for col in range(dim, dim + len(elements)):
        if any(row[col] != zero for row in rows[rank:]):
            witnesses.append(None)
        else:
            witnesses.append(_element(alg, {
                pc: rows[r][col] for r, pc in enumerate(pivots[:rank]) if rows[r][col] != zero}))
    return witnesses


def involution_type(inv: AlgebraInvolution) -> str:
    """"symplectic" iff 1 lies in Alt = im(id + J), else "orthogonal"."""
    witness = alt_membership(inv, inv.algebra.one())
    return "symplectic" if witness is not None else "orthogonal"


def sym_alt_dimensions(inv: AlgebraInvolution) -> tuple[int, int]:
    """dim Sym = dim ker(id + J) and dim Alt = rank(id + J), from one
    elimination (they add up to dim C)."""
    alg = inv.algebra
    alt_dim = (Matrix.identity(alg.field, alg.dim) + inv.matrix).rank()
    return alg.dim - alt_dim, alt_dim


# ---------------------------------------------------------------------------
# the commutative residual subalgebra
# ---------------------------------------------------------------------------

def _require_residual_fixed(tau: Isometry) -> WallForm:
    if tau.space.field.characteristic() != 2:
        raise CharacteristicNot2("characteristic 2 required")
    if not tau.is_involution():
        raise NotInvolution("tau^2 != id")
    if tau.residual_space() != tau.fixed_space():
        raise ResidualNotFixed("r(tau) != k(tau)")
    return wall_form(tau)


@dataclass(frozen=True)
class PhiAlgebra:
    """The commutative subalgebra generated by a residual basis: dimension
    2^s, symmetric square-central elements, self-centralizing, and multiplies
    exactly like the Clifford algebra of the restricted (totally singular)
    form."""

    algebra: CliffordAlgebra
    generators: tuple[Vector, ...]
    monomials: tuple[CliffordElement, ...]  # indexed by generator subsets
    generator_squares: tuple[FieldElement, ...]

    @property
    def s(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return 1 << self.s


def phi_subalgebra(tau: Isometry) -> PhiAlgebra:
    wf = _require_residual_fixed(tau)
    alg = algebra_for_space(tau.space)
    residual = tau.residual_space().basis
    gens = list(map(alg._vector, residual.payload_rows))
    s = len(gens)
    monomials = _monomials(alg, gens)
    squares = tau.space._q_payloads(residual)

    # linear independence: dimension 2^s
    coeff_rows = alg._payload_matrix(monomials)
    if coeff_rows.rank() != 1 << s:
        raise InvariantViolation("monomials are not linearly independent")

    # symmetry under the involution
    inv = natural_involution(tau, alg)
    for m in monomials:
        if inv.apply(m) != m:
            raise InvariantViolation("subalgebra is not contained in Sym")

    # self-centralizing: the centralizer of the generators has dimension 2^s
    # and lies in the span of the monomials
    if s:
        centralizer = alg._centralizer_matrix(residual.payload_rows).null_space()
        if centralizer.nrows != 1 << s:
            raise InvariantViolation("subalgebra is not self-centralizing")
        if stack_rows(coeff_rows, centralizer).rank() != 1 << s:
            raise InvariantViolation("centralizer is larger than the subalgebra")

    # multiplication law of C(q|r); it holds only with commuting generators and scalar squares
    for a, b in itertools.product(range(1 << s), repeat=2):
        scalar = reduce(alg._mul, (squares[i] for i in range(s) if (a & b) >> i & 1), alg._one)
        if monomials[a] * monomials[b] != alg._combine([(scalar, monomials[a ^ b])]):
            raise InvariantViolation("subalgebra does not multiply like C(q|r)")

    return PhiAlgebra(alg, tuple(wf.basis), tuple(monomials), alg.field.wrap_all(squares))


def _monomials(alg: CliffordAlgebra, gens) -> list[CliffordElement]:
    """The products of `gens` over every subset, in increasing order,
    indexed by subset bitmask: one product per subset."""
    monomials = [alg.one()]
    for subset in range(1, 1 << len(gens)):
        top = subset.bit_length() - 1
        monomials.append(alg.mul(monomials[subset ^ (1 << top)], gens[top]))
    return monomials


@dataclass(frozen=True)
class AltGeneratorsReport:
    ok: bool
    explicit_witnesses: tuple[CliffordElement, ...]  # per nonempty subset
    solved_witnesses: tuple[CliffordElement, ...]


def alternating_generators_check(tau: Isometry, basis) -> AltGeneratorsReport:
    """Verify that an orthogonal residual basis generates the commutative
    subalgebra by pairwise-commuting square-central units all of whose
    nonempty products lie in Alt(C(q), J); returns Alt-witnesses."""
    wf = _require_residual_fixed(tau)
    space = tau.space
    rows = Matrix(space.field, tuple(basis), ncols=space.dim)  # the argument, unboxed once
    s, carrier = rows.nrows, wf.carrier()
    if Subspace.span(space, rows).basis != carrier.basis or s != wf.s:
        raise NotOrthogonalBasis("vectors do not form a basis of the residual space")
    # the residual form on the basis: C G C^T, C the coordinates (entries at the pivots)
    pivots = carrier.basis.rref()[1]
    coords = Matrix._trusted(space.field, tuple(
        tuple(r[p] for p in pivots) for r in rows.payload_rows), s)
    zero = space.field.zero.payload
    for i, row in enumerate((coords * wf.gram * coords.transpose()).payload_rows):
        if row[i] == zero:
            raise ZeroSquare("residual form vanishes on a basis vector")
        if any(c != zero for c in row[i + 1:]):
            raise NotOrthogonalBasis("basis is not orthogonal for the residual form")

    alg = algebra_for_space(tau.space)
    inv = natural_involution(tau, alg)
    gens = list(map(alg._vector, rows.payload_rows))
    for i in range(s):
        sq = gens[i] * gens[i]
        if not sq.is_scalar() or not sq.scalar_part():
            raise ZeroSquare("generator square is not a nonzero scalar")
        for j in range(i + 1, s):
            if gens[i] * gens[j] != gens[j] * gens[i]:
                raise InvariantViolation("generators do not commute")

    # every preimage from one elimination
    found = tau.displacement().solve_many(rows)
    if found is None:
        raise InvariantViolation("no preimage for a residual vector")
    preimages = list(map(alg._vector, found.payload_rows))

    monomials = _monomials(alg, gens)
    memberships = _alt_witnesses(inv, monomials[1:])
    explicit = []
    solved = []
    ok = True
    for subset in range(1, 1 << s):
        monomial = monomials[subset]
        first = (subset & -subset).bit_length() - 1
        witness = preimages[first] * monomials[subset ^ (1 << first)]
        if witness + inv.apply(witness) != monomial:
            ok = False
        explicit.append(witness)
        general = memberships[subset - 1]
        if general is None:
            ok = False
            general = alg.zero()
        solved.append(general)
    return AltGeneratorsReport(ok, tuple(explicit), tuple(solved))


# ---------------------------------------------------------------------------
# Pfister data and the transpose criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PfisterDescriptor:
    """Generators a_1..a_s of the bilinear form <<a_1, ..., a_s>>, stored
    with their square-class flags.  Equality compares the multisets of the
    generators' square classes (structural equality).  It is not a
    conjugation invariant: over GF(2)(t), <<1, t>> and <<1+t, t(1+t)>> are
    isometric forms with unequal descriptors, so tau and a conjugate
    g tau g^-1 can give unequal descriptors."""

    field: Field
    generators: tuple[FieldElement, ...]
    square_flags: tuple[bool, ...]

    @property
    def fold(self) -> int:
        return len(self.generators)

    def __eq__(self, other):
        if not isinstance(other, PfisterDescriptor):
            return NotImplemented
        if self.field != other.field or self.fold != other.fold:
            return False
        remaining = list(other.generators)
        for g in self.generators:
            match = next(
                (h for h in remaining if self.field.is_square(g / h)), None
            )
            if match is None:
                return False
            remaining.remove(match)
        return True

    def __hash__(self):
        return hash((self.field, self.fold))


def pfister_invariant(tau: Isometry) -> PfisterDescriptor:
    """Alternating residual form: all generators 1.  Nonalternating: the
    diagonal of an orthogonal basis of the residual form."""
    wf = _require_residual_fixed(tau)
    field = tau.space.field
    if wf.is_alternating():
        gens = (field.one,) * wf.s
    else:
        rows, gens = wf.orthogonal_rows()
        # diagonal values coincide with q on the residual space in char 2
        if gens != tau.space.q_values(rows):
            raise InvariantViolation("residual diagonal does not match q")
    return PfisterDescriptor(field, gens, tuple(field.is_square(g) for g in gens))


@dataclass(frozen=True)
class TransposeCriterion:
    holds: bool
    q_values_square: bool          # q(x) in F^2 for x in a residual basis
    wall_diagonal_square: bool     # w(x, x) in F^2 for x in a residual basis
    structure: str                 # "alternating" | "unit-diagonal" | "fails"


def transpose_iso_criterion(tau: Isometry) -> TransposeCriterion:
    """Decide whether (C(q), J) is isomorphic to matrices with transpose.

    Three equivalent tests are evaluated independently and must agree:
    q square-values on a residual basis, residual-form diagonal square
    values, and the structural test (alternating, or diagonalizable with
    all-square entries)."""
    wf = _require_residual_fixed(tau)
    field = tau.space.field
    cond_q = all(map(field.is_square, tau.space.q_values(tau.residual_space().basis)))
    cond_w = all(field.is_square(wf.gram[i, i]) for i in range(wf.s))
    if wf.is_alternating():
        structure = "alternating"
    else:
        diag = wf.orthogonal_basis()[1]
        structure = "unit-diagonal" if all(field.is_square(d) for d in diag) else "fails"
    cond_s = structure != "fails"
    if not (cond_q == cond_w == cond_s):
        raise InvariantViolation("transpose-criterion conditions disagree")
    return TransposeCriterion(cond_q, cond_q, cond_w, structure)


# ---------------------------------------------------------------------------
# explicit matrix isomorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixIso:
    """A verified isomorphism (C(q), J) -> (M_N(F), transpose), stored as the
    matrix image of every basis blade: ``images``, one read-only
    (2^n, N, N) uint8 payload array, boxed by ``blade_images``."""

    algebra: CliffordAlgebra
    size: int
    images: np.ndarray

    def __post_init__(self):
        self.images.flags.writeable = False

    @property
    def blade_images(self) -> tuple[Matrix, ...]:
        from .batched import _array_matrix

        return tuple(_array_matrix(self.algebra.field, img) for img in self.images)

    def apply(self, a: CliffordElement) -> Matrix:
        """The sum of c f(e_b) over the terms c e_b of `a`: one batched
        product of its coefficient row with the flattened images."""
        import numpy as np

        from .batched import _array_matrix, _batch_arith

        alg = self.algebra
        if a.algebra is not alg:
            raise AlgebraMismatch("element of another algebra")
        row = np.array([alg._payload_vector(a)], dtype=np.uint8)
        image = _batch_arith(alg.field).matmul(row, self.images.reshape(alg.dim, -1))
        return _array_matrix(alg.field, image.reshape(self.size, self.size))

    def _key(self):
        return id(self.algebra), self.size, self.images.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, MatrixIso) else NotImplemented

    def __hash__(self):
        return hash(self._key())


def _quaternion_matrices(field: Field, qa: FieldElement, qb: FieldElement) -> tuple[Matrix, Matrix]:
    """Images A, B in M_2(F) of the generators of the quaternion algebra
    a^2 = qa, b^2 = qb, ab + ba = 1, over a finite field of characteristic
    2: A = [[0, qa], [1, 0]] and B = [[s, 1], [0, s]] with s^2 = qb (every
    element of such a field is a square)."""
    z, o, s = field.zero, field.one, field.sqrt(qb)
    return Matrix(field, [[z, qa], [o, z]]), Matrix(field, [[s, o], [z, s]])


def _base_model(alg: CliffordAlgebra) -> np.ndarray:
    """The image of every blade under an isomorphism f of C(q) with the
    matrix algebra M_N(F), N = 2^(n/2), over a finite field of
    characteristic 2, as one (2^n, N, N) uint8 payload array.  It does not
    depend on an involution, so it is built on first use and kept on the
    algebra.

    V splits into orthogonal planes (a_k, b_k) with b(a_k, b_k) = 1, so
    C(q) is the tensor product of the quaternion algebras they generate:
    plane k maps to the Kronecker product of :func:`_quaternion_matrices`
    in factor k with identities in the others.  Then f(e_i) for every i is
    one product with the inverse change of basis, and each blade with top
    generator t is a blade below 2^t times f(e_t), one product per t."""
    if alg._model is not None:
        return alg._model
    import numpy as np

    from .batched import _batch_arith, _payload_stack

    space, field, n = alg.space, alg.field, alg.n
    planes = hyperbolic_basis_alternating(space.gram)  # rows a_1, b_1, a_2, ...
    qvals = space.q_values(planes)  # q(a_1), q(b_1), q(a_2), ...
    ident2 = Matrix.identity(field, 2)
    size = 1 << (n // 2)
    plane_images = []  # f(a_1), f(b_1), f(a_2), ...
    for k in range(n // 2):
        for mat2 in _quaternion_matrices(field, qvals[2 * k], qvals[2 * k + 1]):
            img = Matrix.identity(field, 1)
            for i in range(n // 2):
                img = kron(img, mat2 if i == k else ident2)
            plane_images.append(img)
    model = np.empty((alg.dim, size, size), dtype=np.uint8)
    model[0] = np.eye(size, dtype=np.uint8)
    if n:
        arith = _batch_arith(field)
        f_gen = arith.matmul(_payload_stack(planes.inverse())[0],
                             _payload_stack(*plane_images).reshape(n, size * size))
        for t, image in enumerate(f_gen.reshape(n, size, size)):
            model[1 << t:2 << t] = arith.matmul(model[:1 << t], image)
    alg._model = model
    return model


def _unit_preimages(alg: CliffordAlgebra) -> np.ndarray:
    """U, the (N, 2^n) uint8 array whose row a holds the coefficients of
    f^-1(E_{a,0}) for the base model f (:func:`_base_model`), a = 0..N-1.
    With F the flattened model (row b is f(e_b), read row by row), f^-1
    of a flattened matrix X is X F^-1, and E_{a,0} is the unit vector
    a N, so U is the rows a N of F^-1: the solutions x of x F = E_{a,0},
    one elimination of [F^T | E].  Like the model it does not depend on
    an involution, so it is built on first use and kept on the algebra."""
    if alg._preimages is None:
        from .batched import _array_matrix, _payload_stack

        model = _base_model(alg)
        field, dim, size = alg.field, alg.dim, model.shape[1]
        f_t = _array_matrix(field, model.reshape(dim, size * size).T)
        units = Matrix._trusted(field, Matrix.identity(field, dim).payload_rows[::size], dim)
        rows = f_t.solve_many(units)
        if rows is None:
            raise InvariantViolation("blade images are not linearly independent")
        alg._preimages = _payload_stack(rows)[0]
    return alg._preimages


def explicit_matrix_iso(tau: Isometry) -> MatrixIso:
    """Build and verify an isomorphism of (C(q), J) with the full matrix
    algebra carrying the transpose involution.  Finite fields only.

    The model f of C(q) does not depend on tau and is built once per
    algebra (:func:`_base_model`).  Per tau, the transport form G, with
    G f(J(e_i)) = f(e_i)^T G for every generator, is read off in closed
    form (Skolem-Noether): X -> f(J(f^-1(X)))^T is an automorphism of
    M_N(F), hence X -> W X W^-1 for an invertible W, and the matrices
    X_a = f(J(f^-1(E_{a,0}))) = W^-T E_{0,a} W^T, one product of the
    kept preimages U (:func:`_unit_preimages`) with J and the model, have
    row b equal to (W^-1)_{0,b} times row a of W^T.  So the matrix whose
    row a is row b of X_a is a multiple of W^T, the solution of the
    transport equations, for the first b that makes it nonzero.  Those
    solutions form a line, the kernel of the linear system the equations
    make in the entries of G (read row by row).  Its canonical kernel
    vector has 1 at the system's one free column and 0 after it, so it is
    the multiple whose last nonzero entry is 1, and G is scaled to that.
    G must be invertible, satisfy the equations and be symmetric; then
    G = H^T H, and every blade image is conjugated by H.
    The final checks of :func:`_verify_matrix_iso`, over all blades and
    all 4^n blade pairs, run on every call and are the only relation
    checks of the model: the pair (e_i, e_i) gives f(e_i)^2 = q(e_i) I,
    and the pairs (e_i, e_j) and (e_j, e_i) give the polar relation."""
    import numpy as np

    from .batched import _array_matrix, _batch_arith, _payload_stack

    space = tau.space
    field = space.field
    criterion = transpose_iso_criterion(tau)
    if not criterion.holds:
        raise CriterionFails("the transpose criterion fails for this involution")
    if not isinstance(field, Galois2Field):
        raise UnsupportedField("explicit matrix models are built over finite fields only")

    alg = algebra_for_space(space)
    inv = natural_involution(tau, alg)
    model = _base_model(alg)
    size = model.shape[1]
    flat = model.reshape(alg.dim, size * size)
    arith = _batch_arith(field)

    # row b of J^T holds the coefficients of J(e_b); xs[a] is X_a
    j_rows = _payload_stack(inv.matrix)[0].T
    xs = arith.matmul(arith.matmul(_unit_preimages(alg), j_rows), flat).reshape(size, size, size)
    gram = xs[:, int(xs.any(axis=(0, 2)).argmax()), :]
    g_mat = _array_matrix(field, gram)
    if g_mat.rank() != size:
        raise InvariantViolation("no invertible transport form found")
    # scaled so that its last nonzero entry, read row by row, is 1
    scale = arith.inv[gram.reshape(-1)[np.flatnonzero(gram)[-1]]]
    gram, g_mat = arith.mul(scale, gram), g_mat.scale(field.wrap(int(scale)))
    generators = [1 << i for i in range(alg.n)]
    f_j_gen = arith.matmul(j_rows[generators], flat).reshape(alg.n, size, size)
    if not np.array_equal(arith.matmul(gram, f_j_gen),
                          arith.matmul(model[generators].transpose(0, 2, 1), gram)):
        raise InvariantViolation("transport form does not carry J to transpose on the generators")
    if not g_mat.is_symmetric():
        raise InvariantViolation("transport form is not symmetric")
    try:
        p_mat, diag = orthogonal_basis(g_mat)  # P G P^T = diag(d)
    except AlternatingForm:
        raise InvariantViolation("transport form is alternating despite the criterion")
    # H = diag(sqrt d) (P^T)^-1 has H^T H = P^-1 diag(d) P^-T = G,
    # and H^-1 = P^T diag(sqrt d)^-1
    roots = tuple(field.sqrt(d).payload for d in diag)
    p_t = p_mat.transpose()
    h_mat = _diagonal(field, roots) * p_t.inverse()
    h_inv = p_t * _diagonal(field, tuple(map(_kernel(field).inv, roots)))
    # conjugate every blade image by H, as two batched products
    h_arr, h_inv_arr = _payload_stack(h_mat, h_inv)
    conj = arith.matmul(arith.matmul(h_arr, model), h_inv_arr).astype(np.uint8, copy=False)
    _verify_matrix_iso(alg, j_rows, conj)
    return MatrixIso(alg, size, conj)


PAIR_BATCH = 1 << 22  # payload bytes gathered per batch of the multiplicativity check


def _verify_matrix_iso(alg: CliffordAlgebra, j_rows: np.ndarray, imgs: np.ndarray) -> None:
    """The final checks of an explicit model f of (C(q), J), given J^T as
    the (2^n, 2^n) uint8 array `j_rows` (row b the coefficients of J(e_b))
    and f as the (2^n, N, N) uint8 array of its blade images, each over
    every blade: the blade images are linearly independent, f(J(e_b)) is
    f(e_b)^T for every blade b, and f(e_s e_t) = f(e_s) f(e_t) for all 4^n
    pairs (s, t).  The last two are batched exact products and gathers: J^T
    times the flattened images, and every pairwise product of images
    against the image of e_s e_t, summed from its sparse structure
    constants (:func:`_pair_images`)."""
    import numpy as np

    from .batched import _array_matrix, _batch_arith

    size, field, dim = imgs.shape[1], alg.field, alg.dim
    flat = imgs.reshape(dim, size * size)
    if _array_matrix(field, flat).rank() != dim:
        raise InvariantViolation("blade images are not linearly independent")
    arith = _batch_arith(field)
    if not np.array_equal(arith.matmul(j_rows, flat),
                          imgs.transpose(0, 2, 1).reshape(dim, size * size)):
        raise InvariantViolation("isomorphism does not carry J to transpose")
    terms = len(_sparse_structure(alg)[0])
    step = max(1, PAIR_BATCH * dim // (terms * size * size))  # rows s per batch
    for lo in range(0, dim, step):
        hi = min(lo + step, dim)
        products = arith.matmul(imgs[lo:hi, None], imgs[None, :])
        if not np.array_equal(products.reshape(-1, size * size), _pair_images(alg, flat, lo, hi)):
            raise InvariantViolation("isomorphism is not multiplicative")


def _pair_images(alg: CliffordAlgebra, flat: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The images f(e_s e_t) for s in [lo, hi) and every t, one row per
    pair in order, from the flattened blade images `flat` of a model over
    GF(2^k): the terms c f(e_b) of all pairs are one gather from the
    images scaled by every field element (row c * 2^n + b is c f(e_b)),
    XOR-summed per pair.  The sum of payloads is their bytewise XOR, so
    the rows are summed as words of up to 8 payload bytes."""
    import numpy as np

    from .batched import _batch_arith

    codes, starts = _sparse_structure(alg)
    arith = _batch_arith(alg.field)
    dim, width = alg.dim, flat.shape[1]
    scaled = arith.mul(np.arange(arith.order)[:, None, None], flat).reshape(-1, width)
    words = scaled.view(f"u{math.gcd(width, 8)}")
    first, last = starts[lo * dim], starts[hi * dim]
    return np.bitwise_xor.reduceat(words[codes[first:last]], starts[lo * dim:hi * dim] - first,
                                   axis=0).view(np.uint8)


def _sparse_structure(alg: CliffordAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero structure constants of every blade pair of an algebra
    over GF(2^k), read from its structure table, built on first use and
    kept: codes c * 2^n + b for the terms c e_b of e_s e_t, pair by pair,
    and where each pair's terms start, 4^n + 1 offsets.  A pair whose
    product is 0 holds the one code 0 (coefficient 0), since ``reduceat``
    reads an empty segment as the entry after it."""
    if alg._sparse is None:
        import numpy as np

        dim = alg.dim
        codes, starts = [], []
        for s in range(dim):
            for t in range(dim):
                starts.append(len(codes))
                codes.extend([c * dim + b for b, c in alg._terms(s, t)] or [0])
        starts.append(len(codes))
        alg._sparse = (np.array(codes, dtype=np.intp), np.array(starts, dtype=np.intp))
    return alg._sparse


# ---------------------------------------------------------------------------
# conjugating elements of interchange isometries
# ---------------------------------------------------------------------------

def goldman_element(tau: Isometry, construction: str = "frame") -> CliffordElement:
    """An invertible g in C(q) whose inner automorphism restricts to the
    interchange isometry on vectors.

    ``construction="frame"`` uses g = 1 + w x from a normalized frame
    (x, y, w, z); ``construction="swap-plane"`` derives g from a regular
    plane that tau swaps with its orthogonal complement, as
    g = 1 + (u1 + tau(u1)) (v1 + tau(v1)).  Both are verified to conjugate
    correctly before being returned.

    Either way g = 1 + ab with a and b in the residual space of tau.  For
    an interchange isometry that is the fixed space, on which q and b
    vanish: b(a, b) = 0 gives ba = ab, so (ab)^2 = a^2 b^2 = q(a) q(b) = 0
    and g^2 = 1 + 2ab = 1 in characteristic 2.  So g is its own inverse:
    g^2 = 1 is checked, and g e_i g = tau(e_i) then verifies the
    conjugation.
    """
    if construction not in ("frame", "swap-plane"):
        raise UnknownConstruction(
            f"unknown construction {construction!r}; known: 'frame', 'swap-plane'")
    if not tau.is_interchange():
        raise NotInterchange("a 4-dimensional interchange isometry is required")
    space = tau.space
    if space.field.characteristic() != 2:
        raise CharacteristicNot2("conjugating elements are built in characteristic 2")
    alg = algebra_for_space(space)
    x, y, w, z = normal_frame(tau).payload_rows
    if construction == "frame":
        g = alg.one() + alg._vector(w) * alg._vector(x)
    else:
        # rows u1 = y and v1 = x + z; in characteristic 2, u + tau(u) = (tau - 1) u
        pair = Matrix._trusted(space.field, (y, _kernel(space.field).add_rows(x, z)), space.dim)
        _check_swap_plane(tau, pair)
        du, dv = map(alg._vector, (pair * tau.displacement().transpose()).payload_rows)
        g = alg.one() + du * dv
    if g * g != alg.one():
        raise InvariantViolation("conjugating element does not square to 1")
    # g e_i g^-1 = g e_i g = tau(e_i), column i of M, for every basis vector e_i
    for i, image in enumerate(tau.mat.transpose().payload_rows):
        if g * alg.basis_blade(1 << i) * g != alg._vector(image):
            raise InvariantViolation("conjugation does not reproduce the isometry")
    return g


def _check_swap_plane(tau: Isometry, pair: Matrix):
    """The rows (u1, v1) of `pair` must span a regular plane with
    b(u1, v1) = 1, and tau must swap it with its orthogonal complement."""
    space, kernel = tau.space, _kernel(tau.space.field)
    u1, v1 = pair.payload_rows
    if kernel.dot(_vec_mat(space.field, u1, space.gram), v1) != kernel.one:
        raise InvariantViolation("swap plane basis is not unimodular")
    plane = Subspace.span(space, pair)
    image = Subspace.span(space, pair * tau.mat.transpose())
    if plane.dim != 2 or not plane.is_regular():
        raise InvariantViolation("swap plane is not a regular plane")
    if plane.intersection(image).dim != 0:
        raise InvariantViolation("swap plane meets its image")
    if not (plane.basis * space.gram * image.basis.transpose()).is_zero():
        raise InvariantViolation("swap plane is not orthogonal to its image")
    if plane.subspace_sum(image).dim != space.dim:
        raise InvariantViolation("swap plane and its image do not fill the space")


# ---------------------------------------------------------------------------
# tensor factorization witness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorFactor:
    kind: str  # "identity-plane" | "reflection" | "interchange"
    vectors: tuple[Vector, ...]


@dataclass(frozen=True)
class TensorWitness:
    factors: tuple[TensorFactor, ...]
    decomposition: Decomposition


def tensor_decomposition_witness(tau: Isometry) -> TensorWitness:
    """Split C(q) into commuting factor subalgebras attached to the summands
    of the isometry decomposition (the identity part further split into
    regular planes), and verify that their ordered products form a basis
    compatible with the involution."""
    space = tau.space
    if space.field.characteristic() != 2:
        raise CharacteristicNot2("characteristic 2 required")
    if not tau.is_involution():
        raise NotInvolution("tau^2 != id")
    alg = algebra_for_space(space)
    inv = natural_involution(tau, alg)
    dec = decompose(tau)

    # each factor's frame: the identity part's hyperbolic planes, then the blocks'
    w_sub = dec.fixed_complement
    planes = hyperbolic_basis_alternating(w_sub.gram_matrix()) * w_sub.basis
    field = space.field
    frames = [("identity-plane", Matrix._trusted(field, planes.payload_rows[k:k + 2], space.dim))
              for k in range(0, planes.nrows, 2)] + [(blk.kind, blk.frame) for blk in dec.blocks]
    gens = [list(map(alg._vector, frame.payload_rows)) for _, frame in frames]

    # cross-factor generators must be orthogonal (hence commute in C(q)):
    # one Gram product, zero wherever its row and column lie in distinct factors
    owner = [k for k, g in enumerate(gens) for _ in g]
    p, zero = stack_rows(planes, *(blk.frame for blk in dec.blocks)), field.zero.payload
    for i, row in enumerate((p * space.gram * p.transpose()).payload_rows):
        if any(c != zero for j, c in enumerate(row) if owner[j] != owner[i]):
            raise InvariantViolation("factors are not orthogonal")
    for g1, g2 in itertools.combinations(gens, 2):
        if any(a * b != b * a for a in g1 for b in g2):
            raise InvariantViolation("factor generators do not commute")

    # ordered products of factor blades give a basis compatible with J
    products: list[tuple[CliffordElement, tuple[CliffordElement, ...]]] = [(alg.one(), ())]
    for blades in (_monomials(alg, g) for g in gens):
        products = [(p * b, parts + (b,)) for p, parts in products for b in blades]
    coeffs = alg._payload_matrix([p for p, _ in products])
    if coeffs.rank() != alg.dim:
        raise InvariantViolation("tensor products do not span the algebra")

    # J acts factorwise: J(prod parts) equals the product of J(part) because
    # distinct factors commute and each factor is invariant
    for p, parts in products:
        rhs = alg.one()
        for part in parts:
            rhs = rhs * inv.apply(part)
        if inv.apply(p) != rhs:
            raise InvariantViolation("involution is not compatible with the factors")

    return TensorWitness(tuple(TensorFactor(kind, frame.rows) for kind, frame in frames), dec)


# ---------------------------------------------------------------------------
# symmetric matrices with scalar square
# ---------------------------------------------------------------------------

def square_scalar_check(x_mat: Matrix, c: FieldElement) -> bool:
    """For a symmetric matrix X over a characteristic-2 field with
    X^2 = c I, report whether c is a square (it always is)."""
    field = x_mat.field
    if field.characteristic() != 2:
        raise CharacteristicNot2("characteristic 2 required")
    if not x_mat.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    if x_mat * x_mat != Matrix.identity(field, x_mat.nrows).scale(c):
        raise NotScalarSquare("X^2 is not the given scalar")
    return field.is_square(c)
