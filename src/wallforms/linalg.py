"""Exact dense linear algebra over the library's fields.

A :class:`Matrix` stores its entries as payload rows: tuples of the
field's payloads, ints for GF(p) and GF(2^k) and ``(num, den)`` pairs for
GF(2)(t).  Products, sums, Gauss-Jordan elimination with field division
(``rref``), ``solve_many``, ``kernel_rows``, ``inverse`` and ``det`` all run
on those payloads through one kernel per field (:func:`_kernel`):

* GF(p): integer products and sums reduced mod p, inverses from a table;
* GF(2^k): sums are XOR, products are lookups in the product table, and
  rows at least PACKED_WIDTH wide are eliminated and multiplied packed: a
  row is one int with one byte per payload, packed to the row's own width,
  so adding rows is one int XOR and scaling one by c is one
  ``bytes.translate`` with c's row of the product table (one path for
  GF(2) through GF(256));
* GF(2)(t): the field's own payload ``add``/``mul``/``div``.

The product and inverse tables are :func:`fields.field_tables`, built once
per field and shared by every equal field and by the oracle's batched
arithmetic.  Every result is exact.

Field elements exist only at the boundary.  The public constructor takes
rows of :class:`FieldElement` of the matrix's field and raises
DescriptorMismatch for any other entry; :meth:`Matrix.from_payloads` takes
range-checked payload rows.  ``rows`` (boxed once, then cached),
``m[i, j]``, ``row``, ``col``, ``det`` and the vectors returned by
``solve``, ``kernel_basis``, ``mat_vec`` and ``vec_mat`` are boxed on the
way out (``solve`` and ``kernel_basis`` box what ``solve_many`` and
``kernel_rows`` return), and finite fields hand out interned elements, so
boxing allocates nothing.  Vectors are tuples of field elements, taken by
``mat_vec``, ``vec_mat`` and ``bilinear``.  Inside the library a vector is a
payload row and a basis a payload matrix, boxed only by a public accessor
(``Matrix.rows``, ``WallForm.basis``, a block's vectors, and the like).
"""

from __future__ import annotations

from operator import mul as _imul, xor as _xor

from .errors import DescriptorMismatch, DimensionMismatch, SingularMatrix
from .fields import Field, FieldElement, field_tables

Vector = tuple[FieldElement, ...]

# ---------------------------------------------------------------------------
# payload kernels, one per field
# ---------------------------------------------------------------------------

# GF(2^k) rows at least this wide are eliminated and multiplied packed.  On
# a 2-vCPU Xeon, packing every row made the unipotent sweeps of O(H6F2) and
# O(H4F4), whose rows are at most 9 wide, 13% slower, and packing won from
# 16 wide (Clifford algebras of dimension 16 and up).
PACKED_WIDTH = 12

class _Kernel:
    """Payload arithmetic a row at a time, through the field's own payload
    operations (the kernel of GF(2)(t)).  Row operations take tuples or
    lists of payloads and return new ones."""

    def __init__(self, field: Field):
        self.field = field
        self.zero = field.zero.payload
        self.one = field.one.payload
        self.identities: dict[int, Matrix] = {}  # n -> the n x n identity

    # -- scalars
    def mul(self, a, b):
        return self.field.mul(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def inv(self, a):
        return self.field.div(self.one, a)

    # -- rows
    def row_is_zero(self, row) -> bool:
        zero = self.zero
        return all(a == zero for a in row)

    def add_rows(self, u, v):
        return tuple(map(self.field.add, u, v))

    def sub_rows(self, u, v):
        return tuple(map(self.field.sub, u, v))

    def neg_row(self, u):
        return tuple(map(self.field.neg, u))

    def scale_row(self, c, row):
        mul = self.field.mul
        return [mul(c, a) for a in row]

    def eliminate(self, row, c, prow):
        """row - c * prow."""
        sub, mul = self.field.sub, self.field.mul
        return [sub(a, mul(c, b)) for a, b in zip(row, prow)]

    def dot(self, u, v):
        add, mul, zero = self.field.add, self.field.mul, self.zero
        acc = zero
        for a, b in zip(u, v):
            if a != zero and b != zero:
                acc = add(acc, mul(a, b))
        return acc

    def gauss_jordan(self, prows, ncols: int):
        """Reduced row-echelon payload rows (as tuples) and pivot columns
        of a sequence of equal-length rows, with pivots sought in the first
        `ncols` columns, a row of payloads at a time."""
        rows = list(prows)
        m = len(rows)
        zero, one = self.zero, self.one
        pivots = []
        lead = 0
        for col in range(ncols):
            for r in range(lead, m):
                if rows[r][col] != zero:
                    break
            else:
                continue
            prow = rows[r]
            rows[r] = rows[lead]
            if prow[col] != one:
                prow = self.scale_row(self.inv(prow[col]), prow)
            rows[lead] = prow
            for r in range(m):
                if r != lead:
                    c = rows[r][col]
                    if c != zero:
                        rows[r] = self.eliminate(rows[r], c, prow)
            pivots.append(col)
            lead += 1
            if lead == m:
                break
        return tuple(map(tuple, rows)), tuple(pivots)

    def matmul(self, a, b, ncols: int):
        """Payload rows of a * b; b has `ncols` columns and at least one row."""
        cols, dot = tuple(zip(*b)), self.dot
        return tuple(tuple(dot(r, c) for c in cols) for r in a)


class _PrimeKernel(_Kernel):
    """GF(p): plain int arithmetic reduced mod p."""

    def __init__(self, field: Field):
        super().__init__(field)
        self.p = field.p
        self._inv = field_tables(field).inv

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return self._inv[a]

    def row_is_zero(self, row) -> bool:
        return not any(row)

    def add_rows(self, u, v):
        p = self.p
        return tuple([(a + b) % p for a, b in zip(u, v)])

    def sub_rows(self, u, v):
        p = self.p
        return tuple([(a - b) % p for a, b in zip(u, v)])

    def neg_row(self, u):
        p = self.p
        return tuple([-a % p for a in u])

    def scale_row(self, c, row):
        p = self.p
        return [c * a % p for a in row]

    def eliminate(self, row, c, prow):
        p = self.p
        return [(a - c * b) % p for a, b in zip(row, prow)]

    def dot(self, u, v):
        return sum(map(_imul, u, v)) % self.p

    def matmul(self, a, b, ncols: int):
        p, cols = self.p, tuple(zip(*b))
        return tuple(tuple([sum(map(_imul, r, c)) % p for c in cols]) for r in a)


class _Char2Kernel(_Kernel):
    """GF(2^k), k <= 8: XOR for sums, product-table lookups for products.

    Elimination of rows at least PACKED_WIDTH wide, and products with at
    least that many columns, run on packed rows: a row of payloads is one
    int, one byte per payload, the first payload in the highest byte
    (``int.from_bytes(bytes(row), "big")``), packed to the row's own
    width.  Adding rows is one int XOR, and scaling a row by c is one
    ``bytes.translate`` with c's row of the product table.  Rows are
    unpacked with ``tuple(x.to_bytes(width, "big"))``.  Packing and
    unpacking cost more than they save on narrower rows, which take the
    tuple loops."""

    def __init__(self, field: Field):
        super().__init__(field)
        tables = field_tables(field)
        self._mul, self._inv = tables.mul, tables.inv
        pad = bytes(256 - len(tables.mul))  # translate tables cover every byte
        self._translate = tuple(bytes(row) + pad for row in tables.mul)

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return a

    def inv(self, a):
        return self._inv[a]

    def row_is_zero(self, row) -> bool:
        return not any(row)

    def add_rows(self, u, v):
        return tuple(map(_xor, u, v))

    sub_rows = add_rows

    def neg_row(self, u):
        return tuple(u)

    def scale_row(self, c, row):
        return list(map(self._mul[c].__getitem__, row))

    def eliminate(self, row, c, prow):
        if c == 1:
            return list(map(_xor, row, prow))
        mc = self._mul[c]
        return [a ^ mc[b] for a, b in zip(row, prow)]

    def dot(self, u, v):
        mul, acc = self._mul, 0
        for a, b in zip(u, v):
            acc ^= mul[a][b]
        return acc

    def gauss_jordan(self, prows, ncols: int):
        """Rows at least PACKED_WIDTH wide are eliminated packed
        (:meth:`_packed_gauss_jordan`), narrower ones a tuple at a time."""
        if prows and len(prows[0]) >= PACKED_WIDTH:
            return self._packed_gauss_jordan(prows, ncols)
        return super().gauss_jordan(prows, ncols)

    def matmul(self, a, b, ncols: int):
        """Products with at least PACKED_WIDTH columns run on packed rows
        (:meth:`_packed_matmul`).  Narrower ones sum the rows of b scaled
        by the entries of the row of a, a tuple at a time; zero entries are
        skipped."""
        if ncols >= PACKED_WIDTH:
            return self._packed_matmul(a, b, ncols)
        mul, zero = self._mul, (0,) * ncols
        out = []
        for r in a:
            acc = zero
            for c, brow in zip(r, b):
                if c == 1:
                    acc = tuple(map(_xor, acc, brow))
                elif c:
                    mc = mul[c]
                    acc = tuple([x ^ mc[y] for x, y in zip(acc, brow)])
            out.append(acc)
        return tuple(out)

    def _packed_gauss_jordan(self, prows, ncols: int):
        """:meth:`_Kernel.gauss_jordan` on packed rows, with the same
        pivots, swaps and row operations.  Below the pivot row every row
        vanishes left of the current column, so the next pivot column is the
        leading byte of the largest such row, a row has an entry there iff
        it is at least that byte's lowest bit, and that entry is the row
        shifted down.  A row is cleared by one XOR with the pivot row times
        its entry, translated once per distinct entry."""
        if not prows:
            return (), ()
        width = len(prows[0])
        frm, translate, inv = int.from_bytes, self._translate, self._inv
        rows = [frm(bytes(r), "big") for r in prows]
        m = len(rows)
        pivots = []
        lead = 0
        last = width - ncols  # bytes right of the pivot columns
        while lead < m:
            below = (max(rows[lead:]).bit_length() - 1) >> 3  # bytes right of its lead
            if below < last:  # also when every row left is zero
                break
            shift = 8 * below
            low = 1 << shift
            r = lead
            while rows[r] < low:
                r += 1
            prow = rows[r]
            rows[r] = rows[lead]
            c = prow >> shift
            if c != 1:
                prow = frm(prow.to_bytes(width, "big").translate(translate[inv[c]]), "big")
            rows[lead] = prow
            pbytes, multiples = prow.to_bytes(width, "big"), {1: prow}  # c -> c * prow
            mask = 255 << shift
            for r in range(lead):  # rows above the pivot row: any entry
                x = rows[r]
                if x & mask:
                    c = x >> shift & 255
                    y = multiples.get(c)
                    if y is None:
                        y = multiples[c] = frm(pbytes.translate(translate[c]), "big")
                    rows[r] = x ^ y
            for r in range(lead + 1, m):  # rows below it: an entry iff x >= low
                x = rows[r]
                if x >= low:
                    c = x >> shift
                    y = multiples.get(c)
                    if y is None:
                        y = multiples[c] = frm(pbytes.translate(translate[c]), "big")
                    rows[r] = x ^ y
            pivots.append(width - 1 - below)
            lead += 1
        return tuple([tuple(x.to_bytes(width, "big")) for x in rows]), tuple(pivots)

    def _packed_matmul(self, a, b, ncols: int):
        """Each output row is the XOR of the packed rows of b scaled by the
        entries of the row of a; zero entries are skipped, and a row of b is
        packed, or translated and packed, once per distinct entry that
        scales it."""
        frm, translate = int.from_bytes, self._translate
        brows = [bytes(r) for r in b]
        multiples = {}  # (j, c) -> c * (row j of b), packed
        out = []
        for r in a:
            acc = 0
            for j, c in enumerate(r):
                if c:
                    y = multiples.get((j, c))
                    if y is None:
                        y = multiples[j, c] = frm(
                            brows[j] if c == 1 else brows[j].translate(translate[c]), "big")
                    acc ^= y
            out.append(tuple(acc.to_bytes(ncols, "big")))
        return tuple(out)


def _kernel(field: Field) -> _Kernel:
    """The payload kernel of `field`, built on first use and kept on the
    field object (its tables are shared by every equal field)."""
    kernel = field._kernel
    if kernel is None:
        kind = {"prime": _PrimeKernel, "galois2": _Char2Kernel}.get(field.kind, _Kernel)
        kernel = field._kernel = kind(field)
    return kernel


def _gauss_jordan(kernel: _Kernel, prows, ncols: int):
    """:meth:`_Kernel.gauss_jordan` of the field's kernel: every elimination
    of the library goes through here."""
    return kernel.gauss_jordan(prows, ncols)


def _unbox(field: Field, entries) -> tuple:
    """The payloads of `entries`, each of which must be an element of `field`."""
    return tuple([_unbox_one(field, e) for e in entries])


def _unbox_one(field: Field, e) -> object:
    if e.__class__ is FieldElement and e.field is field:
        return e.payload
    if not isinstance(e, FieldElement) or e.field != field:
        raise DescriptorMismatch(f"entry {e!r} is not an element of {field.literal()}")
    return e.payload


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Matrix:
    # _rref and _rows are caches, unset until first use
    __slots__ = ("field", "payload_rows", "_ncols", "_rref", "_rows")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        """Rows of elements of `field`; any other entry raises
        DescriptorMismatch."""
        prows = tuple(_unbox(field, r) for r in rows)
        _init(self, field, prows, _width(prows, ncols))

    @classmethod
    def _trusted(cls, field: Field, prows, ncols: int) -> "Matrix":
        """A matrix on payload rows that are already tuples of canonical
        payloads of `field`, each `ncols` long (results of the kernel)."""
        self = _new(cls)
        _init(self, field, prows, ncols)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_payloads(cls, field: Field, rows, ncols: int | None = None) -> "Matrix":
        """A matrix on payload rows; DescriptorMismatch for any entry that
        is not a canonical payload of `field`."""
        prows = tuple(tuple(r) for r in rows)
        is_payload = field.is_payload
        for r in prows:
            for p in r:
                if not is_payload(p):
                    raise DescriptorMismatch(f"{p!r} is not a payload of {field.literal()}")
        return cls._trusted(field, prows, _width(prows, ncols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        """The n x n identity, built once per field and n."""
        cache = _kernel(field).identities
        ident = cache.get(n)
        if ident is None:
            ident = cache[n] = _diagonal(field, (field.one.payload,) * n)
        return ident

    @classmethod
    def zeros(cls, field: Field, m: int, n: int) -> "Matrix":
        return cls._trusted(field, ((field.zero.payload,) * n,) * m, n)

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Matrix":
        return cls(field, [[field.from_int(v) for v in r] for r in rows])

    @classmethod
    def diagonal(cls, field: Field, entries) -> "Matrix":
        return _diagonal(field, _unbox(field, entries))

    # -- shape / access -----------------------------------------------------

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The entries as field elements, boxed on first use."""
        try:
            return self._rows
        except AttributeError:
            rows = tuple(map(self.field.wrap_all, self.payload_rows))
            _set_rows(self, rows)
            return rows

    @property
    def nrows(self) -> int:
        return len(self.payload_rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.payload_rows), self._ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.field.wrap(self.payload_rows[i][j])

    def row(self, i: int) -> Vector:
        return self.field.wrap_all(self.payload_rows[i])

    def col(self, j: int) -> Vector:
        return self.field.wrap_all([r[j] for r in self.payload_rows])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(map(_kernel(self.field).row_is_zero, self.payload_rows))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field is not other.field and self.field != other.field:
            raise DimensionMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, "+", _kernel(self.field).add_rows)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, "-", _kernel(self.field).sub_rows)

    def _entrywise(self, other: "Matrix", sign: str, op) -> "Matrix":
        self._check_same_field(other)
        if len(self.payload_rows) != len(other.payload_rows) or self._ncols != other._ncols:
            raise DimensionMismatch(f"{self.shape} {sign} {other.shape}")
        return Matrix._trusted(self.field, tuple(map(op, self.payload_rows, other.payload_rows)),
                               self._ncols)

    def __neg__(self) -> "Matrix":
        neg = _kernel(self.field).neg_row
        return Matrix._trusted(self.field, tuple(map(neg, self.payload_rows)), self._ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} * {other.shape}")
        if not other.payload_rows:
            return Matrix.zeros(self.field, self.nrows, other.ncols)
        prows = _kernel(self.field).matmul(self.payload_rows, other.payload_rows, other.ncols)
        return Matrix._trusted(self.field, prows, other.ncols)

    def scale(self, c: FieldElement) -> "Matrix":
        c = _unbox_one(self.field, c)
        scale = _kernel(self.field).scale_row
        return Matrix._trusted(self.field, tuple(tuple(scale(c, r)) for r in self.payload_rows),
                               self._ncols)

    def transpose(self) -> "Matrix":
        if not self.payload_rows:
            return Matrix._trusted(self.field, ((),) * self._ncols, 0)
        return Matrix._trusted(self.field, tuple(zip(*self.payload_rows)), self.nrows)

    def power(self, k: int) -> "Matrix":
        out = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.payload_rows == other.payload_rows and self._ncols == other._ncols
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field, self.payload_rows, self._ncols))

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(map(fmt, r)) for r in self.payload_rows)
        return f"Matrix[{body}]"

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and its pivot columns (cached)."""
        try:
            return self._rref
        except AttributeError:
            pass
        red, pivots = _gauss_jordan(_kernel(self.field), self.payload_rows, self._ncols)
        result = (Matrix._trusted(self.field, red, self._ncols), pivots)
        _set_rref(self, result)
        return result

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_space(self) -> "Matrix":
        """RREF basis of the row space, zero rows dropped."""
        red, pivots = self.rref()
        return Matrix._trusted(self.field, red.payload_rows[: len(pivots)], self._ncols)

    def kernel_rows(self) -> tuple[tuple, ...]:
        """Canonical basis of the right null space {x : Ax = 0}, as payload
        rows: one row per free column f, with 1 at f, minus the pivot rows'
        entries of column f at the pivots and zero elsewhere."""
        red, pivots = self.rref()
        n = self.ncols
        kernel = _kernel(self.field)
        neg, zero, one = kernel.neg, kernel.zero, kernel.one
        pivot_set = set(pivots)
        basis = []
        for f in range(n):
            if f in pivot_set:
                continue
            v = [zero] * n
            v[f] = one
            for r, pc in enumerate(pivots):
                v[pc] = neg(red.payload_rows[r][f])
            basis.append(tuple(v))
        return tuple(basis)

    def kernel_basis(self) -> tuple[Vector, ...]:
        """Canonical basis of the right null space {x : Ax = 0}."""
        return tuple(map(self.field.wrap_all, self.kernel_rows()))

    def solve_many(self, rhs: "Matrix") -> "Matrix | None":
        """The particular solutions (free variables zero) of A x = b for
        every row b of `rhs`, as the rows of one matrix, or None if any of
        the systems has no solution.  One elimination of [A | rhs^T]: its
        pivots in the A part do not depend on the columns appended, so each
        row is the solution :meth:`solve` gives for its b alone."""
        self._check_same_field(rhs)
        if rhs.ncols != self.nrows:
            raise DimensionMismatch("rhs length mismatch")
        n, k = self._ncols, rhs.nrows
        if not k:
            return Matrix.zeros(self.field, 0, n)
        aug = Matrix._trusted(self.field, tuple(
            map(tuple.__add__, self.payload_rows, zip(*rhs.payload_rows))), n + k)
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= n:
            return None
        zero, red_rows = _kernel(self.field).zero, red.payload_rows
        solutions = []
        for j in range(n, n + k):
            x = [zero] * n
            for r, pc in enumerate(pivots):
                x[pc] = red_rows[r][j]
            solutions.append(tuple(x))
        return Matrix._trusted(self.field, tuple(solutions), n)

    def solve(self, b: Vector) -> Vector | None:
        """A particular solution of Ax = b (free variables zero), or None."""
        if len(b) != self.nrows:
            raise DimensionMismatch("rhs length mismatch")
        x = self.solve_many(Matrix._trusted(self.field, (_unbox(self.field, b),), self.nrows))
        return None if x is None else x.row(0)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = Matrix._trusted(self.field, tuple(
            r + i for r, i in zip(self.payload_rows, ident.payload_rows)), 2 * n)
        red, pivots = aug.rref()
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix._trusted(self.field, tuple(r[n:] for r in red.payload_rows), n)

    def det(self) -> FieldElement:
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        kernel = _kernel(self.field)
        zero = kernel.zero
        rows = list(self.payload_rows)
        n = self.nrows
        det = kernel.one
        for col in range(n):
            for r in range(col, n):
                if rows[r][col] != zero:
                    break
            else:
                return self.field.zero
            if r != col:
                rows[col], rows[r] = rows[r], rows[col]
                det = kernel.neg(det)
            det = kernel.mul(det, rows[col][col])
            inv = kernel.inv(rows[col][col])
            for r in range(col + 1, n):
                if rows[r][col] != zero:
                    rows[r] = kernel.eliminate(rows[r], kernel.mul(inv, rows[r][col]), rows[col])
        return self.field.wrap(det)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self == -self.transpose()

    def is_alternating(self) -> bool:
        """Antisymmetric with zero diagonal (f(v, v) = 0 for all v)."""
        zero = self.field.zero.payload
        return self == -self.transpose() and all(
            self.payload_rows[i][i] == zero for i in range(min(self.nrows, self.ncols))
        )


def _width(prows, ncols) -> int:
    width = len(prows[0]) if prows else (ncols or 0)
    if any(len(r) != width for r in prows):
        raise DimensionMismatch("ragged rows")
    return width


# Matrix.__setattr__ refuses every write; construction and the two caches
# write the slots through their descriptors.
_new = object.__new__
_set_field = Matrix.field.__set__
_set_prows = Matrix.payload_rows.__set__
_set_ncols = Matrix._ncols.__set__
_set_rref = Matrix._rref.__set__
_set_rows = Matrix._rows.__set__


def _diagonal(field: Field, entries: tuple) -> Matrix:
    z, n = field.zero.payload, len(entries)
    return Matrix._trusted(field, tuple(
        tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)), n)


def _init(self: Matrix, field: Field, prows, ncols: int):
    _set_field(self, field)
    _set_prows(self, prows)
    _set_ncols(self, ncols)


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def _vec_mat(field: Field, v, m: Matrix) -> tuple:
    """Payloads of v^T m for a payload vector v."""
    if not m.payload_rows:
        return (field.zero.payload,) * m.ncols
    return _kernel(field).matmul((v,), m.payload_rows, m.ncols)[0]


def mat_vec(m: Matrix, v: Vector) -> Vector:
    if m.ncols != len(v):
        raise DimensionMismatch("matrix/vector shape mismatch")
    pv, dot = _unbox(m.field, v), _kernel(m.field).dot
    return m.field.wrap_all([dot(r, pv) for r in m.payload_rows])


def vec_mat(v: Vector, m: Matrix) -> Vector:
    if m.nrows != len(v):
        raise DimensionMismatch("vector/matrix shape mismatch")
    return m.field.wrap_all(_vec_mat(m.field, _unbox(m.field, v), m))


def bilinear(u: Vector, g: Matrix, v: Vector) -> FieldElement:
    """u^T g v."""
    if g.nrows != len(u) or g.ncols != len(v):
        raise DimensionMismatch("vector/matrix shape mismatch")
    field = g.field
    return field.wrap(_kernel(field).dot(_vec_mat(field, _unbox(field, u), g), _unbox(field, v)))


def stack_rows(*blocks: Matrix) -> Matrix:
    """The rows of matrices of one field and width, one under the other;
    the callers' operands belong to one space, whose guard checks that."""
    rows = tuple(r for b in blocks for r in b.payload_rows)
    return Matrix._trusted(blocks[0].field, rows, blocks[0].ncols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product."""
    a._check_same_field(b)
    scale = _kernel(a.field).scale_row
    rows = tuple(
        tuple(p for x in ra for p in scale(x, rb))
        for ra in a.payload_rows for rb in b.payload_rows
    )
    return Matrix._trusted(a.field, rows, a.ncols * b.ncols)


def block_diag(field: Field, blocks) -> Matrix:
    n = sum(b.nrows for b in blocks)
    zero = field.zero.payload
    rows = []
    off = 0
    for b in blocks:
        if b.field is not field and b.field != field:
            raise DescriptorMismatch(f"a block over {b.field} in a matrix over {field}")
        for r in b.payload_rows:
            rows.append((zero,) * off + r + (zero,) * (n - off - len(r)))
        off += b.nrows
    return Matrix._trusted(field, tuple(rows), n)
