"""Exact dense linear algebra over the library's fields.

A :class:`Matrix` stores its entries in the row format of its field's
kernel (:func:`_kernel`), one kernel per field:

* GF(2): a row is one int, bit (ncols - 1 - j) holding column j, so int
  order is row order, adding rows is one XOR and a row's pivot column is
  the one ``bit_length`` points to; elimination reduces each row by the
  leading bits of the rows kept so far, and a product XORs the rows of b
  picked out by the bits of each row of a (M4RI's representation and
  reduction: Albrecht, Bard and Hart, ACM TOMS 37(1), 2010);
* GF(p): tuples of payloads, integer products and sums reduced mod p,
  inverses from a table;
* GF(2^k), k >= 2: tuples of payloads; sums are XOR, products are
  lookups in the product table, and rows at least PACKED_WIDTH wide are
  eliminated and multiplied packed, one byte per payload, for the length
  of one call;
* GF(2)(t): tuples of payloads, through the field's own payload
  ``add``/``mul``/``div``.

Products, sums, Gauss-Jordan elimination with field division (``rref``),
``solve_many``, ``kernel_rows``, ``inverse``, ``det``, ``transpose``,
equality and hashing all run on the kernel's rows.  Every elimination is
one full reduced row-echelon form, with pivots sought in every column.
Sums of many scaled matrices are no kernel operation: the explicit
Clifford model sums its payload array by a batched product.
``payload_rows``, the rows as tuples of payloads (ints for GF(p) and
GF(2^k), ``(num, den)`` pairs for GF(2)(t)), is the one view every reader
outside this module uses, and no other module sees the kernel's rows: a
GF(2) matrix made from payload rows packs its bit rows when it is built,
and one made by the kernel builds its payload rows on first read and
keeps them.  Every other field's kernel rows are the payload rows.

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

from itertools import product
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
# 16 wide (Clifford algebras of dimension 16 and up).  GF(2) rows at most
# this wide convert to and from bit rows through tables of every row.
PACKED_WIDTH = 12

# GF(2) rows wider than PACKED_WIDTH convert through binary digits
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class _Kernel:
    """Payload arithmetic a row at a time, through the field's own payload
    operations (the kernel of GF(2)(t)).

    Scalar and single-row operations (``mul``, ``inv``, ``dot``,
    ``add_rows``, ``scale_row``, ``eliminate``, ...) take payloads and rows
    of payloads, tuples or lists, and return new ones.  Matrix operations
    (``matmul``, ``gauss_jordan``, ``det``, ``transpose``, ``mat_add``, ...)
    take and return the kernel's rows: tuples of payloads here and in
    every kernel but GF(2)'s (:class:`_BitKernel`), so ``pack`` and
    ``unpack`` return their argument."""

    tuple_rows = True  # the kernel's rows are the payload rows

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

    # -- matrices, on the kernel's rows
    def pack(self, prows, width: int):
        """The kernel's rows of payload rows `width` long."""
        return prows

    def unpack(self, rows, width: int):
        """The payload rows of the kernel's rows `width` long."""
        return rows

    def is_zero(self, rows) -> bool:
        return all(map(self.row_is_zero, rows))

    def mat_add(self, a, b):
        return tuple(map(self.add_rows, a, b))

    def mat_sub(self, a, b):
        return tuple(map(self.sub_rows, a, b))

    def mat_neg(self, a):
        return tuple(map(self.neg_row, a))

    def mat_scale(self, c, a):
        scale = self.scale_row
        return tuple([tuple(scale(c, r)) for r in a])

    def transpose(self, rows, ncols: int):
        return tuple(zip(*rows)) if rows else ((),) * ncols

    def hconcat(self, a, b, bwidth: int):
        """The rows of [a | b]; the rows of b are `bwidth` long."""
        return tuple(map(tuple.__add__, a, b))

    def columns(self, rows, start: int, stop: int, width: int):
        """Columns start .. stop - 1 of rows `width` long."""
        return tuple([r[start:stop] for r in rows])

    def row_dots(self, a, b) -> tuple:
        """The payload dot product of each row of a with the same row of b."""
        return tuple(map(self.dot, a, b))

    def gauss_jordan(self, rows, width: int):
        """The reduced row-echelon form of a sequence of rows `width` long
        (zero rows last, as many rows as given) and its pivot columns, a
        row of payloads at a time."""
        rows = list(rows)
        m = len(rows)
        zero, one = self.zero, self.one
        pivots = []
        lead = 0
        for col in range(width):
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
        """The rows of a * b; b has `ncols` columns and at least one row."""
        cols, dot = tuple(zip(*b)), self.dot
        return tuple(tuple(dot(r, c) for c in cols) for r in a)

    def det(self, rows):
        """The determinant payload of a square matrix, by forward
        elimination with the sign of each row swap."""
        zero = self.zero
        rows = list(rows)
        n = len(rows)
        det = self.one
        for col in range(n):
            for r in range(col, n):
                if rows[r][col] != zero:
                    break
            else:
                return zero
            if r != col:
                rows[col], rows[r] = rows[r], rows[col]
                det = self.neg(det)
            det = self.mul(det, rows[col][col])
            inv = self.inv(rows[col][col])
            for r in range(col + 1, n):
                if rows[r][col] != zero:
                    rows[r] = self.eliminate(rows[r], self.mul(inv, rows[r][col]), rows[col])
        return det

    def null_rows(self, red, pivots, n: int):
        """The canonical basis of the right null space of the reduced rows
        `red` (n columns) with their pivots: one row per free column f,
        with 1 at f, minus the pivot rows' entries of column f at the
        pivots and zero elsewhere."""
        neg, zero, one = self.neg, self.zero, self.one
        pivot_set = set(pivots)
        basis = []
        for f in range(n):
            if f in pivot_set:
                continue
            v = [zero] * n
            v[f] = one
            for r, pc in enumerate(pivots):
                v[pc] = neg(red[r][f])
            basis.append(tuple(v))
        return tuple(basis)

    def solutions(self, red, pivots, n: int, k: int):
        """The particular solutions (free variables zero) read from the
        reduced rows of [A | b_1 ... b_k], A with n columns and every
        pivot among them: row j holds, at each pivot column, the pivot
        row's entry of b_j."""
        zero = self.zero
        solutions = []
        for j in range(n, n + k):
            x = [zero] * n
            for r, pc in enumerate(pivots):
                x[pc] = red[r][j]
            solutions.append(tuple(x))
        return tuple(solutions)


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
    """GF(2^k), 2 <= k <= 8: XOR for sums, product-table lookups for
    products.

    Elimination of rows at least PACKED_WIDTH wide, and products with at
    least that many columns, run on packed rows: a row of payloads is one
    int, one byte per payload, the first payload in the highest byte
    (``int.from_bytes(bytes(row), "big")``), packed to the row's own
    width.  Adding rows is one int XOR, and scaling a row by c is one
    ``bytes.translate`` with c's row of the product table.  Rows are
    unpacked with ``tuple(x.to_bytes(width, "big"))``.  Packing and
    unpacking cost more than they save on narrower rows, which take the
    tuple loops.  The scalar and single-row operations serve GF(2) too
    (:class:`_BitKernel`)."""

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

    def gauss_jordan(self, rows, width: int):
        """Rows at least PACKED_WIDTH wide are eliminated packed
        (:meth:`_packed_gauss_jordan`), narrower ones a tuple at a time."""
        if rows and width >= PACKED_WIDTH:
            return self._packed_gauss_jordan(rows)
        return super().gauss_jordan(rows, width)

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

    def _packed_gauss_jordan(self, prows):
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
        while lead < m:
            below = (max(rows[lead:]).bit_length() - 1) >> 3  # bytes right of its lead
            if below < 0:  # every row left is zero
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


class _BitKernel(_Char2Kernel):
    """GF(2) on bit rows: a row is one int, bit (width - 1 - j) holding
    column j.  Every matrix operation runs on the ints; the scalar and
    single-row operations on payload rows are :class:`_Char2Kernel`'s.

    Rows at most PACKED_WIDTH wide convert to and from payload rows through
    tables per width, built on first use: every payload row of that width
    by its int, and every row's int by the row.  Wider rows convert
    through their binary digits."""

    tuple_rows = False

    def __init__(self, field: Field):
        super().__init__(field)
        self._by_width: list[tuple | None] = [None] * (PACKED_WIDTH + 1)

    def _tables(self, width: int) -> tuple:
        """The payload rows `width` long in the order of their ints, their
        ints by row, and their spread ints: the row's entries as bytes."""
        tables = self._by_width[width]
        if tables is None:
            rows = tuple(product((0, 1), repeat=width))
            spread = tuple([int.from_bytes(bytes(r), "big") for r in rows])
            tables = self._by_width[width] = (rows, dict(zip(rows, range(len(rows)))), spread)
        return tables

    def pack(self, prows, width: int):
        if width <= PACKED_WIDTH:
            return tuple(map(self._tables(width)[1].__getitem__, prows))
        return tuple([int(bytes(r).translate(_TO_DIGITS), 2) for r in prows])

    def unpack(self, rows, width: int):
        if width <= PACKED_WIDTH:
            return tuple(map(self._tables(width)[0].__getitem__, rows))
        digits = f"0{width}b"
        return tuple([tuple(format(x, digits).encode().translate(_FROM_DIGITS)) for x in rows])

    def is_zero(self, rows) -> bool:
        return not any(rows)

    def mat_add(self, a, b):
        return tuple(map(_xor, a, b))

    mat_sub = mat_add

    def mat_neg(self, a):
        return a

    def mat_scale(self, c, a):
        return a if c else (0,) * len(a)

    def transpose(self, rows, ncols: int):
        """At most 8 rows at most PACKED_WIDTH wide: each row spread to one
        byte per entry, shifted in one bit at a time, so that byte j
        collects column j, the first row in its highest bit.  Otherwise
        through the payload rows."""
        if len(rows) <= 8 and ncols <= PACKED_WIDTH:
            spread, acc = self._tables(ncols)[2], 0
            for x in rows:
                acc = acc << 1 | spread[x]
            return tuple(acc.to_bytes(ncols, "big"))
        return self.pack(tuple(zip(*self.unpack(rows, ncols))) or ((),) * ncols, len(rows))

    def hconcat(self, a, b, bwidth: int):
        return tuple([x << bwidth | y for x, y in zip(a, b)])

    def columns(self, rows, start: int, stop: int, width: int):
        shift, mask = width - stop, (1 << (stop - start)) - 1
        return tuple([x >> shift & mask for x in rows])

    def row_dots(self, a, b) -> tuple:
        return tuple([(x & y).bit_count() & 1 for x, y in zip(a, b)])

    def gauss_jordan(self, rows, width: int):
        """The reduced row-echelon form by leading bits (M4RI): each row
        XORs away every kept row whose leading bit it has (x ^ y < x), and
        a nonzero remainder clears its own leading bit from the kept rows
        and is kept; `width` kept rows span every row left.  No kept row
        has another's leading bit, so sorted in descending order they are
        the reduced form, which is unique."""
        kept = []
        for x in rows:
            for y in kept:
                if x ^ y < x:
                    x ^= y
            if x:
                for i, y in enumerate(kept):
                    if y ^ x < y:
                        kept[i] = y ^ x
                kept.append(x)
                if len(kept) == width:
                    break
        kept.sort(reverse=True)
        pivots = tuple([width - x.bit_length() for x in kept])
        return tuple(kept) + (0,) * (len(rows) - len(kept)), pivots

    def matmul(self, a, b, ncols: int):
        """Each row of a * b is the XOR of the rows of b that the bits of
        the row of a pick out."""
        picked = b[::-1]  # by bit i, from the lowest
        out = []
        for x in a:
            acc = 0
            while x:
                low = x & -x
                acc ^= picked[low.bit_length() - 1]
                x ^= low
            out.append(acc)
        return tuple(out)

    def det(self, rows):
        """1 iff the rows are independent: each row, reduced by the rows
        kept before it, keeps a leading bit no kept row has."""
        kept = {}  # leading bit -> row
        for x in rows:
            while x:
                y = kept.get(x.bit_length())
                if y is None:
                    kept[x.bit_length()] = x
                    break
                x ^= y
            else:
                return 0
        return 1

    def null_rows(self, red, pivots, n: int):
        pivot_set = set(pivots)
        basis = []
        for f in range(n):
            if f in pivot_set:
                continue
            bit = 1 << (n - 1 - f)
            v = bit
            for x, pc in zip(red, pivots):
                if x & bit:
                    v |= 1 << (n - 1 - pc)
            basis.append(v)
        return tuple(basis)

    def solutions(self, red, pivots, n: int, k: int):
        """The transpose of the n x k matrix whose row at each pivot column
        is the right part of that column's pivot row, zero elsewhere."""
        right, mask = [0] * n, (1 << k) - 1
        for x, pc in zip(red, pivots):
            right[pc] = x & mask
        return self.transpose(tuple(right), k)


def _kernel(field: Field) -> _Kernel:
    """The payload kernel of `field`, built on first use and kept on the
    field object (its tables are shared by every equal field)."""
    kernel = field._kernel
    if kernel is None:
        if field.kind == "galois2":
            kind = _BitKernel if field.k == 1 else _Char2Kernel
        else:
            kind = _PrimeKernel if field.kind == "prime" else _Kernel
        kernel = field._kernel = kind(field)
    return kernel


def _gauss_jordan(kernel: _Kernel, rows, width: int):
    """:meth:`_Kernel.gauss_jordan` of the field's kernel, on its rows:
    every elimination of the library goes through here."""
    return kernel.gauss_jordan(rows, width)


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
    # payload_rows and _krows are the rows in the two formats (the module
    # docstring); rows, the entries as field elements, is boxed on first
    # read; _rref caches the elimination, None until first use (an unset
    # slot costs an AttributeError and a __getattr__ call to read)
    __slots__ = ("field", "payload_rows", "_krows", "_ncols", "_rref", "rows")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        """Rows of elements of `field`; any other entry raises
        DescriptorMismatch."""
        prows = tuple(_unbox(field, r) for r in rows)
        _init(self, field, prows, _width(prows, ncols))

    @classmethod
    def _trusted(cls, field: Field, prows, ncols: int) -> "Matrix":
        """A matrix on payload rows that are already tuples of canonical
        payloads of `field`, each `ncols` long."""
        self = _new(cls)
        _init(self, field, prows, ncols)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __getattr__(self, name):
        """The rows not made yet, made on first read and kept: `rows`
        boxed, and the payload rows of a GF(2) matrix the kernel made.
        Every other name unset is a miss."""
        if name == "rows":
            value = tuple(map(self.field.wrap_all, self.payload_rows))
            _set_rows(self, value)
            return value
        if name == "payload_rows":
            value = _kernel(self.field).unpack(self._krows, self._ncols)
            _set_prows(self, value)
            return value
        raise AttributeError(name)

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
    def nrows(self) -> int:
        return len(self._krows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._krows), self._ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.field.wrap(self.payload_rows[i][j])

    def row(self, i: int) -> Vector:
        return self.field.wrap_all(self.payload_rows[i])

    def col(self, j: int) -> Vector:
        return self.field.wrap_all([r[j] for r in self.payload_rows])

    def is_square(self) -> bool:
        return len(self._krows) == self._ncols

    def is_zero(self) -> bool:
        return _kernel(self.field).is_zero(self._krows)

    # -- arithmetic ----------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field is not other.field and self.field != other.field:
            raise DimensionMismatch("matrices over different fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, "+", "mat_add")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, "-", "mat_sub")

    def _entrywise(self, other: "Matrix", sign: str, op: str) -> "Matrix":
        self._check_same_field(other)
        if len(self._krows) != len(other._krows) or self._ncols != other._ncols:
            raise DimensionMismatch(f"{self.shape} {sign} {other.shape}")
        kernel = _kernel(self.field)
        return _made(kernel, getattr(kernel, op)(self._krows, other._krows), self._ncols)

    def __neg__(self) -> "Matrix":
        kernel = _kernel(self.field)
        return _made(kernel, kernel.mat_neg(self._krows), self._ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if self._ncols != len(other._krows):
            raise DimensionMismatch(f"{self.shape} * {other.shape}")
        if not other._krows:
            return Matrix.zeros(self.field, len(self._krows), other._ncols)
        kernel = _kernel(self.field)
        return _made(kernel, kernel.matmul(self._krows, other._krows, other._ncols), other._ncols)

    def scale(self, c: FieldElement) -> "Matrix":
        c = _unbox_one(self.field, c)
        kernel = _kernel(self.field)
        return _made(kernel, kernel.mat_scale(c, self._krows), self._ncols)

    def transpose(self) -> "Matrix":
        kernel = _kernel(self.field)
        return _made(kernel, kernel.transpose(self._krows, self._ncols), len(self._krows))

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
        return (self._krows == other._krows and self._ncols == other._ncols
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field, self._krows, self._ncols))

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(map(fmt, r)) for r in self.payload_rows)
        return f"Matrix[{body}]"

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and its pivot columns (cached)."""
        if self._rref is not None:
            return self._rref
        kernel = _kernel(self.field)
        red, pivots = _gauss_jordan(kernel, self._krows, self._ncols)
        result = (_made(kernel, red, self._ncols), pivots)
        _set_rref(self, result)
        return result

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_space(self) -> "Matrix":
        """RREF basis of the row space, zero rows dropped."""
        red, pivots = self.rref()
        return _made(_kernel(self.field), red._krows[: len(pivots)], self._ncols)

    def null_space(self) -> "Matrix":
        """The rows of :meth:`kernel_rows` as a matrix."""
        red, pivots = self.rref()
        kernel = _kernel(self.field)
        return _made(kernel, kernel.null_rows(red._krows, pivots, self._ncols), self._ncols)

    def kernel_rows(self) -> tuple[tuple, ...]:
        """Canonical basis of the right null space {x : Ax = 0}, as payload
        rows: one row per free column f, with 1 at f, minus the pivot rows'
        entries of column f at the pivots and zero elsewhere."""
        return self.null_space().payload_rows

    def kernel_basis(self) -> tuple[Vector, ...]:
        """Canonical basis of the right null space {x : Ax = 0}."""
        return self.null_space().rows

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
        red, pivots = _augmented(self, rhs.transpose()).rref()
        if pivots and pivots[-1] >= n:
            return None
        kernel = _kernel(self.field)
        return _made(kernel, kernel.solutions(red._krows, pivots, n, k), n)

    def solve(self, b: Vector) -> Vector | None:
        """A particular solution of Ax = b (free variables zero), or None."""
        if len(b) != self.nrows:
            raise DimensionMismatch("rhs length mismatch")
        x = self.solve_many(Matrix._trusted(self.field, (_unbox(self.field, b),), self.nrows))
        return None if x is None else x.row(0)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self._ncols
        red, pivots = _augmented(self, Matrix.identity(self.field, n)).rref()
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return _columns(red, n, 2 * n)

    def det(self) -> FieldElement:
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        return self.field.wrap(_kernel(self.field).det(self._krows))

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


# Matrix.__setattr__ refuses every write; construction and the caches write
# the slots through their descriptors.
_new = object.__new__
_set_field = Matrix.field.__set__
_set_prows = Matrix.payload_rows.__set__
_set_krows = Matrix._krows.__set__
_set_ncols = Matrix._ncols.__set__
_set_rref = Matrix._rref.__set__
_set_rows = Matrix.rows.__set__


def _init(self: Matrix, field: Field, prows, ncols: int):
    """A matrix on payload rows; its kernel rows are the same rows but for
    GF(2), whose bit rows are packed here."""
    _set_field(self, field)
    _set_prows(self, prows)
    _set_ncols(self, ncols)
    _set_rref(self, None)
    kernel = field._kernel or _kernel(field)
    _set_krows(self, prows if kernel.tuple_rows else kernel.pack(prows, ncols))


def _made(kernel: _Kernel, rows, ncols: int) -> Matrix:
    """A matrix on rows in the kernel's format, as the kernel makes them;
    a GF(2) matrix's payload rows are unpacked on first read."""
    self = _new(Matrix)
    _set_field(self, kernel.field)
    _set_krows(self, rows)
    _set_ncols(self, ncols)
    _set_rref(self, None)
    if kernel.tuple_rows:
        _set_prows(self, rows)
    return self


def _augmented(a: Matrix, b: Matrix) -> Matrix:
    """[a | b] for matrices of one field with as many rows."""
    kernel = _kernel(a.field)
    return _made(kernel, kernel.hconcat(a._krows, b._krows, b._ncols), a._ncols + b._ncols)


def _columns(m: Matrix, start: int, stop: int) -> Matrix:
    """Columns start .. stop - 1 of m."""
    kernel = _kernel(m.field)
    return _made(kernel, kernel.columns(m._krows, start, stop, m._ncols), stop - start)


def _rows_at(m: Matrix, indices) -> Matrix:
    """The rows of m at `indices`, in their order."""
    rows = m._krows
    return _made(_kernel(m.field), tuple([rows[i] for i in indices]), m._ncols)


def _diagonal(field: Field, entries: tuple) -> Matrix:
    z, n = field.zero.payload, len(entries)
    return Matrix._trusted(field, tuple(
        tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)), n)


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def _vec_mat(field: Field, v, m: Matrix) -> tuple:
    """Payloads of v^T m for a payload vector v."""
    if not m._krows:
        return (field.zero.payload,) * m.ncols
    kernel = _kernel(field)
    row = kernel.matmul(kernel.pack((tuple(v),), len(v)), m._krows, m._ncols)
    return kernel.unpack(row, m._ncols)[0]


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


def _row_forms(rows: Matrix, form: Matrix) -> tuple:
    """Payloads of r^T F r for every row r of `rows`: the diagonal of
    R F R^T, from one product."""
    kernel = _kernel(rows.field)
    return kernel.row_dots(kernel.matmul(rows._krows, form._krows, form._ncols), rows._krows)


def stack_rows(*blocks: Matrix) -> Matrix:
    """The rows of matrices of one field and width, one under the other;
    the callers' operands belong to one space, whose guard checks that."""
    rows = tuple(r for b in blocks for r in b._krows)
    return _made(_kernel(blocks[0].field), rows, blocks[0].ncols)


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
