"""Exact batched arithmetic on numpy arrays of finite-field payloads.

One :class:`_BatchArith` per field (:func:`_batch_arith`), built from the
field's own tables (``fields.field_tables``), runs the oracle's
enumeration and filters and the final checks of
``clifford.explicit_matrix_iso``.  Only this module and ``oracle`` import
numpy at the top, and ``oracle`` imports this one; ``clifford`` reaches
both only inside its explicit-model functions.  So ``import wallforms``
and the ``analyze``, ``decompose`` and ``clifford`` commands load no numpy.

Products over GF(2^k) for k in 2..4 are spread-bit integer products: a
payload's bit i moves to bit 8i of a uint64, so one ``np.matmul`` of the
spread operands counts, in byte d of each entry, the pairs of bits that
meet at degree d, summed over the inner dimension.  No byte carries into
the next while (inner dimension) * k <= 255, and the product has at most
2k - 1 <= 7 bytes; the low bit of each byte is then the carry-less
product's coefficient, and one table lookup reduces it modulo the field
polynomial.  Wider inner dimensions, and GF(2^k) for k >= 5, sum table
lookups by XOR.

Payload arrays meet ``Matrix`` at one bridge: :func:`_payload_stack` and
:func:`_array_matrix`.  A payload fits in a byte, since p <= 97
(``fields.MAX_PRIME``) and 2^k <= 256 (``fields.MAX_EXTENSION_DEGREE``).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import TooLarge, UnsupportedField
from .fields import _FiniteField, field_tables
from .linalg import Matrix

# cached: a one-element stack's product costs a few microseconds, and
# min_scalar_type would add half a microsecond to each
_narrowest_unsigned = functools.lru_cache(maxsize=None)(np.min_scalar_type)

SMALL_PRODUCT = 1 << 12  # products below which one gather beats a loop over k
LAST_CHUNK = 1 << 10  # matrices per lookup of matmul_last; bounds the intp codes
SPREAD_DEGREE = 4  # GF(2^k) up to this k multiplies by spread bits: 2k - 1 bytes fit a uint64

# the low bit of every byte, and the multiplier that gathers them into the
# top byte: byte d's bit 8d lands on bit 56 + d, and every other partial
# product on a distinct bit, so no sum carries
_LOW_BITS = np.uint64(0x0101010101010101)
_GATHER = np.uint64(0x0102040810204080)
_TOP = np.uint64(56)


class _BatchArith:
    """Exact batched arithmetic on payload arrays over one finite field.

    Products and inverses are read from ``fields.field_tables``, the
    field's own payload ``mul`` and ``div`` tabulated once over all payloads
    0 .. |F|-1 and shared with the exact kernel of ``linalg``.  Where the
    product table and the field's ``add`` are those of the integers mod |F|
    (prime fields and GF(2), checked here), batched products use numpy's
    integer matmul mod |F|; otherwise ``add`` must be XOR, and products
    are spread-bit integer products (GF(4) to GF(16), inside their bound)
    or table lookups summed by XOR.  Arguments and results are integer
    arrays of payloads.  :meth:`matmul` takes the batch on the leading axes
    and computes in intp or uint64; :meth:`matmul_last` and
    :meth:`minus_identity_last` take uint8 stacks with the batch on the
    last axis, (n, n, N), and keep their products as narrow as the values
    allow.  Build it through
    :func:`_batch_arith`, which keeps one per field; the oracle and
    ``clifford`` share it."""

    def __init__(self, field):
        if not isinstance(field, _FiniteField):
            raise TooLarge(f"no batched arithmetic over the infinite field {field.literal()}")
        codes = list(field.payloads())
        self.order = q = len(codes)
        tables = field_tables(field)
        self._mul = np.array(tables.mul, dtype=np.uint8)
        self.inv = np.array(tables.inv, dtype=np.uint8)
        sums = np.array([[field.add(a, b) for b in codes] for a in codes])
        pay = np.arange(q)
        self.modular = (np.array_equal(self._mul, np.multiply.outer(pay, pay) % q)
                        and np.array_equal(sums, np.add.outer(pay, pay) % q))
        if not self.modular and not np.array_equal(sums, np.bitwise_xor.outer(pay, pay)):
            raise UnsupportedField(f"no batched arithmetic for {field.literal()}")
        self._mul.flags.writeable = self.inv.flags.writeable = False  # shared per field
        self._spread = self._reduce = None
        self._spread_inner = -1  # the widest inner dimension of an exact spread product
        if not self.modular and q <= 1 << SPREAD_DEGREE:
            self._spread_tables(tables.mul)

    def _spread_tables(self, mul):
        """The tables of the spread-bit product over GF(2^k): payload bit i
        at bit 8i (``_spread``), and the payload of every polynomial of
        degree below 2k - 1 modulo the field polynomial (``_reduce``), the
        sums of the powers of x (payload 2) read from the product table.
        The reduced carry-less product of every pair of payloads must be
        the product table's entry."""
        k = self.order.bit_length() - 1
        self._spread_inner = 255 // k
        self._spread = np.array([sum((p >> i & 1) << 8 * i for i in range(k))
                                 for p in range(self.order)], dtype=np.uint64)
        powers = [1]
        for _ in range(2 * k - 2):
            powers.append(mul[powers[-1]][2])
        self._reduce = np.array([
            functools.reduce(operator.xor, (x for d, x in enumerate(powers) if r >> d & 1), 0)
            for r in range(1 << (2 * k - 1))], dtype=np.uint8)
        if not np.array_equal(self._reduced(np.multiply.outer(self._spread, self._spread)),
                              self._mul):
            raise UnsupportedField(f"payload bits of {self.order} elements are not polynomials")

    def _reduced(self, prod):
        """The payloads of a product of spread operands (overwritten): the
        low bit of each byte, gathered into the top byte, and reduced."""
        prod &= _LOW_BITS
        prod *= _GATHER
        prod >>= _TOP
        return self._reduce[prod]

    def mul(self, a, b):
        """Elementwise product (broadcast)."""
        return self._mul[a, b]

    def add(self, a, b):
        if self.modular:
            return np.add(a, b, dtype=np.intp) % self.order
        return a ^ b

    def sub(self, a, b):
        if self.modular:
            return np.subtract(a, b, dtype=np.intp) % self.order
        return a ^ b

    def matmul(self, a, b):
        """Batched matrix product a @ b with numpy broadcasting over the
        leading axes; a is (..., n, k) and b is (..., k, m).  Modular
        products are one integer matmul mod |F|, and so are spread-bit
        products while k is inside their bound; the rest are lookups
        (:meth:`_lookup_matmul`)."""
        if self.modular:
            return np.matmul(a, b, dtype=np.intp) % self.order
        if a.shape[-1] <= self._spread_inner:
            return self._reduced(np.matmul(self._spread[a], self._spread[b]))
        return self._lookup_matmul(a, b)

    def _lookup_matmul(self, a, b):
        """a @ b over GF(2^k) by product-table lookups summed by XOR: a few
        matrices take one lookup of all n*k*m products, and larger batches
        go one k at a time, which keeps the temporaries at n*m per
        matrix."""
        if a.size * b.shape[-1] <= SMALL_PRODUCT:
            return np.bitwise_xor.reduce(self._mul[a[..., :, :, None], b[..., None, :, :]], axis=-2)
        acc = self._mul[a[..., :, 0, None], b[..., None, 0, :]]
        for k in range(1, a.shape[-1]):
            acc ^= self._mul[a[..., :, k, None], b[..., None, k, :]]
        return acc

    def minus_identity_last(self, a):
        """M - I for every M of a batch-last (n, n, N) uint8 payload stack,
        in uint8.  Over Z/|F| the uint8 subtraction wraps only 0 - 1, to
        255, which min(., |F| - 1) takes to -1 = |F| - 1."""
        eye = _identity_last(a.shape[0])
        if not self.modular:
            return a ^ eye
        delta = a - eye
        return np.minimum(delta, self.order - 1, out=delta)

    def matmul_last(self, a, b):
        """Batched matrix product with the batch on the last axis: a is
        (n, k, N) and b is (k, m, N), the product (n, m, N).  Modular
        products are one einsum in the narrowest unsigned dtype that holds
        a sum of k products, k (|F|-1)^2 (einsum given the dtype itself
        runs several times slower), reduced mod |F| in place as
        x - (x // |F|) |F|, which numpy runs several times faster than
        ``np.remainder`` on uint8 and uint16.  Otherwise every product
        a_ik b_kj is one lookup in the flattened uint8 table, at the uint16
        code |F| a_ik + b_kj, XOR-summed over k; the lookups go
        LAST_CHUNK matrices at a time, since numpy copies their codes to
        intp."""
        k = a.shape[1]
        if self.modular:
            wide = _narrowest_unsigned(k * (self.order - 1) ** 2)
            a, b = a.astype(wide, copy=False), b.astype(wide, copy=False)
            prod = np.einsum("ikN,kjN->ijN", a, b)
            prod -= prod // self.order * self.order
            return prod
        rows = a.astype(np.uint16) * self.order  # where a_ik's row starts in the flat table
        out = np.empty((a.shape[0], b.shape[1], a.shape[2]), dtype=np.uint8)
        for start in range(0, a.shape[2], LAST_CHUNK):
            part = slice(start, start + LAST_CHUNK)
            codes = rows[:, :, None, part] + b[None, :, :, part]
            np.bitwise_xor.reduce(self._mul.take(codes), axis=1, out=out[..., part])
        return out


def _payload_stack(*mats: Matrix) -> np.ndarray:
    """The payloads of matrices of one shape as one (len, rows, cols) uint8 array."""
    return np.array([m.payload_rows for m in mats], np.uint8).reshape(len(mats), *mats[0].shape)


def _array_matrix(field, array) -> Matrix:
    """The unchecked Matrix on the rows of a 2-D array of canonical payloads."""
    return Matrix._trusted(field, tuple(map(tuple, array.tolist())), array.shape[1])


@functools.lru_cache(maxsize=None)
def _identity_last(n: int) -> np.ndarray:
    """The n x n identity as a read-only batch-last (n, n, 1) uint8 stack."""
    eye = np.eye(n, dtype=np.uint8)[:, :, None]
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=None)
def _batch_arith(field) -> _BatchArith:
    return _BatchArith(field)
