"""Exact batched arithmetic on numpy arrays of finite-field payloads.

One :class:`_BatchArith` per field (:func:`_batch_arith`), built from the
field's own tables (``fields.field_tables``), runs the oracle's
enumeration and filters and the final checks of
``clifford.explicit_matrix_iso``.  Only this module and ``oracle`` import
numpy at the top, and ``oracle`` imports this one; ``clifford`` reaches
both only inside its explicit-model functions.  So ``import wallforms``
and the ``analyze``, ``decompose`` and ``clifford`` commands load no numpy.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TooLarge, UnsupportedField
from .fields import _FiniteField, field_tables

# cached: a one-element stack's product costs a few microseconds, and
# min_scalar_type would add half a microsecond to each
_narrowest_unsigned = functools.lru_cache(maxsize=None)(np.min_scalar_type)

SMALL_PRODUCT = 1 << 12  # products below which one gather beats a loop over k
LAST_CHUNK = 1 << 10  # matrices per lookup of matmul_last; bounds the intp codes


class _BatchArith:
    """Exact batched arithmetic on payload arrays over one finite field.

    Products and inverses are read from ``fields.field_tables``, the
    field's own payload ``mul`` and ``div`` tabulated once over all payloads
    0 .. |F|-1 and shared with the exact kernel of ``linalg``.  Where the
    product table and the field's ``add`` are those of the integers mod |F|
    (prime fields and GF(2), checked here), batched products use numpy's
    integer matmul mod |F|; otherwise they are table lookups summed by XOR,
    which ``add`` must then be.  Arguments and results are integer arrays of
    payloads.  :meth:`matmul` takes the batch on the leading axes and
    computes in intp; :meth:`matmul_last` and :meth:`minus_identity_last`
    take uint8 stacks with the batch on the last axis, (n, n, N), and keep
    their products as narrow as the values allow.  Build it through
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
        leading axes; a is (..., n, k) and b is (..., k, m).  Without
        modular arithmetic, a few matrices take one lookup of all n*k*m
        products, and larger batches go one k at a time, which keeps the
        temporaries at n*m per matrix."""
        if self.modular:
            return np.matmul(a, b, dtype=np.intp) % self.order
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
        a sum of k products, k (|F|-1)^2, then mod |F| (einsum given the
        dtype itself runs several times slower).  Otherwise every product
        a_ik b_kj is one lookup in the flattened uint8 table, at the uint16
        code |F| a_ik + b_kj, XOR-summed over k; the lookups go
        LAST_CHUNK matrices at a time, since numpy copies their codes to
        intp."""
        k = a.shape[1]
        if self.modular:
            wide = _narrowest_unsigned(k * (self.order - 1) ** 2)
            a, b = a.astype(wide, copy=False), b.astype(wide, copy=False)
            prod = np.einsum("ikN,kjN->ijN", a, b)
            return np.remainder(prod, self.order, out=prod)
        rows = a.astype(np.uint16) * self.order  # where a_ik's row starts in the flat table
        out = np.empty((a.shape[0], b.shape[1], a.shape[2]), dtype=np.uint8)
        for start in range(0, a.shape[2], LAST_CHUNK):
            part = slice(start, start + LAST_CHUNK)
            codes = rows[:, :, None, part] + b[None, :, :, part]
            np.bitwise_xor.reduce(self._mul.take(codes), axis=1, out=out[..., part])
        return out


@functools.lru_cache(maxsize=None)
def _identity_last(n: int) -> np.ndarray:
    """The n x n identity as a read-only batch-last (n, n, 1) uint8 stack."""
    eye = np.eye(n, dtype=np.uint8)[:, :, None]
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=None)
def _batch_arith(field) -> _BatchArith:
    return _BatchArith(field)
