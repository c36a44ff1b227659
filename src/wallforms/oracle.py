"""Brute-force enumeration of orthogonal groups and exhaustive verification.

Two enumeration methods:

* exhaustive matrix scan -- the matrices built column by column, each
  column one boolean mask over q(v) and the pairings b(col_i, v) of every
  vector v (q preserved on each column, pairings preserved between
  columns), so the result set equals the set of all matrices passing
  validation;
* generator closure -- breadth-first closure of the subgroup generated by
  all reflections and all Eichler transformations.

Both methods work on payload arrays end to end, and meet ``Matrix`` only
through the bridge of :mod:`batched`.  One batched
arithmetic per field (:class:`batched._BatchArith`, the library's numpy
arithmetic, which this module loads at import) is tabulated from the
field's own payload ``mul``/``div``; it builds every generator matrix as
one batch from the payload matrices of Q and B, and checks that batch once
against the isometry condition.  The closure keeps its elements as uint64
keys (the n*n payloads as base-|F| digits, row by row), deduplicated by a
sort and searchsorted, and multiplies them by generators on the keys
alone; it therefore needs |F|^(n*n) <= 2^64.  Key order is payload order,
row by row, the canonical order of an enumeration.  An enumeration holds
its group as one read-only uint8 array with the batch last, (n, n, N):
the closure decodes its keys into that layout digit by digit, and the
unipotent, involution and identity filters read it as it is, each one
narrow product or comparison with no int64 temporary of the group's size.
Each element is proven an isometry once, where its enumeration is made:
by the scan, the closure, or a batched check when a caller builds it
(:class:`GroupEnumeration`).

Verification runners re-check the library's structural claims over every
applicable element of an enumerated group and report counterexamples.
Each runner is a check of one element (with its precondition, set-up and
element filter), run by one loop (:func:`_check_each`) that counts the
failures and builds the report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CharacteristicNot2,
    DescriptorMismatch,
    DimensionMismatch,
    InvariantViolation,
    NotAnIsometry,
    PreconditionError,
    TooLarge,
    UnknownMethod,
    UnknownTheorem,
    WallformsError,
)
from .batched import _BatchArith, _array_matrix, _batch_arith, _identity_last, _payload_stack
from .fields import Galois2Field, PrimeField
from .linalg import Matrix
from .quadspace import QuadraticSpace, Subspace, _same_space
from .isometry import Isometry
from .wallform import wall_form
from .decompose import complement_W, decompose, interchange_normal_basis
from .clifford import (
    algebra_for_space,
    alternating_generators_check,
    explicit_matrix_iso,
    goldman_element,
    involution_type,
    natural_involution,
    pfister_invariant,
    phi_subalgebra,
    square_scalar_check,
)

SCAN_LIMIT = 1 << 24
CLOSURE_ELEMENT_LIMIT = 2_000_000
GENERATOR_VECTOR_LIMIT = 100_000
AUTO_SCAN_LIMIT = 1 << 17


# ---------------------------------------------------------------------------
# payload-level helpers
# ---------------------------------------------------------------------------

def _field_codes(field):
    """Payload codes for numpy work; only finite prime/galois2 fields."""
    if isinstance(field, (PrimeField, Galois2Field)):
        return list(field.payloads())
    raise TooLarge(f"cannot enumerate over {field.literal()}")


# ---------------------------------------------------------------------------
# element keys
# ---------------------------------------------------------------------------

BATCH_ROWS = 1 << 16  # matrices per batched product; bounds the temporaries


def _keys(mats, size: int) -> np.ndarray:
    """One uint64 key per matrix (or row): its payloads read as base-`size`
    digits, row by row.  Every payload is below `size`, so keys sort
    exactly as the payloads do lexicographically; they need
    size ** (entries per matrix) <= 2 ** 64."""
    flat = np.asarray(mats).reshape(len(mats), -1).astype(np.uint64)
    return flat @ np.uint64(size) ** np.arange(flat.shape[1] - 1, -1, -1, dtype=np.uint64)


def _decode(keys, size: int, n: int) -> np.ndarray:
    """The batch-last (n, n, N) uint8 payloads behind `keys`: digit k is row
    k of an (n*n, N) array, made one digit at a time (the temporaries stay
    one key array wide)."""
    digits = np.empty((n * n, len(keys)), dtype=np.uint8)
    rest, base = keys.copy(), np.uint64(size)
    for k in range(n * n - 1, -1, -1):
        digits[k] = rest % base
        rest //= base
    return digits.reshape(n, n, len(keys))


def _unique_rows(mats) -> np.ndarray:
    """The distinct matrices as flat uint8 payload rows, in lexicographic
    order; any payload count per matrix, so no key width to respect.  A
    lexsort takes a tenth of the time of np.unique(axis=0) here."""
    flat = np.asarray(mats, dtype=np.uint8).reshape(len(mats), -1)
    if flat.shape[1]:  # lexsort needs a key; matrices of no entries are all equal
        flat = flat[np.lexsort(flat.T[::-1])]
    fresh = np.ones(len(flat), dtype=bool)
    fresh[1:] = (flat[1:] != flat[:-1]).any(axis=1)
    return flat[fresh]


def _sorted_unique(keys) -> np.ndarray:
    """The distinct keys, sorted (faster than np.unique on integer keys)."""
    keys = np.sort(keys)
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _positions(sorted_keys, keys):
    """Where `keys` go in the nonempty sorted key array, and which of them
    are there already."""
    pos = np.searchsorted(sorted_keys, keys)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def _all_vectors(size: int, n: int) -> np.ndarray:
    """Every payload vector, in base-|F| code order (first coordinate slowest)."""
    codes = np.arange(size ** n)[:, None]
    return (codes // size ** np.arange(n - 1, -1, -1) % size).astype(np.uint8)


def _vector_forms(arith: _BatchArith, qmat, gram, vecs) -> tuple[np.ndarray, np.ndarray]:
    """q(v) and the row (B v)^T of each payload vector v, a row of `vecs`,
    as batched products from the payload arrays of Q and B = Q + Q^T."""
    qvec = arith.matmul(arith.matmul(vecs[:, None, :], qmat), vecs[:, :, None])[:, 0, 0]
    return qvec, arith.matmul(vecs, gram)


def _normalised_vectors(size: int, n: int):
    """Every payload vector, the position of its leading nonzero coordinate,
    and the mask of those led by 1 (one vector per line)."""
    vecs = _all_vectors(size, n)
    lead = np.argmax(vecs != 0, axis=1)
    return vecs, lead, vecs[np.arange(len(vecs)), lead] == 1


# ---------------------------------------------------------------------------
# group enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupEnumeration:
    """Isometries of one space, stored as one read-only, C-contiguous uint8
    array with the batch last, (n, n, N); `payloads` is its (N, n, n) view.
    The scan and the closure make theirs unchecked (:meth:`_trusted`), in
    canonical order.  One built by a caller is range-checked in its own
    dtype, copied once into that layout and checked there as one batch.
    The filters read the stored array itself."""

    space: QuadraticSpace
    method: str
    payloads: np.ndarray

    def __post_init__(self):
        n, arith = self.space.dim, _batch_arith(self.space.field)
        try:
            stack = np.asarray(self.payloads)
        except ValueError:  # ragged
            stack = np.empty(0)
        if stack.shape[1:] != (n, n):
            raise DimensionMismatch(f"expected a stack of {n} x {n} payload matrices")
        # before the narrowing to uint8, so that I + 256 is not taken for I
        if stack.dtype.kind not in "iu" or ((stack < 0) | (stack >= arith.order)).any():
            raise DescriptorMismatch(f"payloads must be integers 0 .. {arith.order - 1}")
        # always a copy: a batch-last-contiguous stack would be aliased by
        # np.ascontiguousarray and stay writable through the caller's array
        last = np.array(stack.transpose(1, 2, 0), dtype=np.uint8, order="C")
        _check_isometries(arith, last.transpose(2, 0, 1), _payload_stack(self.space.qmat)[0],
                          NotAnIsometry)
        self.__dict__.update(vars(self._trusted(self.space, self.method, last)))

    @classmethod
    def _trusted(cls, space: QuadraticSpace, method: str, last: np.ndarray):
        """The enumeration on a new batch-last uint8 array of isometries, kept
        read-only with `payloads` its (N, n, n) view; no check."""
        last.flags.writeable = False
        self = object.__new__(cls)
        self.__dict__.update(space=space, method=method, payloads=last.transpose(2, 0, 1))
        return self

    def __eq__(self, other):
        """Same space, same method and the same elements in the same order."""
        if not isinstance(other, GroupEnumeration):
            return NotImplemented
        return (self.space == other.space and self.method == other.method
                and np.array_equal(self.payloads, other.payloads))

    def __hash__(self):
        return hash((self.space, self.method, self.order))

    @property
    def order(self) -> int:
        return self.payloads.shape[0]

    def payload_rows(self, i: int):
        return tuple(map(tuple, self.payloads[i].tolist()))

    def isometry(self, i: int) -> Isometry:
        """Element i, proven an isometry when the enumeration was made."""
        return Isometry._trusted(self.space, _array_matrix(self.space.field, self.payloads[i]))

    def isometries(self):
        return map(self.isometry, range(self.order))

    def contains_payload(self, rows) -> bool:
        """Whether the n x n payload `rows` are an enumerated element,
        compared entry by entry: nothing is reduced mod |F| or narrowed,
        so an entry outside 0 .. |F|-1 matches no element."""
        n = self.space.dim
        try:
            rows = np.asarray(rows)
        except ValueError:  # ragged rows
            rows = np.empty(0)
        if rows.shape != (n, n):
            raise DimensionMismatch(f"expected {n} x {n} payload rows")
        return bool((self.payloads == rows).all(axis=(1, 2)).any())

    def unipotent2_indices(self) -> list[int]:
        """The elements with (M - I)^2 = 0, from one batch-last product."""
        arith = _batch_arith(self.space.field)
        delta = arith.minus_identity_last(self.payloads.transpose(1, 2, 0))
        return np.nonzero(~arith.matmul_last(delta, delta).any(axis=(0, 1)))[0].tolist()

    def involution_indices(self) -> list[int]:
        """The elements with M^2 = I, from one batch-last product."""
        stored = self.payloads.transpose(1, 2, 0)
        square = _batch_arith(self.space.field).matmul_last(stored, stored)
        return np.nonzero(_is_identity(square))[0].tolist()

    def identity_index(self) -> int:
        """The first element equal to I, by one comparison."""
        hits = np.nonzero(_is_identity(self.payloads.transpose(1, 2, 0)))[0]
        if not len(hits):
            raise WallformsError("identity missing from enumeration")
        return int(hits[0])


def _is_identity(stack) -> np.ndarray:
    """Whether each matrix of a batch-last (n, n, N) stack is I."""
    return (stack == _identity_last(len(stack))).all(axis=(0, 1))


def _finish(space: QuadraticSpace, method: str, mats) -> GroupEnumeration:
    """Wrap enumerated matrices, sorted canonically (by payloads, row by row)."""
    rows = np.ascontiguousarray(_unique_rows(mats).T)  # (n*n, N), the batch last
    n, count = space.dim, rows.shape[1]
    return GroupEnumeration._trusted(space, method, rows.reshape(n, n, count))


def _scan(space: QuadraticSpace) -> GroupEnumeration:
    """Column by column, every partial matrix extended by every vector v with
    q(v) = Q_cc and b(col_i, v) = B_ic for each earlier column i, one mask
    per column: the matrices left are exactly those that pass validation."""
    arith = _batch_arith(space.field)
    n = space.dim
    vecs = _all_vectors(arith.order, n)
    qmat, gram = _payload_stack(space.qmat, space.gram)
    qvec, bvec = _vector_forms(arith, qmat, gram, vecs)
    chosen = np.zeros((1, 0), dtype=np.intp)  # vector indices of the columns so far
    for c in range(n):
        pairings = arith.matmul(bvec[chosen], vecs.T)  # b(col_i, v), (K, c, |F|^n)
        keep = (qvec == qmat[c, c]) & (pairings == gram[:c, c, None]).all(axis=1)
        partial, fresh = np.nonzero(keep)
        chosen = np.column_stack([chosen[partial], fresh])
    return _finish(space, "exhaustive-matrix-scan", vecs[chosen].transpose(0, 2, 1))


def _check_isometries(arith: _BatchArith, mats, qmat, error):
    """Raise `error` unless every matrix preserves q: N = M^T Q M - Q must
    have a zero diagonal and N + N^T = 0, checked for the whole batch."""
    defect = arith.sub(arith.matmul(arith.matmul(mats.transpose(0, 2, 1), qmat), mats), qmat)
    bad = (np.diagonal(defect, axis1=1, axis2=2).any(axis=1)
           | arith.add(defect, defect.transpose(0, 2, 1)).any(axis=(1, 2)))
    if bad.any():
        raise error(f"{int(bad.sum())} of {len(mats)} matrices do not preserve q")


def standard_generators(space: QuadraticSpace) -> list[np.ndarray]:
    """Deduplicated uint8 payload matrices of all reflections and all Eichler
    transformations of the space, built as one payload batch from Q and
    B = Q + Q^T and checked once, as a batch, to preserve q.

    Reflections run over anisotropic u with leading coordinate 1:
    M = I - u (B u)^T / q(u).  Eichler transformations run over isotropic x
    with leading coordinate 1 (at position p) and w in x-perp with w_p = 0,
    a complement of F x there, since E(x, w + c x) = E(x, w):
    M = I + w (B x)^T - x (B w + q(w) B x)^T."""
    arith = _batch_arith(space.field)
    n, size = space.dim, arith.order
    if size ** n > GENERATOR_VECTOR_LIMIT:
        raise TooLarge("vector enumeration too large for generator construction")
    if not n:
        return []  # the zero space has no nonzero vector
    eye = _identity_last(n)[:, :, 0]
    vecs, lead, normalised = _normalised_vectors(size, n)
    qmat, gram = _payload_stack(space.qmat, space.gram)
    qvec, bvec = _vector_forms(arith, qmat, gram, vecs)      # bvec rows (B v)^T

    aniso = normalised & (qvec != 0)
    u = vecs[aniso]
    coef = arith.mul(bvec[aniso], arith.inv[qvec[aniso]][:, None])
    parts = [_unique_rows(arith.sub(eye, arith.mul(u[:, :, None], coef[:, None, :])))]

    iso = np.flatnonzero(normalised & (qvec == 0))
    chunk = max(1, BATCH_ROWS // len(vecs))
    for start in range(0, len(iso), chunk):
        xs = iso[start:start + chunk]
        # pairs (x, w): b(x, w) = 0 and w vanishes at the leading position of x
        pair = (arith.matmul(bvec[xs], vecs.T) == 0) & (vecs[:, lead[xs]].T == 0)
        xi, wi = np.nonzero(pair)
        x, bx = vecs[xs][xi], bvec[xs][xi]
        w, bw = vecs[wi], arith.add(bvec[wi], arith.mul(qvec[wi][:, None], bx))
        mats = arith.add(eye, arith.sub(arith.mul(w[:, :, None], bx[:, None, :]),
                                        arith.mul(x[:, :, None], bw[:, None, :])))
        parts.append(_unique_rows(mats))
        if sum(map(len, parts)) > CLOSURE_ELEMENT_LIMIT:
            parts = [_unique_rows(np.concatenate(parts))]
            if len(parts[0]) > CLOSURE_ELEMENT_LIMIT:
                raise TooLarge("more generators than the closure element cap")
    gens = _unique_rows(np.concatenate(parts)).reshape(-1, n, n)
    _check_isometries(arith, gens, qmat, InvariantViolation)
    return list(gens)


def _closure(space: QuadraticSpace) -> GroupEnumeration:
    """Breadth-first closure under right multiplication by generators.

    Generators join one at a time, each only if the group built so far
    misses it: then every element is multiplied by it, and each element
    found from there on by every active generator.  Elements are kept as
    one sorted array of uint64 keys (:func:`_keys`), so the space must have
    |F|^(n*n) <= 2^64, checked before any work.  Right multiplication by g
    works on keys alone: row i of a matrix is the key's i-th base-|F|^n
    digit, the row's code; r g is read from a table of the codes of v g
    over every vector v, and the product's key is the sum of the new row
    codes times their weights.  Products are made in batches of at most
    BATCH_ROWS matrices, and TooLarge is raised before a batch's new
    elements would take the count past CLOSURE_ELEMENT_LIMIT."""
    n = space.dim
    arith = _batch_arith(space.field)
    size = arith.order
    if size ** (n * n) > 1 << 64:
        raise TooLarge(f"closure element keys need |F|^(n*n) <= 2^64, not {size}^{n * n}")
    eye = _identity_last(n)[:, :, 0]
    gens = standard_generators(space) or [eye]
    gen_keys = _keys(gens, size)
    vecs = _all_vectors(size, n)
    # the weight of row i in a key, as a column: |F|^(n(n-1-i))
    row_weights = np.uint64(size) ** (n * np.arange(n - 1, -1, -1, dtype=np.uint64))[:, None]
    row_count = np.uint64(size ** n)
    known = _keys([eye], size)
    active = []                                # code tables (|F|^n,) of v -> v g

    def step(sources, tables):
        """Multiply `sources` (keys) by each generator behind `tables`;
        keep and return the keys of the new products."""
        nonlocal known
        rows = max(1, BATCH_ROWS // len(tables))
        tables = np.stack(tables)
        found = []
        for start in range(0, len(sources), rows):
            codes = (sources[start:start + rows] // row_weights % row_count).astype(np.intp)
            new = _sorted_unique((tables[:, codes] * row_weights).sum(axis=1).ravel())
            pos, old = _positions(known, new)
            new, pos = new[~old], pos[~old]
            if len(known) + len(new) > CLOSURE_ELEMENT_LIMIT:
                raise TooLarge("closure exceeded the element cap")
            known = np.insert(known, pos, new)
            found.append(new)
        return np.concatenate(found)

    while True:
        missing = np.flatnonzero(~_positions(known, gen_keys)[1])
        if not len(missing):
            break
        active.append(_keys(arith.matmul(vecs, gens[missing[0]]), size))
        frontier = step(known, active[-1:])
        while len(frontier):
            frontier = step(frontier, active)
    # keys are sorted, so the payloads come out in canonical order
    return GroupEnumeration._trusted(space, "generator-closure", _decode(known, size, n))


def enumerate_orthogonal_group(space: QuadraticSpace, method: str = "auto") -> GroupEnumeration:
    field = space.field
    order = field.order()
    if order is None:
        raise TooLarge("the coefficient field is infinite")
    if method == "auto":
        method = "scan" if order ** (space.dim ** 2) <= AUTO_SCAN_LIMIT else "closure"
    if method == "scan":
        if order ** (space.dim ** 2) > SCAN_LIMIT:
            raise TooLarge("matrix space exceeds the exhaustive-scan cap")
        return _scan(space)
    if method == "closure":
        return _closure(space)
    raise UnknownMethod(f"unknown enumeration method {method!r}; known: auto, scan, closure")


def enumerate_unipotent2(space: QuadraticSpace, enum: GroupEnumeration | None = None) -> list[Isometry]:
    """All enumerated isometries with (tau - id)^2 = 0 (identity included)."""
    enum = enum if enum is not None else enumerate_orthogonal_group(space)
    return [enum.isometry(i) for i in enum.unipotent2_indices()]


# ---------------------------------------------------------------------------
# exhaustive verification of the structural claims
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    theorem: str
    checked: int
    failed: int
    examples: list[str]

    def as_dict(self):
        return {
            "theorem": self.theorem,
            "checked": self.checked,
            "failed": self.failed,
            "examples": self.examples[:10],
        }


def _descr(iso: Isometry) -> str:
    return "[" + "; ".join(
        " ".join(str(e) for e in row) for row in iso.mat.rows
    ) + "]"


def _check_each(theorem: str, items, holds, catch=(), describe=_descr) -> VerifyReport:
    """Run `holds` on every item: it returns whether the claim holds there,
    or None where the claim does not apply (not counted).  An exception of
    a class in `catch` counts as a failure; any other propagates."""
    checked = failed = 0
    examples = []
    for item in items:
        try:
            ok = holds(item)
        except catch:
            ok = False
        if ok is None:
            continue
        checked += 1
        if not ok:
            failed += 1
            examples.append(describe(item))
    return VerifyReport(theorem, checked, failed, examples)


def _run_tauid(space, enum: GroupEnumeration) -> VerifyReport:
    indices = range(enum.order)
    if enum.order > 5000:
        # large groups: run the full three-way check on a prefix sample plus
        # every nilpotent element (found by the batched matrix filter)
        indices = sorted(set(enum.unipotent2_indices()) | set(range(5000)))

    def holds(iso):
        nilpotent = iso.is_unipotent2()
        r, k = iso.residual_space(), iso.fixed_space()
        contained, singular = k.contains_subspace(r), r.is_totally_singular()
        return nilpotent == contained == singular
    return _check_each("tauid", map(enum.isometry, indices), holds)


def _proper_regular_subspaces(space: QuadraticSpace) -> list[Subspace]:
    """Every proper nonzero regular subspace, by dimension (d + 1: those of
    dimension d plus a line outside them); desk-scale spaces only."""
    size, n = len(_field_codes(space.field)), space.dim
    if size ** n > 4096:
        raise TooLarge("subspace enumeration too large")
    vecs, _, normalised = _normalised_vectors(size, n)
    vectors = [space.field.wrap_all(v) for v in vecs[normalised].tolist()]
    lines = [Subspace.from_vectors(space, [v]) for v in vectors]
    levels = [{s.basis: s for s in lines}]
    while len(levels) < n - 1:
        nxt = {}
        for s in levels[-1].values():
            for v, line in zip(vectors, lines):
                if not s.contains(v):
                    bigger = s.subspace_sum(line)
                    nxt.setdefault(bigger.basis, bigger)
        levels.append(nxt)
    return [s for level in levels[:n - 1] for s in level.values() if s.is_regular()]


def _has_invariant_subspace(iso: Isometry, subspaces) -> bool:
    """Whether iso maps one of `subspaces` into itself (checked on its basis)."""
    return any(all(s.contains(iso.apply(v)) for v in s.basis.rows) for s in subspaces)


def _run_defint(space, enum: GroupEnumeration) -> VerifyReport:
    if space.dim != 4:
        raise PreconditionError("the interchange characterization is 4-dimensional")
    regs = _proper_regular_subspaces(space)

    def holds(iso):
        # a normal basis would force a 2-dim totally isotropic fixed space
        c1 = c2 = iso.is_interchange()
        if c1:
            try:
                interchange_normal_basis(iso)
            except WallformsError:
                c2 = False
        c3 = iso.is_unipotent2() and not _has_invariant_subspace(iso, regs)
        return c1 == c2 == c3
    return _check_each("defint", enum.isometries(), holds)


def _run_char(space, enum: GroupEnumeration) -> VerifyReport:
    def holds(iso):
        decompose(iso)  # validated there, the block-count law included
        return True
    return _check_each("char", map(enum.isometry, enum.unipotent2_indices()), holds,
                       WallformsError)


def _run_vprime(space, enum: GroupEnumeration) -> VerifyReport:
    """tau fixes W pointwise, keeps W-perp (of dimension 2 dim R), and fixes
    and moves W-perp onto R = im(tau - 1); tau and tau - 1 act on a basis
    as one product each."""
    def holds(iso):
        w = complement_W(iso)  # raises unless W is regular
        r = iso.residual_space()
        wperp = w.orthogonal_complement()
        moves = iso.displacement().transpose()  # rows v -> (tau - 1) v
        images = wperp.basis * iso.mat.transpose()
        moved = wperp.basis * moves
        return (wperp.dim == 2 * r.dim
                and (w.basis * moves).is_zero()
                and iso.fixed_space().intersection(wperp) == r
                and Subspace.span(space, images) == wperp
                and Subspace.span(space, moved) == r)
    return _check_each("v'", map(enum.isometry, enum.unipotent2_indices()), holds,
                       WallformsError)


def _run_res(space, enum: GroupEnumeration) -> VerifyReport:
    if space.field.characteristic() != 2:
        raise CharacteristicNot2("involution-type comparison requires characteristic 2")
    alg = algebra_for_space(space)

    def holds(iso):
        t = involution_type(natural_involution(iso, alg))
        return t == ("orthogonal" if iso.residual_space() == iso.fixed_space() else "symplectic")
    return _check_each("res", map(enum.isometry, enum.involution_indices()), holds)


def _run_g(space, enum: GroupEnumeration) -> VerifyReport:
    if space.field.characteristic() != 2:
        raise CharacteristicNot2("conjugating elements require characteristic 2")

    def holds(iso):
        goldman_element(iso, "frame")
        goldman_element(iso, "swap-plane")
        return True
    isos = (iso for iso in map(enum.isometry, enum.involution_indices()) if iso.is_interchange())
    return _check_each("g", isos, holds, WallformsError)


def _run_clif(space, enum: GroupEnumeration) -> VerifyReport:
    """Over an enumerated (so finite) field of characteristic 2 the
    transpose criterion must hold; `explicit_matrix_iso` evaluates it and
    raises CriterionFails where it does not."""
    if space.field.characteristic() != 2:
        raise CharacteristicNot2("the invariant suite requires characteristic 2")

    def holds(iso):
        wf = wall_form(iso)
        phi_subalgebra(iso)  # verifies the residual-subalgebra isomorphism
        pf = pfister_invariant(iso)
        if wf.is_alternating():
            # the alternating case must give unit generators
            if any(g != space.field.one for g in pf.generators):
                return False
        elif not alternating_generators_check(iso, wf.orthogonal_basis()[0]).ok:
            return False
        model = explicit_matrix_iso(iso)
        alg, residual = model.algebra, iso.residual_space().basis
        # residual images are symmetric with square q(u) I, q(u) a square
        return all(square_scalar_check(model.apply(alg._vector(u)), qu)
                   for u, qu in zip(residual.payload_rows, space.q_values(residual)))
    isos = (iso for iso in map(enum.isometry, enum.involution_indices())
            if iso.residual_space() == iso.fixed_space())
    return _check_each("clif", isos, holds, WallformsError)


def _symmetric_payload_matrices(field, n):
    codes = _field_codes(field)
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for assign in itertools.product(codes, repeat=len(upper)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), c in zip(upper, assign):
            rows[i][j] = c
            rows[j][i] = c
        yield Matrix.from_payloads(field, rows)


def _run_totimes(space, enum=None) -> VerifyReport:
    field = space.field
    if field.characteristic() != 2:
        raise CharacteristicNot2("the symmetric-square law is a characteristic-2 statement")
    size = field.order()
    if size is None:
        raise TooLarge("the coefficient field is infinite")

    def holds(x):
        sq = x * x
        c = sq[0, 0]
        if sq != Matrix.identity(field, x.nrows).scale(c):
            return None
        return square_scalar_check(x, c)
    mats = (x for n in (2, 3) if size ** (n * (n + 1) // 2) <= 4096
            for x in _symmetric_payload_matrices(field, n))
    return _check_each("totimes", mats, holds, describe=repr)


_RUNNERS = {
    "tauid": (_run_tauid, True),
    "defint": (_run_defint, True),
    "char": (_run_char, True),
    "v'": (_run_vprime, True),
    "vprime": (_run_vprime, True),
    "res": (_run_res, True),
    "g": (_run_g, True),
    "clif": (_run_clif, True),
    "totimes": (_run_totimes, False),
}


def exhaustive_verify(theorem: str, space: QuadraticSpace,
                      enum: GroupEnumeration | None = None) -> VerifyReport:
    entry = _RUNNERS.get(theorem)
    if entry is None:
        raise UnknownTheorem(f"unknown theorem id {theorem!r}; "
                             f"known: {sorted(set(_RUNNERS) - {'vprime'})}")
    runner, needs_group = entry
    if enum is not None:
        _same_space(space, enum.space, "a space and an enumeration")
    if needs_group:
        return runner(space, enum if enum is not None else enumerate_orthogonal_group(space))
    return runner(space)
