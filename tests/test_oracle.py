"""Group enumeration: orders, closure properties, method agreement."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

import wallforms as wf
from wallforms import oracle
from wallforms.errors import (
    DescriptorMismatch,
    InvariantViolation,
    NotAnIsometry,
    TooLarge,
    UnknownTheorem,
)
from wallforms.oracle import (
    _batch_arith,
    _closure,
    _keys,
    standard_generators,
)


@pytest.fixture(scope="module")
def group_h4f2(h4f2):
    return wf.enumerate_orthogonal_group(h4f2)


def test_h4f2_order(group_h4f2):
    assert group_h4f2.order == 72
    assert group_h4f2.method == "exhaustive-matrix-scan"


def test_scan_is_idempotent(h4f2, group_h4f2):
    again = wf.enumerate_orthogonal_group(h4f2)
    assert (again.payloads == group_h4f2.payloads).all()


def scan_flat(space):
    """Plain scan over every matrix: the reference for the backtracking
    scan (tiny spaces only)."""
    tables = oracle._space_tables(space)
    n = space.dim
    if len(tables.vectors) ** n > oracle.AUTO_SCAN_LIMIT:
        raise TooLarge("flat scan is for tiny spaces")
    unit = lambda i: tables.index[tuple(1 if j == i else 0 for j in range(n))]  # noqa: E731
    results = []
    for cols in itertools.product(range(len(tables.vectors)), repeat=n):
        ok = all(tables.qvals[c] == tables.qvals[unit(j)] for j, c in enumerate(cols))
        if ok:
            ok = all(
                tables.bvals[cols[i]][cols[j]] == tables.bvals[unit(i)][unit(j)]
                for i in range(n) for j in range(i + 1, n)
            )
        if ok:
            results.append(np.array([tables.vectors[c] for c in cols], dtype=np.int64).T)
    return oracle._finish(space, "exhaustive-matrix-scan", results)


def test_backtracking_scan_equals_flat_scan(h4f2, group_h4f2):
    flat = scan_flat(h4f2)
    assert flat.order == group_h4f2.order
    assert (flat.payloads == group_h4f2.payloads).all()


@pytest.fixture(scope="module")
def f3():
    return wf.parse_field("gf(3)")


@pytest.fixture(scope="module")
def h4f3(f3):
    return wf.QuadraticSpace.hyperbolic(f3, 2)


def test_closure_equals_scan(h4f2, group_h4f2, f4, f3, gf7_plane_sum, gf7_plane_split):
    clos = _closure(h4f2)
    assert np.array_equal(clos.payloads, group_h4f2.payloads)
    for space in (wf.QuadraticSpace.hyperbolic(f4, 1), wf.QuadraticSpace.hyperbolic(f3, 1),
                  gf7_plane_sum, gf7_plane_split):
        scan = wf.enumerate_orthogonal_group(space, "scan")
        assert np.array_equal(_closure(space).payloads, scan.payloads)


def test_gf2_hyperbolic_plane_order_two(f2):
    plane = wf.QuadraticSpace.hyperbolic(f2, 1)
    enum = wf.enumerate_orthogonal_group(plane)
    assert enum.order == 2


def test_every_element_is_an_isometry(group_h4f2):
    for tau in group_h4f2.isometries():
        pass  # construction re-validates the defining condition


def test_group_closed_under_product_and_inverse(group_h4f2, h4f2):
    isos = list(group_h4f2.isometries())
    for a in isos:
        inv_rows = [[e.payload for e in row] for row in a.inverse().mat.rows]
        assert group_h4f2.contains_payload(inv_rows)
    rng = random.Random(61)
    for _ in range(300):
        a, b = rng.choice(isos), rng.choice(isos)
        prod = (a * b).mat
        rows = [[e.payload for e in row] for row in prod.rows]
        assert group_h4f2.contains_payload(rows)


def test_identity_present(group_h4f2, h4f2):
    idx = group_h4f2.identity_index()
    assert group_h4f2.isometry(idx).is_identity()


def test_dim6_closure_self_consistent(f2):
    big = wf.QuadraticSpace.hyperbolic(f2, 3)
    enum = wf.enumerate_orthogonal_group(big)
    assert enum.method == "generator-closure"
    rng = random.Random(67)
    sample = [enum.isometry(rng.randrange(enum.order)) for _ in range(25)]
    for a in sample:
        rows = [[e.payload for e in row] for row in a.inverse().mat.rows]
        assert enum.contains_payload(rows)
    for _ in range(50):
        a, b = rng.choice(sample), rng.choice(sample)
        rows = [[e.payload for e in row] for row in (a * b).mat.rows]
        assert enum.contains_payload(rows)


def test_unipotent2_filter(group_h4f2, h4f2, tau_int):
    u2 = wf.enumerate_unipotent2(h4f2, group_h4f2)
    payload_set = {tau.mat for tau in u2}
    assert tau_int.mat in payload_set
    assert wf.identity_isometry(h4f2).mat in payload_set
    for tau in u2:
        assert tau.is_unipotent2()
    # complement check: everything not in the filter fails the condition
    for tau in group_h4f2.isometries():
        assert (tau.mat in payload_set) == tau.is_unipotent2()


def test_unipotent2_gf7_split_plane(gf7_plane_split):
    enum = wf.enumerate_orthogonal_group(gf7_plane_split)
    u2 = wf.enumerate_unipotent2(gf7_plane_split, enum)
    for tau in u2:
        assert tau.is_unipotent2()
    for tau in enum.isometries():
        assert tau.is_unipotent2() == any(tau.mat == s.mat for s in u2)


def test_infinite_field_rejected(r2t):
    with pytest.raises(TooLarge):
        wf.enumerate_orthogonal_group(r2t)


def test_unknown_theorem(h4f2):
    with pytest.raises(UnknownTheorem):
        wf.exhaustive_verify("nonsense", h4f2)


def test_verify_smoke(h4f2, group_h4f2):
    for theorem in ("tauid", "res", "g"):
        rep = wf.exhaustive_verify(theorem, h4f2, group_h4f2)
        assert rep.failed == 0
        assert rep.checked > 0


def test_verify_vprime_alias(h4f2, group_h4f2):
    rep = wf.exhaustive_verify("vprime", h4f2, group_h4f2)
    assert rep.theorem == "v'"
    assert rep.failed == 0


def test_tauid_gf7_diagonal_space(f7):
    space = wf.QuadraticSpace.from_int_rows(
        f7, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    enum = wf.enumerate_orthogonal_group(space)
    assert enum.method == "generator-closure"
    rep = wf.exhaustive_verify("tauid", space, enum)
    assert rep.failed == 0
    assert rep.checked > 0


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_subspace_enumeration_counts(h4f2, h4f4):
    from wallforms.oracle import _proper_regular_subspaces
    # characteristic 2: b(v, v) = 0, so no odd-dimensional subspace is regular
    # and the regular planes of a 4-dim space number q^2 (q^2 + 1)
    for space, q in ((h4f2, 2), (h4f4, 4)):
        regs = _proper_regular_subspaces(space)
        assert len({s.basis for s in regs}) == len(regs)
        by_dim = {}
        for s in regs:
            assert 0 < s.dim < 4
            assert s.is_regular()
            by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
        assert by_dim.get(1, 0) == 0
        assert by_dim.get(3, 0) == 0
        assert by_dim.get(2, 0) == q * q * (q * q + 1)
        assert len(regs) <= sum(_gaussian_binomial(4, k, q) for k in (1, 2, 3))


def test_scan_too_large_raises(h4f7):
    with pytest.raises(TooLarge):
        wf.enumerate_orthogonal_group(h4f7, "scan")


def test_explicit_closure_method(h4f2):
    enum = wf.enumerate_orthogonal_group(h4f2, "closure")
    assert enum.method == "generator-closure"
    assert enum.order == 72


def _split_orthogonal_order(q, n):
    """|O(2n, q, split type)| = 2 q^(n(n-1)) (q^n - 1) prod(q^(2i) - 1)."""
    order = 2 * q ** (n * (n - 1)) * (q ** n - 1)
    for i in range(1, n):
        order *= q ** (2 * i) - 1
    return order


def test_group_orders_match_classical_formula(h4f2, h4f3, h4f4, h4f7, f2):
    cases = [
        (h4f2, 2, 2),
        (h4f3, 3, 2),
        (h4f4, 4, 2),
        (h4f7, 7, 2),
        (wf.QuadraticSpace.hyperbolic(f2, 3), 2, 3),
    ]
    for space, q, n in cases:
        enum = wf.enumerate_orthogonal_group(space)
        assert enum.order == _split_orthogonal_order(q, n)


def _payload_key(iso):
    return tuple(e.payload for row in iso.mat.rows for e in row)


def _boxed_generators(space):
    """Reflections along every anisotropic u and Eichler transformations
    E(x, w) for every isotropic x and every w in x-perp, through the public
    boxed constructors (u and x with leading coordinate 1)."""
    one = space.field.one
    vectors = list(space.vectors())
    normalised = [v for v in vectors if next((c for c in v if c), None) == one]
    keys = {_payload_key(wf.reflection(space, u)) for u in normalised if space.eval_q(u)}
    for x in normalised:
        if not space.eval_q(x):
            keys |= {_payload_key(wf.eichler(space, x, w))
                     for w in vectors if not space.eval_b(x, w)}
    return keys


@pytest.mark.parametrize("name", ["h4f2", "h4f4", "gf7_plane_split"])
def test_standard_generators_match_boxed_construction(name, request):
    space = request.getfixturevalue(name)
    gens = standard_generators(space)
    keys = [tuple(int(x) for x in g.ravel()) for g in gens]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _boxed_generators(space)


def test_standard_generator_counts(h4f2, h4f4, h4f7, f2):
    for space, count in ((h4f2, 22), (h4f4, 316),
                         (wf.QuadraticSpace.hyperbolic(f2, 3), 344), (h4f7, 2737)):
        assert len(standard_generators(space)) == count


def test_generator_batch_is_checked_against_q(h4f2, f2):
    # a polar form that does not belong to q: the generators built from it
    # are not isometries of q, and the batch check must say so
    other = wf.QuadraticSpace.from_int_rows(
        f2, [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(InvariantViolation):
        standard_generators(dataclasses.replace(h4f2, gram=other.gram))


@pytest.mark.parametrize("name", ["h4f2", "gf7_plane_split", "h4f3"])
def test_batched_filters_match_predicates(name, request):
    space = request.getfixturevalue(name)
    enum = wf.enumerate_orthogonal_group(space)
    isos = list(enum.isometries())
    assert enum.unipotent2_indices() == [i for i, t in enumerate(isos) if t.is_unipotent2()]
    assert enum.involution_indices() == [i for i, t in enumerate(isos) if t.is_involution()]
    assert [enum.identity_index()] == [i for i, t in enumerate(isos) if t.is_identity()]


@pytest.mark.parametrize("literal, n", [("gf(16)", 4), ("gf(97)", 3)])
def test_keys_sort_as_tobytes(literal, n):
    size = wf.parse_field(literal).order()
    rng = np.random.default_rng(71)
    mats = rng.integers(0, size, size=(1500, n, n))
    mats = np.concatenate([mats, mats[:200]])          # repeats
    mats[-100:, -1, -1] = (mats[-100:, -1, -1] + 1) % size  # differ in the last byte only
    expected = sorted(range(len(mats)), key=lambda i: mats[i].tobytes())
    keys = _keys(mats)
    assert np.argsort(keys, kind="stable").tolist() == expected
    assert len(np.unique(keys)) == len({m.tobytes() for m in mats})


@pytest.mark.parametrize("literal", ["gf(2)", "gf(4)", "gf(256)", "gf(7)", "gf(97)"])
def test_batched_matmul_matches_boxed_product(literal):
    field = wf.parse_field(literal)
    arith = _batch_arith(field)
    rng = np.random.default_rng(73)

    def boxed(m):
        return wf.Matrix(field, [[wf.FieldElement(field, int(x)) for x in row] for row in m])

    for count in (3, 500):  # a few matrices, and a batch past SMALL_PRODUCT
        a, b = (rng.integers(0, field.order(), size=(count, 3, 3)) for _ in range(2))
        prods = arith.matmul(a, b)
        for i in range(0, count, 50):
            expected = [[e.payload for e in row] for row in (boxed(a[i]) * boxed(b[i])).rows]
            assert prods[i].tolist() == expected


def test_closure_raises_before_passing_the_element_cap(h4f4, monkeypatch):
    monkeypatch.setattr(oracle, "CLOSURE_ELEMENT_LIMIT", 7200)
    assert _closure(h4f4).order == 7200
    monkeypatch.setattr(oracle, "CLOSURE_ELEMENT_LIMIT", 7199)
    with pytest.raises(TooLarge):
        _closure(h4f4)


@pytest.mark.parametrize("name", ["h4f2", "gf8_plane", "gf7_plane_sum", "gf7_plane_split"])
def test_space_tables_match_boxed_forms(name, request, f8):
    space = (wf.QuadraticSpace.hyperbolic(f8, 1) if name == "gf8_plane"
             else request.getfixturevalue(name))
    tables = oracle._space_tables(space)
    vectors = list(space.vectors())
    assert len(tables.vectors) == len(vectors) == space.field.order() ** space.dim
    boxed = {tuple(c.payload for c in v): v for v in vectors}
    for i, u in enumerate(tables.vectors):
        assert tables.index[u] == i
        assert tables.qvals[i] == space.eval_q(boxed[u]).payload
        assert tables.bvals[i] == [space.eval_b(boxed[u], boxed[v]).payload
                                   for v in tables.vectors]


def test_enumeration_isometry_is_validated_payload_matrix(group_h4f2, h4f2):
    for i in range(group_h4f2.order):
        iso = group_h4f2.isometry(i)
        assert iso.mat.payload_rows == group_h4f2.payload_rows(i)
        assert iso.mat == wf.Matrix.from_ints(h4f2.field, group_h4f2.payload_rows(i))
    with pytest.raises(NotAnIsometry):
        oracle._payload_matrix_to_isometry(h4f2, np.ones((4, 4), dtype=np.int64))
    with pytest.raises(DescriptorMismatch):
        oracle._payload_matrix_to_isometry(h4f2, 2 * np.eye(4, dtype=np.int64))
