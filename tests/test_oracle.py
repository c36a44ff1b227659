"""Group enumeration: orders, closure properties, method agreement; the
verification runners against the loops they replaced."""

import dataclasses
import functools
import importlib
import itertools
import random
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wallforms as wf
from wallforms import oracle
from wallforms.errors import (
    CharacteristicNot2,
    DescriptorMismatch,
    DimensionMismatch,
    InvariantViolation,
    NotAnIsometry,
    NotInterchange,
    PreconditionError,
    TooLarge,
    UnknownMethod,
    UnknownTheorem,
    WallformsError,
)
from wallforms.fields import MAX_EXTENSION_DEGREE, MAX_PRIME
from wallforms.quadspace import Subspace
from wallforms.oracle import (
    _batch_arith,
    _closure,
    _decode,
    _keys,
    _sorted_unique,
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
    """Every matrix whose columns v_j have q(v_j) = q(e_j) and
    b(v_i, v_j) = b(e_i, e_j), as flat payload rows in canonical order:
    the reference for the scan, from the boxed eval_q and eval_b over
    every vector (tiny spaces only)."""
    vectors = list(space.vectors())
    n = space.dim
    if len(vectors) ** n > oracle.AUTO_SCAN_LIMIT:
        raise TooLarge("flat scan is for tiny spaces")
    qvals = [space.eval_q(v) for v in vectors]
    bvals = [[space.eval_b(u, v) for v in vectors] for u in vectors]
    unit = [vectors.index(space.basis_vector(j)) for j in range(n)]
    results = []
    for cols in itertools.product(range(len(vectors)), repeat=n):
        if all(qvals[c] == qvals[unit[j]] for j, c in enumerate(cols)) and all(
                bvals[cols[i]][cols[j]] == bvals[unit[i]][unit[j]]
                for i in range(n) for j in range(i + 1, n)):
            results.append([vectors[cols[j]][i].payload for i in range(n) for j in range(n)])
    return sorted(results)


def test_backtracking_scan_equals_flat_scan(group_h4f2, h4f2):
    # the default enumeration of H4F2 is the scan; its elements, in order
    assert group_h4f2.method == "exhaustive-matrix-scan"
    assert group_h4f2.payloads.reshape(group_h4f2.order, -1).tolist() == scan_flat(h4f2)


# x^2 + 2 y^2 over gf(5): 2^2 != 1, so its group is not closed under transposes
@pytest.mark.parametrize("name", ["gf8_plane", "gf7_plane_sum", "gf7_plane_split",
                                  "om42", "gf3_ternary", "gf5_plane"])
def test_scan_equals_flat_scan(name, request, f8):
    space = {"gf8_plane": lambda: wf.QuadraticSpace.hyperbolic(f8, 1),
             "gf3_ternary": lambda: _diagonal_space("gf(3)", [1, 1, 1]),
             "gf5_plane": lambda: _diagonal_space("gf(5)", [1, 2])}.get(
        name, lambda: request.getfixturevalue(name))()
    enum = wf.enumerate_orthogonal_group(space, "scan")
    assert enum.method == "exhaustive-matrix-scan"
    assert enum.payloads.reshape(enum.order, -1).tolist() == scan_flat(space)


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


def test_every_element_is_an_isometry(group_h4f2, group_h4f4):
    # the scan (H4F2) and the closure (H4F4) hand out their elements
    # unchecked; the public constructor checks each one again here
    for group in (group_h4f2, group_h4f4):
        for tau in group.isometries():
            assert tau == wf.Isometry(group.space, tau.mat)


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


@pytest.fixture(scope="module")
def group_gf7_plane_split(gf7_plane_split):
    return wf.enumerate_orthogonal_group(gf7_plane_split)


def test_contains_payload_is_false_outside_the_payloads(group_gf7_plane_split):
    enum = group_gf7_plane_split
    for i in range(enum.order):
        assert enum.contains_payload(enum.payload_rows(i))
        assert enum.contains_payload(enum.payloads[i])
        # nor narrowed: element + 256 is the element again as uint8
        assert not enum.contains_payload(enum.payloads[i].astype(np.int64) + 256)
    assert not enum.contains_payload([[0, 0], [0, 0]])
    # no payload lies outside 0 .. 6, even where the entry reduces to one
    # of a member: -6 and 8 are 1 mod 7
    for rows in ([[1, 0], [0, -6]], [[1, 0], [0, 8]], [[1, 0], [0, 2 ** 70]]):
        assert not enum.contains_payload(rows)


def test_contains_payload_rejects_rows_of_another_shape(group_gf7_plane_split):
    for rows in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0]], [1, 0, 0, 1], [1, 0],
                 np.eye(3, dtype=np.int64)):
        with pytest.raises(DimensionMismatch):
            group_gf7_plane_split.contains_payload(rows)


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


def test_totimes_refuses_an_infinite_field(r2t):
    with pytest.raises(TooLarge, match="^the coefficient field is infinite$"):
        wf.exhaustive_verify("totimes", r2t)


def test_unknown_enumeration_method_is_typed(h4f2):
    with pytest.raises(UnknownMethod, match="unknown enumeration method 'bogus'") as info:
        wf.enumerate_orthogonal_group(h4f2, "bogus")
    assert isinstance(info.value, PreconditionError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("method", ["scan", "closure"])
@pytest.mark.parametrize("literal", ["gf(2)", "gf(7)", "gf(4;x^2+x+1)"])
def test_zero_space_group_is_the_identity(literal, method):
    """O(0) = {I_0}: each method finds the one element, so the two agree;
    the filters and a runner read the one-element group."""
    zero = wf.QuadraticSpace.from_int_rows(wf.parse_field(literal), [])
    enum = wf.enumerate_orthogonal_group(zero, method)
    assert enum == oracle.GroupEnumeration(zero, enum.method, np.zeros((1, 0, 0), dtype=np.uint8))
    assert enum.unipotent2_indices() == enum.involution_indices() == [0]
    assert enum.identity_index() == 0
    assert wf.exhaustive_verify("tauid", zero, enum).as_dict() == {
        "theorem": "tauid", "checked": 1, "failed": 0, "examples": []}
    assert standard_generators(zero) == []


def test_unknown_theorem(h4f2):
    with pytest.raises(UnknownTheorem):
        wf.exhaustive_verify("nonsense", h4f2)


H4F2_COUNTS = {"tauid": 72, "defint": 72, "char": 22, "v'": 22, "res": 22, "g": 6, "clif": 15}


def test_verify_smoke(h4f2, group_h4f2):
    for theorem, count in H4F2_COUNTS.items():
        rep = wf.exhaustive_verify(theorem, h4f2, group_h4f2)
        assert (rep.theorem, rep.checked, rep.failed, rep.examples) == (theorem, count, 0, [])


# the non-split 4-dimensional spaces (Witt index 1) of the conftest
NONSPLIT_COUNTS = {"om42": {"res": 26, "g": 0, "clif": 15},
                   "om44": {"res": 324, "g": 0, "clif": 255}}


@pytest.mark.parametrize("name", sorted(NONSPLIT_COUNTS))
def test_involution_runners_on_nonsplit_spaces(request, name):
    space = request.getfixturevalue(name)
    enum = wf.enumerate_orthogonal_group(space)
    for theorem, count in NONSPLIT_COUNTS[name].items():
        rep = wf.exhaustive_verify(theorem, space, enum)
        assert (rep.theorem, rep.checked, rep.failed, rep.examples) == (theorem, count, 0, [])


@pytest.mark.parametrize("name", sorted(NONSPLIT_COUNTS))
def test_g_checks_nothing_on_nonsplit_spaces(request, name):
    """Witt index 1: two singular vectors are orthogonal only on a common
    line, so no plane is totally isotropic, and no involution has the
    2-dimensional totally isotropic fixed space of an interchange.  `g`,
    which runs on the interchanges, checks 0 elements."""
    space = request.getfixturevalue(name)
    singular = [v for v in space.vectors() if any(v) and not space.eval_q(v)]
    assert singular  # Witt index at least 1
    for u, v in itertools.combinations(singular, 2):
        if not space.eval_b(u, v):
            assert Subspace.from_vectors(space, [u, v]).dim == 1
    enum = wf.enumerate_orthogonal_group(space)
    involutions = list(map(enum.isometry, enum.involution_indices()))
    assert not any(iso.is_interchange() for iso in involutions)
    assert wf.exhaustive_verify("g", space, enum).checked == 0


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


def _ref_proper_regular_subspaces(space):
    """The boxed subspace enumeration that the payload-vector one replaced."""
    field = space.field
    codes = oracle._field_codes(field)
    n = space.dim
    if len(codes) ** n > 4096:
        raise TooLarge("subspace enumeration too large")
    vectors = []
    for payloads in itertools.product(codes, repeat=n):
        v = field.wrap_all(payloads)
        lead = next((c for c in v if c), None)
        if lead is not None and lead == field.one:
            vectors.append(v)
    subspaces = {}
    for v in vectors:
        s = Subspace.from_vectors(space, [v])
        subspaces[s.basis] = s
    max_proper = n - 1
    current = [Subspace.from_vectors(space, [v]) for v in vectors]
    level = {s.basis: s for s in current}
    all_levels = [level]
    for _ in range(2, max_proper + 1):
        nxt = {}
        for s in level.values():
            for v in vectors:
                if s.contains(v):
                    continue
                bigger = s.subspace_sum(Subspace.from_vectors(space, [v]))
                nxt.setdefault(bigger.basis, bigger)
        level = nxt
        all_levels.append(level)
    out = []
    for lv in all_levels:
        for s in lv.values():
            if 0 < s.dim < n and s.is_regular():
                out.append(s)
    return out


def test_subspace_enumeration_matches_boxed_reference(h4f2, h4f3):
    spaces = (h4f2, h4f3, _diagonal_space("gf(7)", [1, 3, 5]), _diagonal_space("gf(7)", [1]))
    counts = []
    for space in spaces:
        bases = [s.basis for s in oracle._proper_regular_subspaces(space)]
        assert bases == [s.basis for s in _ref_proper_regular_subspaces(space)]
        counts.append(len(bases))
    assert counts[-1] == 0 and min(counts[:-1]) > 0  # a line is not proper in dimension 1
    with pytest.raises(TooLarge, match="^subspace enumeration too large$"):
        oracle._proper_regular_subspaces(_diagonal_space("gf(11)", [1, 1, 1, 1]))


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
    keys = _keys(mats, size)
    assert np.argsort(keys, kind="stable").tolist() == expected
    assert len(np.unique(keys)) == len({m.tobytes() for m in mats})


@pytest.mark.parametrize("size, n", [(16, 4), (97, 3)])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_int_keys_sort_and_deduplicate_as_tobytes(size, n, data):
    # gf(16) at dimension 4 takes all 64 bits: the largest key is 2^64 - 1
    digits = st.lists(st.integers(0, size - 1), min_size=n * n, max_size=n * n)
    drawn = np.array(data.draw(st.lists(digits, min_size=1, max_size=30)), dtype=np.int64)
    mats = np.concatenate([drawn.reshape(-1, n, n), np.full((1, n, n), size - 1),
                           np.zeros((1, n, n), dtype=np.int64)])
    repeats = data.draw(st.lists(st.integers(0, len(mats) - 1), max_size=10))
    mats = np.concatenate([mats, mats[repeats]])
    keys = _keys(mats, size)
    assert keys.dtype == np.uint64 and int(keys.max()) == size ** (n * n) - 1
    assert (np.argsort(keys, kind="stable").tolist()
            == sorted(range(len(mats)), key=lambda i: mats[i].tobytes()))
    distinct = np.array([m for _, m in sorted({m.tobytes(): m for m in mats}.items())])
    decoded = _decode(_sorted_unique(keys), size, n)  # batch-last, (n, n, N)
    assert decoded.dtype == np.uint8 and decoded.flags.c_contiguous
    assert np.array_equal(decoded, distinct.transpose(1, 2, 0))
    # standard_generators' deduplication, which takes no keys
    assert np.array_equal(oracle._unique_rows(mats), distinct.reshape(len(distinct), -1))


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


@pytest.mark.parametrize("literal", ["gf(2)", "gf(4)", "gf(8)", "gf(256)", "gf(7)", "gf(97)"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_batch_last_arithmetic_matches_leading_batch_arithmetic(literal, data):
    # random stacks, not only group elements: zeros on the diagonal, products
    # past uint8 over gf(97), shapes (n, k) x (k, m), empty batches
    arith = _batch_arith(wf.parse_field(literal))
    n, k, m, count = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 4), (1, 4), (0, 5)))

    def stack(*shape):
        size = int(np.prod(shape))
        entries = st.lists(st.integers(0, arith.order - 1), min_size=size, max_size=size)
        return np.array(data.draw(entries), dtype=np.uint8).reshape(shape)

    a, b, c = stack(n, k, count), stack(k, m, count), stack(n, n, count)
    prod = arith.matmul_last(a, b)
    assert prod.dtype.kind == "u" and prod.dtype.itemsize <= 2
    assert np.array_equal(prod, arith.matmul(a.transpose(2, 0, 1), b.transpose(2, 0, 1))
                          .transpose(1, 2, 0))
    delta = arith.minus_identity_last(c)
    assert delta.dtype == np.uint8
    assert np.array_equal(delta, arith.sub(c.transpose(2, 0, 1), np.eye(n, dtype=np.int64))
                          .transpose(1, 2, 0))


def test_closure_raises_before_passing_the_element_cap(h4f4, monkeypatch):
    monkeypatch.setattr(oracle, "CLOSURE_ELEMENT_LIMIT", 7200)
    assert _closure(h4f4).order == 7200
    monkeypatch.setattr(oracle, "CLOSURE_ELEMENT_LIMIT", 7199)
    with pytest.raises(TooLarge):
        _closure(h4f4)


@pytest.fixture(scope="module")
def h4f17():
    return wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(17)"), 2)


def test_closure_checks_the_key_width_first(h4f17, monkeypatch):
    # 17^16 > 2^64: no uint64 key per element, so nothing is built
    monkeypatch.setattr(oracle, "standard_generators",
                        lambda space: pytest.fail("generators built past the key width"))
    with pytest.raises(TooLarge):
        _closure(h4f17)
    with pytest.raises(TooLarge):
        wf.enumerate_orthogonal_group(h4f17)


def test_closure_takes_keys_of_all_64_bits(monkeypatch):
    field = wf.parse_field("gf(16)")
    space = wf.QuadraticSpace.hyperbolic(field, 2)  # 16^16 = 2^64 keys
    tau = wf.reflection(space, tuple(field.wrap_all([15, 14, 15, 15])))
    rows = np.array(tau.mat.payload_rows, dtype=np.int64)
    assert rows[0].tolist() == [15] * 4  # its key is above 2^64 - 2^48
    monkeypatch.setattr(oracle, "standard_generators", lambda space: [rows])
    enum = _closure(space)
    assert np.array_equal(enum.payloads, np.array([np.eye(4, dtype=np.int64), rows]))


def test_standard_generators_need_no_element_keys(h4f17):
    gens = standard_generators(h4f17)
    flat = np.array(gens).reshape(len(gens), -1)
    assert len(gens) == 88_417 and flat.dtype == np.uint8
    step = np.diff(flat, axis=0)
    first = np.argmax(step != 0, axis=1)
    assert (step[np.arange(len(step)), first] > 0).all()  # strictly lexicographic


def _smallest_orthogonal_order(q, dim):
    """The smallest |O(V)| over regular quadratic spaces V of dimension dim
    over GF(q): split type for even dim (q^m - 1 against q^m + 1), and
    q^(m^2) prod(q^(2i) - 1), doubled for odd q, for dim = 2m + 1."""
    if dim % 2 == 0:
        return _split_orthogonal_order(q, dim // 2)
    m = dim // 2
    order = (1 if q % 2 == 0 else 2) * q ** (m * m)
    for i in range(1, m + 1):
        order *= q ** (2 * i) - 1
    return order


def test_key_width_loses_no_space_the_closure_finishes():
    primes = [p for p in range(3, MAX_PRIME + 1) if all(p % d for d in range(2, p))]
    sizes = primes + [2 ** k for k in range(1, MAX_EXTENSION_DEGREE + 1)]
    # every (q, dim) within standard_generators' vector cap
    pairs = [(q, dim) for q in sizes for dim in range(1, 18)
             if q ** dim <= oracle.GENERATOR_VECTOR_LIMIT]
    too_wide = {(q, dim) for q, dim in pairs if q ** (dim * dim) > 2 ** 64}
    assert too_wide == ({(2, d) for d in range(9, 17)} | {(3, d) for d in range(7, 11)}
                        | {(4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (7, 5), (8, 5), (17, 4)})
    # none of them could finish under the element cap, whatever the form
    smallest = min(_smallest_orthogonal_order(q, dim) for q, dim in too_wide)
    assert smallest == _split_orthogonal_order(17, 2) > oracle.CLOSURE_ELEMENT_LIMIT
    # the widest keys of a space that may finish: O(5, 4), 4^25 = 2^50
    finishing = [(q, dim) for q, dim in pairs
                 if _smallest_orthogonal_order(q, dim) <= oracle.CLOSURE_ELEMENT_LIMIT]
    assert max(finishing, key=lambda p: p[0] ** (p[1] ** 2)) == (4, 5)
    assert _smallest_orthogonal_order(4, 5) == 979_200


def test_scan_cap_bounds_the_vector_table():
    # the scan needs |F|^(n*n) <= SCAN_LIMIT = 2^24, so its q values and
    # B v rows over the |F|^n vectors stay at most 4096 vectors wide
    primes = [p for p in range(3, MAX_PRIME + 1) if all(p % d for d in range(2, p))]
    sizes = primes + [2 ** k for k in range(1, MAX_EXTENSION_DEGREE + 1)]
    scanned = [(q, n) for q in sizes for n in range(1, 25) if q ** (n * n) <= oracle.SCAN_LIMIT]
    assert max(q ** n for q, n in scanned) == 4096 == 64 ** 2


@pytest.mark.parametrize("name", ["h4f2", "gf8_plane", "gf7_plane_sum", "gf7_plane_split"])
def test_space_tables_match_boxed_forms(name, request, f8):
    """The scan's vector table, q values and pairings (B u)^T v agree with
    the boxed vectors, eval_q and eval_b."""
    space = (wf.QuadraticSpace.hyperbolic(f8, 1) if name == "gf8_plane"
             else request.getfixturevalue(name))
    arith = _batch_arith(space.field)
    vecs = oracle._all_vectors(arith.order, space.dim)
    qmat, gram = oracle._payload_stack(space.qmat, space.gram)
    qvec, bvec = oracle._vector_forms(arith, qmat, gram, vecs)
    pairings = arith.matmul(bvec, vecs.T)
    vectors = list(space.vectors())
    assert len(vecs) == len(vectors) == space.field.order() ** space.dim
    boxed = {tuple(c.payload for c in v): v for v in vectors}
    for i, u in enumerate(vecs.tolist()):
        assert int(qvec[i]) == space.eval_q(boxed[tuple(u)]).payload
        assert pairings[i].tolist() == [space.eval_b(boxed[tuple(u)], boxed[tuple(v)]).payload
                                        for v in vecs.tolist()]


def test_enumeration_isometry_is_validated_payload_matrix(group_h4f2, h4f2):
    for i in range(group_h4f2.order):
        iso = group_h4f2.isometry(i)
        assert iso.mat.payload_rows == group_h4f2.payload_rows(i)
        assert iso.mat == wf.Matrix.from_ints(h4f2.field, group_h4f2.payload_rows(i))
    with pytest.raises(NotAnIsometry):
        oracle.GroupEnumeration(h4f2, "caller", np.ones((1, 4, 4), dtype=np.int64))
    with pytest.raises(DescriptorMismatch):
        oracle.GroupEnumeration(h4f2, "caller", 2 * np.eye(4, dtype=np.int64)[None])


_EYE4 = np.eye(4, dtype=np.int64)


@pytest.mark.parametrize("space, payloads, error", [
    ("h4f2", np.zeros((1, 3, 3), dtype=np.int64), DimensionMismatch),
    ("h4f2", _EYE4, DimensionMismatch),                            # not a stack
    ("h4f2", [_EYE4.tolist(), _EYE4[:3].tolist()], DimensionMismatch),
    ("h4f2", [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0]]], DimensionMismatch),
    ("h4f2", 2 * _EYE4[None], DescriptorMismatch),                 # |F|
    ("h4f4", 4 * _EYE4[None], DescriptorMismatch),
    ("h4f2", -_EYE4[None], DescriptorMismatch),
    ("h4f2", _EYE4[None] + 256, DescriptorMismatch),               # I as uint8
    ("h4f2", _EYE4[None] - 256, DescriptorMismatch),               # I as uint8 too
    ("h4f2", _EYE4[None].astype(float), DescriptorMismatch),
    ("h4f2", _EYE4[None].astype(bool), DescriptorMismatch),
], ids=["shape", "matrix", "ragged-stack", "ragged-rows", "entry-2", "entry-4",
        "negative", "wraps-up", "wraps-down", "float", "bool"])
def test_caller_built_enumeration_rejects_malformed_payloads(space, payloads, error, request):
    with pytest.raises(error):
        oracle.GroupEnumeration(request.getfixturevalue(space), "caller", payloads)


@pytest.mark.parametrize("group", ["group_h4f2", "group_h4f4"])
def test_caller_built_enumeration_rejects_one_non_isometry(group, request):
    enum = request.getfixturevalue(group)
    bad = enum.payloads[5].copy()
    bad[0, 0] ^= 1
    assert not enum.contains_payload(bad)
    stack = np.concatenate([enum.payloads[:5], bad[None], enum.payloads[5:]])
    with pytest.raises(NotAnIsometry, match=f"^1 of {enum.order + 1} matrices"):
        oracle.GroupEnumeration(enum.space, "caller", stack)
    # a caller's int64 stack is narrowed to the stored uint8 array
    again = oracle.GroupEnumeration(enum.space, "caller", enum.payloads.astype(np.int64))
    assert again.payloads.dtype == np.uint8 and np.array_equal(again.payloads, enum.payloads)


def test_enumerations_compare_by_space_method_and_elements(f2, f4):
    plane2, plane4 = (wf.QuadraticSpace.hyperbolic(f, 1) for f in (f2, f4))
    scan, closure = (wf.enumerate_orthogonal_group(plane2, m) for m in ("scan", "closure"))
    for enum in (scan, closure):
        again = wf.enumerate_orthogonal_group(plane2, "scan" if enum is scan else "closure")
        assert enum == again and hash(enum) == hash(again)
        assert {enum: "found"}[again] == "found"
    assert scan != closure  # another method, though the same group
    assert scan != wf.enumerate_orthogonal_group(plane4, "scan")  # another space
    caller = oracle.GroupEnumeration(plane2, scan.method, scan.payloads)
    assert caller == scan
    assert oracle.GroupEnumeration(plane2, scan.method, scan.payloads[::-1]) != scan
    assert scan != "scan" and scan != None  # noqa: E711


def test_caller_built_enumeration_may_be_empty(h4f2):
    enum = oracle.GroupEnumeration(h4f2, "caller", np.zeros((0, 4, 4), dtype=np.int64))
    assert enum.order == 0 and list(enum.isometries()) == []


def test_enumeration_payloads_are_read_only(group_h4f2, group_h4f4, h4f2):
    # np.array keeps the memory order of the stored array, so `source` is
    # batch-last contiguous: its transpose could be taken as it is
    source = np.array(group_h4f2.payloads[3:5])
    assert source.transpose(1, 2, 0).flags.c_contiguous
    for stack in (np.ascontiguousarray(source), source.astype(np.int64), source):
        caller = oracle.GroupEnumeration(h4f2, "caller", stack)
        assert not np.shares_memory(caller.payloads, stack)
        stack[0, 0, 0] ^= 1  # the caller's array is not the checked one
        assert np.array_equal(caller.payloads, group_h4f2.payloads[3:5])
        stack[0, 0, 0] ^= 1
    for enum in (group_h4f2, group_h4f4, caller):  # scan, closure, caller
        assert not enum.payloads.flags.writeable
        with pytest.raises(ValueError):  # the same value: no harm if written
            enum.payloads[0, 0, 0] = enum.payloads[0, 0, 0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        caller.payloads = source


def test_enumerated_isometries_are_not_checked_again(group_h4f2, h4f2, monkeypatch):
    calls = []
    post_init = wf.Isometry.__post_init__
    monkeypatch.setattr(wf.Isometry, "__post_init__",
                        lambda self: calls.append(1) or post_init(self))
    isos = list(group_h4f2.isometries())
    assert calls == []
    assert wf.Isometry(h4f2, isos[7].mat) == isos[7]
    assert calls == [1]


# ---------------------------------------------------------------------------
# the generator closure against the byte-key closure it replaced
# ---------------------------------------------------------------------------

def _ref_keys(mats):
    flat = np.ascontiguousarray(mats, dtype=np.uint8).reshape(len(mats), -1)
    return flat.view(np.dtype((np.void, flat.shape[1]))).ravel()


def _ref_matrices(keys, n):
    return keys.view(np.uint8).reshape(-1, n, n)


def _ref_member(sorted_keys, keys):
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def _ref_closure(space):
    """The closure on fixed-width byte keys (the n*n payloads as bytes),
    deduplicated with np.unique and searchsorted."""
    n = space.dim
    arith = _batch_arith(space.field)
    eye = np.eye(n, dtype=np.uint8)
    gens = np.array(standard_generators(space) or [eye], dtype=np.uint8)
    gen_keys = _ref_keys(gens)
    vecs = oracle._all_vectors(arith.order, n)
    weights = arith.order ** np.arange(n - 1, -1, -1)
    known = _ref_keys([eye])
    active = []

    def step(sources, tables):
        nonlocal known
        rows = max(1, oracle.BATCH_ROWS // len(tables))
        tables = np.stack(tables)
        found = []
        for start in range(0, len(sources), rows):
            codes = _ref_matrices(sources[start:start + rows], n) @ weights
            new = np.unique(_ref_keys(tables[:, codes].reshape(-1, n, n)))
            new = new[~_ref_member(known, new)]
            if len(known) + len(new) > oracle.CLOSURE_ELEMENT_LIMIT:
                raise TooLarge("closure exceeded the element cap")
            known = np.insert(known, np.searchsorted(known, new), new)
            found.append(new)
        return np.concatenate(found)

    while True:
        missing = np.flatnonzero(~_ref_member(known, gen_keys))
        if not len(missing):
            break
        active.append(arith.matmul(vecs, gens[missing[0]]).astype(np.uint8))
        frontier = step(known, active[-1:])
        while len(frontier):
            frontier = step(frontier, active)
    return oracle.GroupEnumeration(space, "generator-closure", _ref_matrices(known, n))


def _diagonal_space(literal, diagonal):
    return wf.QuadraticSpace.from_int_rows(wf.parse_field(literal), np.diag(diagonal).tolist())


CLOSURE_SPACES = {
    "H4F2": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(2)"), 2),
    "H4F3": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(3)"), 2),
    "H4F4": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(4;x^2+x+1)"), 2),
    "H6F2": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(2)"), 3),
    "H4F7": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(7)"), 2),
    "gf(7)-diagonal-4": lambda: _diagonal_space("gf(7)", [1, 1, 1, 1]),
    "gf(2)-plane": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(2)"), 1),
    "gf(3)-plane": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(3)"), 1),
    "gf(4)-plane": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(4;x^2+x+1)"), 1),
    "gf(8)-plane": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(8)"), 1),
    "gf(7)-plane-sum": lambda: _diagonal_space("gf(7)", [1, 1]),
    "gf(7)-plane-split": lambda: _diagonal_space("gf(7)", [1, -1]),
}


@pytest.mark.parametrize("name", sorted(CLOSURE_SPACES))
def test_closure_matches_byte_key_reference(name):
    space = CLOSURE_SPACES[name]()
    new, ref = _closure(space), _ref_closure(space)
    assert new.payloads.dtype == ref.payloads.dtype == np.uint8
    assert np.array_equal(new.payloads, ref.payloads)


# ---------------------------------------------------------------------------
# the batch-last filters against the int64 filters they replaced
# ---------------------------------------------------------------------------
# Each _ref_* is a GroupEnumeration filter as it was before the filters ran
# on the batch-last uint8 copy: products and comparisons on the whole
# (N, n, n) int64 stack, through _BatchArith.matmul.

def _ref_unipotent2_indices(enum):
    arith = _batch_arith(enum.space.field)
    delta = arith.sub(enum.payloads, np.eye(enum.space.dim, dtype=np.int64))
    return np.nonzero(~arith.matmul(delta, delta).any(axis=(1, 2)))[0].tolist()


def _ref_involution_indices(enum):
    square = _batch_arith(enum.space.field).matmul(enum.payloads, enum.payloads)
    eye = np.eye(enum.space.dim, dtype=np.int64)
    return np.nonzero((square == eye).all(axis=(1, 2)))[0].tolist()


def _ref_identity_index(enum):
    eye = np.eye(enum.space.dim, dtype=np.int64)
    hits = np.nonzero((enum.payloads == eye).all(axis=(1, 2)))[0]
    if not len(hits):
        raise WallformsError("identity missing from enumeration")
    return int(hits[0])


# every enumerated fixture space, by scan (H4F2, O(3,3), the gf(2^k) planes)
# or closure; n (|F| - 1)^2 > 255 on the last two, so their modular
# products need uint16
FILTER_SPACES = {
    **{name: CLOSURE_SPACES[name] for name in (
        "H4F2", "H4F3", "H4F4", "H4F7", "H6F2", "gf(7)-diagonal-4",
        "gf(2)-plane", "gf(4)-plane", "gf(8)-plane")},
    "O(3,3)": lambda: _diagonal_space("gf(3)", [1, 1, 1]),
    "O(5,3)": lambda: _diagonal_space("gf(3)", [1, 1, 1, 1, 1]),
    "gf(97)-plane": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(97)"), 1),
    "O(3,11)": lambda: _diagonal_space("gf(11)", [1, 1, 1]),
}


@functools.cache
def _filter_group(name):
    return wf.enumerate_orthogonal_group(FILTER_SPACES[name]())


def _filters_and_references(enum):
    """[(new, reference)] for the three filters; a filter that raises
    WallformsError gives its exception class."""
    def run(filt):
        try:
            return filt()
        except WallformsError as exc:
            return type(exc)
    return [(run(new), run(lambda: ref(enum))) for new, ref in (
        (enum.unipotent2_indices, _ref_unipotent2_indices),
        (enum.involution_indices, _ref_involution_indices),
        (enum.identity_index, _ref_identity_index))]


@pytest.mark.parametrize("name", sorted(FILTER_SPACES))
def test_filters_match_int64_reference(name):
    enum = _filter_group(name)
    pairs = _filters_and_references(enum)
    assert [new for new, _ in pairs] == [ref for _, ref in pairs]


@pytest.mark.parametrize("name, order, involutions", [
    ("gf(97)-plane", 192, 98), ("O(3,11)", 2640, 244)])
def test_filters_take_uint16_products_where_uint8_overflows(name, order, involutions):
    enum = _filter_group(name)
    n, size = enum.space.dim, enum.space.field.order()
    assert n * (size - 1) ** 2 > 255
    assert (enum.order, len(enum.involution_indices())) == (order, involutions)
    assert enum.unipotent2_indices() == _ref_unipotent2_indices(enum) == [enum.identity_index()]


@pytest.mark.parametrize("name", sorted(FILTER_SPACES))
@given(picks=st.lists(st.integers(0, 10 ** 6), max_size=12))
@example(picks=[])
@example(picks=[0])
@example(picks=[5, 5, 5])
@settings(max_examples=15, deadline=None)
def test_filters_match_int64_reference_on_caller_stacks(name, picks):
    # a caller's sub-stack: empty, one element, or with repeated elements
    group = _filter_group(name)
    rows = [i % group.order for i in picks]
    enum = oracle.GroupEnumeration(group.space, "caller", group.payloads[rows])
    pairs = _filters_and_references(enum)
    assert [new for new, _ in pairs] == [ref for _, ref in pairs]


def test_filters_make_no_int64_stack():
    # the filters' largest temporaries are uint8 (n, n, N) arrays: together
    # they stay below one int64 (N, n, n) stack (27.6 MiB on O(H4F7))
    group = _filter_group("H4F7")
    int64_stack = group.payloads.size * np.dtype(np.int64).itemsize
    for name in ("unipotent2_indices", "involution_indices", "identity_index"):
        stored = np.array(group.payloads.transpose(1, 2, 0))
        fresh = oracle.GroupEnumeration._trusted(group.space, "copy", stored)
        tracemalloc.start()
        try:
            getattr(fresh, name)()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < int64_stack, name


@pytest.mark.parametrize("group", ["group_h4f2", "group_h4f4", "H4F7", "caller"])
def test_enumeration_stores_one_batch_last_array(group, request, h4f2, group_h4f2):
    # scan (H4F2), closure (H4F4, H4F7) and a caller's stack: one read-only,
    # C-contiguous uint8 (n, n, N) array, which the filters read as it is
    if group == "caller":
        enum = oracle.GroupEnumeration(h4f2, "caller", np.array(group_h4f2.payloads))
    elif group == "H4F7":
        enum = _filter_group(group)
    else:
        enum = request.getfixturevalue(group)
    stored = enum.payloads.transpose(1, 2, 0)
    assert stored.dtype == np.uint8 and stored.flags.c_contiguous and not stored.flags.writeable
    before = dict(vars(enum))
    assert [name for name, v in before.items() if isinstance(v, np.ndarray)] == ["payloads"]
    enum.involution_indices(), enum.unipotent2_indices(), enum.identity_index()
    assert vars(enum).keys() == before.keys() and enum.payloads is before["payloads"]


# ---------------------------------------------------------------------------
# verification runners against the per-runner loops they replaced
# ---------------------------------------------------------------------------
# Each _ref_run_* is a runner as it was before the runners became checks
# over one loop (oracle._check_each).  Library calls go through the oracle
# module, so a fault patched in there reaches both versions.

def _ref_run_tauid(space, enum):
    checked = failed = 0
    examples = []
    indices = list(range(enum.order))
    if enum.order > 5000:
        indices = sorted(set(enum.unipotent2_indices()) | set(range(5000)))
    for i in indices:
        iso = enum.isometry(i)
        cond_nilpotent = iso.is_unipotent2()
        r, k = iso.residual_space(), iso.fixed_space()
        cond_contained = k.contains_subspace(r)
        cond_singular = r.is_totally_singular()
        checked += 1
        if not (cond_nilpotent == cond_contained == cond_singular):
            failed += 1
            examples.append(oracle._descr(iso))
    return oracle.VerifyReport("tauid", checked, failed, examples)


def _ref_has_invariant_subspace(iso, subspaces):
    for s in subspaces:
        if all(s.contains(iso.apply(v)) for v in s.vectors()):
            return True
    return False


def _ref_run_defint(space, enum):
    if space.dim != 4:
        raise PreconditionError("the interchange characterization is 4-dimensional")
    regs = oracle._proper_regular_subspaces(space)
    checked = failed = 0
    examples = []
    for iso in enum.isometries():
        checked += 1
        c1 = iso.is_interchange()
        if c1:
            try:
                oracle.interchange_normal_basis(iso)
                c2 = True
            except WallformsError:
                c2 = False
        else:
            c2 = False
        c3 = iso.is_unipotent2() and not _ref_has_invariant_subspace(iso, regs)
        if not (c1 == c2 == c3):
            failed += 1
            examples.append(oracle._descr(iso))
    return oracle.VerifyReport("defint", checked, failed, examples)


def _ref_run_char(space, enum):
    checked = failed = 0
    examples = []
    for i in enum.unipotent2_indices():
        iso = enum.isometry(i)
        checked += 1
        try:
            oracle.decompose(iso)
        except WallformsError:
            failed += 1
            examples.append(oracle._descr(iso))
    return oracle.VerifyReport("char", checked, failed, examples)


def _ref_run_vprime(space, enum):
    checked = failed = 0
    examples = []
    for i in enum.unipotent2_indices():
        iso = enum.isometry(i)
        checked += 1
        try:
            w = oracle.complement_W(iso)
            r = iso.residual_space()
            wperp = w.orthogonal_complement()
            ok = wperp.dim == 2 * r.dim
            ok = ok and all(iso.apply(v) == v for v in w.vectors())
            fixed_in_wperp = iso.fixed_space().intersection(wperp)
            ok = ok and fixed_in_wperp == r
            image = oracle.Subspace.from_vectors(space, [iso.apply(v) for v in wperp.vectors()])
            ok = ok and image == wperp
            residual_of_restriction = oracle.Subspace.from_vectors(
                space,
                [tuple(a - b for a, b in zip(iso.apply(v), v)) for v in wperp.vectors()],
            )
            ok = ok and residual_of_restriction == r
            if not ok:
                raise WallformsError("complement law failed")
        except WallformsError:
            failed += 1
            examples.append(oracle._descr(iso))
    return oracle.VerifyReport("v'", checked, failed, examples)


def _ref_run_res(space, enum):
    if space.field.characteristic() != 2:
        raise oracle.CharacteristicNot2("involution-type comparison requires characteristic 2")
    alg = oracle.algebra_for_space(space)
    checked = failed = 0
    examples = []
    for i in enum.involution_indices():
        iso = enum.isometry(i)
        checked += 1
        inv = oracle.natural_involution(iso, alg)
        t = oracle.involution_type(inv)
        expected = "orthogonal" if iso.residual_space() == iso.fixed_space() else "symplectic"
        if t != expected:
            failed += 1
            examples.append(oracle._descr(iso))
    return oracle.VerifyReport("res", checked, failed, examples)


def _ref_run_g(space, enum):
    if space.field.characteristic() != 2:
        raise oracle.CharacteristicNot2("conjugating elements require characteristic 2")
    checked = failed = 0
    examples = []
    for i in enum.involution_indices():
        iso = enum.isometry(i)
        if not iso.is_interchange():
            continue
        checked += 1
        try:
            oracle.goldman_element(iso, "frame")
            oracle.goldman_element(iso, "swap-plane")
        except WallformsError:
            failed += 1
            examples.append(oracle._descr(iso))
    return oracle.VerifyReport("g", checked, failed, examples)


def _ref_run_clif(space, enum):
    if space.field.characteristic() != 2:
        raise oracle.CharacteristicNot2("the invariant suite requires characteristic 2")
    checked = failed = 0
    examples = []
    for i in enum.involution_indices():
        iso = enum.isometry(i)
        if iso.residual_space() != iso.fixed_space():
            continue
        checked += 1
        try:
            form = oracle.wall_form(iso)
            oracle.phi_subalgebra(iso)
            pf = oracle.pfister_invariant(iso)
            if form.is_alternating():
                if any(g != space.field.one for g in pf.generators):
                    raise WallformsError("alternating case must give unit generators")
            else:
                report = oracle.alternating_generators_check(iso, form.orthogonal_basis()[0])
                if not report.ok:
                    raise WallformsError("alternating-generator check failed")
            model = oracle.explicit_matrix_iso(iso)
            alg = model.algebra
            for u in form.basis:
                img = model.apply(alg.vector(u))
                if not oracle.square_scalar_check(img, space.eval_q(u)):
                    raise WallformsError("residual image square is not a square")
        except WallformsError:
            failed += 1
            examples.append(oracle._descr(iso))
    return oracle.VerifyReport("clif", checked, failed, examples)


def _ref_run_totimes(space, enum=None):
    field = space.field
    if field.characteristic() != 2:
        raise oracle.CharacteristicNot2("the symmetric-square law is a characteristic-2 statement")
    checked = failed = 0
    examples = []
    size = field.order()
    for n in (2, 3):
        if size ** (n * (n + 1) // 2) > 4096:
            continue
        for x in oracle._symmetric_payload_matrices(field, n):
            sq = x * x
            c = sq[0, 0]
            if sq != wf.Matrix.identity(field, n).scale(c):
                continue
            checked += 1
            if not oracle.square_scalar_check(x, c):
                failed += 1
                examples.append(repr(x))
    return oracle.VerifyReport("totimes", checked, failed, examples)


REF_RUNNERS = {
    "tauid": _ref_run_tauid, "defint": _ref_run_defint, "char": _ref_run_char,
    "v'": _ref_run_vprime, "res": _ref_run_res, "g": _ref_run_g,
    "clif": _ref_run_clif, "totimes": _ref_run_totimes,
}


def _both_reports(theorem, space, enum):
    """(new report, reference report), or the exception class each raised."""
    out = []
    for run in (lambda: wf.exhaustive_verify(theorem, space, enum),
                lambda: REF_RUNNERS[theorem](space, enum)):
        try:
            out.append(run())
        except Exception as exc:  # compared by class below
            out.append(type(exc))
    return out


@pytest.mark.parametrize("theorem", sorted(REF_RUNNERS))
def test_runners_match_reference_on_h4f2(theorem, h4f2, group_h4f2):
    new, ref = _both_reports(theorem, h4f2, group_h4f2)
    assert new == ref
    assert isinstance(new, oracle.VerifyReport) and new.failed == 0


def test_totimes_matches_reference_on_gf4(h4f4):
    new, ref = _both_reports("totimes", h4f4, None)
    assert new == ref
    assert new.checked > 0 and new.failed == 0


@pytest.fixture(scope="module")
def group_h4f4(h4f4):
    return wf.enumerate_orthogonal_group(h4f4)


@pytest.mark.parametrize("theorem", ["char", "v'", "res", "g"])
def test_runners_match_reference_on_h4f4(theorem, h4f4, group_h4f4):
    new, ref = _both_reports(theorem, h4f4, group_h4f4)
    assert new == ref
    assert new.checked > 0 and new.failed == 0


def test_g_builds_one_normal_basis_per_element(h4f4, group_h4f4, monkeypatch):
    module = importlib.import_module("wallforms.decompose")  # wf.decompose is the function
    calls = []
    compute = module._normal_basis
    monkeypatch.setattr(module, "_normal_basis", lambda tau: calls.append(tau) or compute(tau))
    rep = wf.exhaustive_verify("g", h4f4, group_h4f4)
    assert (rep.checked, rep.failed) == (30, 0)
    assert len(calls) == 30 and len({id(tau) for tau in calls}) == 30


@pytest.mark.parametrize("theorem, name", [
    ("char", "H6F2"), ("v'", "H6F2"), ("res", "H4F4"), ("g", "H4F4")])
def test_runners_convert_no_boxed_vector(theorem, name, monkeypatch):
    """Bases pass between the layers as payload matrices, so these runners
    convert no field element back to its payload: a spy on ``_unbox``, in
    every module that binds it, counts nothing past the algebra's set-up."""
    group = _filter_group(name)
    if group.space.field.characteristic() == 2:
        wf.algebra_for_space(group.space)  # its constructor unboxes its q values
    calls = []
    for module in ("linalg", "quadspace", "decompose", "clifford"):
        module = importlib.import_module(f"wallforms.{module}")
        real = module._unbox
        monkeypatch.setattr(module, "_unbox",
                            lambda field, entries, real=real: calls.append(field) or real(field, entries))
    report = wf.exhaustive_verify(theorem, group.space, group)
    assert report.checked > 0 and report.failed == 0
    assert calls == []
    Subspace.from_vectors(group.space, [group.space.basis_vector(0)])  # a boundary call
    assert len(calls) == 1


def test_verify_rejects_an_enumeration_of_another_space(h4f2, group_h4f2, group_h4f4, f2):
    """The same field and dimension with another form, or the same form
    over another field: the enumeration's elements are not isometries of
    the space named, so the call raises instead of reporting on them.  So
    does `totimes`, which takes no group."""
    other_form = wf.QuadraticSpace.from_int_rows(
        f2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    for enum in (wf.enumerate_orthogonal_group(other_form), group_h4f4):
        for theorem in ("char", "totimes"):
            with pytest.raises(DimensionMismatch,
                               match="a space and an enumeration of different spaces"):
                wf.exhaustive_verify(theorem, h4f2, enum)
    again = wf.QuadraticSpace.hyperbolic(f2, 2)
    assert wf.exhaustive_verify("char", again, group_h4f2).checked == 22
    assert (wf.exhaustive_verify("totimes", again, group_h4f2).as_dict()
            == wf.exhaustive_verify("totimes", h4f2).as_dict())


def test_clif_matches_reference_on_h4f4_with_one_inverse_per_element(h4f4, group_h4f4,
                                                                     monkeypatch):
    ref = _ref_run_clif(h4f4, group_h4f4)
    # rebuild the base model of C(q), which takes one inverse of its own
    monkeypatch.setattr(wf.algebra_for_space(h4f4), "_model", None)
    inverses = []
    inverse = wf.Matrix.inverse
    monkeypatch.setattr(wf.Matrix, "inverse", lambda m: inverses.append(m) or inverse(m))
    new = wf.exhaustive_verify("clif", h4f4, group_h4f4)
    assert new == ref
    assert (new.checked, new.failed) == (255, 0)
    assert len(inverses) == 256


def _chosen(mat):
    """About half of all matrices (the hash of a tuple of ints is the same
    in every process)."""
    return hash(mat.payload_rows) % 2 == 1


def _flip_singular(orig):
    return lambda sub: orig(sub) != _chosen(sub.basis)


def _raise_on_chosen(error, arg=0):
    def fault(orig):
        def patched(*args, **kwargs):
            tau = args[arg]
            if _chosen(tau if isinstance(tau, wf.Matrix) else tau.mat):
                raise error("injected fault")
            return orig(*args, **kwargs)
        return patched
    return fault


def _swap_plane_fails(orig):
    def patched(tau, construction="frame"):
        if construction == "swap-plane" and _chosen(tau.mat):
            raise InvariantViolation("injected fault")
        return orig(tau, construction)
    return patched


def _fixed_space_for_w(orig):
    return lambda tau: tau.fixed_space() if _chosen(tau.mat) else orig(tau)


def _flip_type(orig):
    swap = {"orthogonal": "symplectic", "symplectic": "orthogonal"}
    return lambda inv: swap[orig(inv)] if _chosen(inv.matrix) else orig(inv)


def _false_on_chosen(orig):
    return lambda x, c: orig(x, c) and not _chosen(x)


def _zero_on_chosen(orig):
    return lambda sub, other: Subspace.zero(sub.space) if _chosen(sub.basis) else orig(sub, other)


def _pfister_not_one(orig):
    """A Pfister generator that is not 1 (0 appended) on the chosen
    elements; the runner reads the generators only where the residual
    form is alternating."""
    def patched(tau):
        pf = orig(tau)
        if not _chosen(tau.mat):
            return pf
        return dataclasses.replace(pf, generators=pf.generators + (pf.field.zero,))
    return patched


def _alternating_check_fails(orig):
    def patched(tau, basis):
        report = orig(tau, basis)
        return dataclasses.replace(report, ok=False) if _chosen(tau.mat) else report
    return patched


def _spans_read_as_zero(dim):
    """oracle.Subspace with every span of dimension `dim` read as zero: the
    runner's spans of matrix rows and the reference's spans of vectors."""
    def fault(orig):
        def reads_as_zero(span):
            def faulty(space, rows):
                sub = span(space, rows)
                return Subspace.zero(space) if sub.dim == dim else sub
            return faulty
        return types.SimpleNamespace(span=reads_as_zero(orig.span),
                                     from_rows=reads_as_zero(orig.from_rows),
                                     from_vectors=reads_as_zero(orig.from_vectors))
    return fault


# (runner, what the fault breaks, (owner, attribute, fault), whether the
#  report counts failures rather than raising)
FAULTS = [
    ("tauid", "singular-test", (Subspace, "is_totally_singular", _flip_singular), True),
    ("tauid", "raises", (wf.Isometry, "is_unipotent2", _raise_on_chosen(InvariantViolation)),
     False),
    ("defint", "normal-basis",
     (oracle, "interchange_normal_basis", _raise_on_chosen(NotInterchange)), True),
    ("char", "decompose", (oracle, "decompose", _raise_on_chosen(InvariantViolation)), True),
    ("char", "foreign-error", (oracle, "decompose", _raise_on_chosen(ZeroDivisionError)),
     False),
    ("v'", "w-is-k", (oracle, "complement_W", _fixed_space_for_w), True),
    ("v'", "w-raises", (oracle, "complement_W", _raise_on_chosen(PreconditionError)), True),
    # each of these breaks one condition of the complement law alone
    ("v'", "fixed-part", (Subspace, "intersection", _zero_on_chosen), True),
    ("v'", "image", (oracle, "Subspace", _spans_read_as_zero(4)), True),
    ("v'", "moved", (oracle, "Subspace", _spans_read_as_zero(1)), True),
    ("res", "type", (oracle, "involution_type", _flip_type), True),
    ("res", "raises", (oracle, "natural_involution", _raise_on_chosen(InvariantViolation)),
     False),
    ("g", "swap-plane", (oracle, "goldman_element", _swap_plane_fails), True),
    ("clif", "square", (oracle, "square_scalar_check", _false_on_chosen), True),
    ("clif", "model", (oracle, "explicit_matrix_iso", _raise_on_chosen(InvariantViolation)),
     True),
    # one case for each branch of the Pfister test: alternating (1 of the 6
    # elements of H4F2 is chosen) and not (5 of 9)
    ("clif", "pfister-not-one", (oracle, "pfister_invariant", _pfister_not_one), True),
    ("clif", "alternating-check", (oracle, "alternating_generators_check",
                                   _alternating_check_fails), True),
    ("totimes", "square", (oracle, "square_scalar_check", _false_on_chosen), True),
    ("totimes", "raises",
     (oracle, "square_scalar_check", _raise_on_chosen(InvariantViolation)), False),
]


@pytest.mark.parametrize("theorem, breaks, patch, counted", FAULTS,
                         ids=[f"{t}-{b}" for t, b, _, _ in FAULTS])
def test_runners_match_reference_under_faults(theorem, breaks, patch, counted,
                                              h4f2, group_h4f2, monkeypatch):
    owner, name, fault = patch
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    new, ref = _both_reports(theorem, h4f2, group_h4f2)
    assert new == ref
    if counted:
        assert 0 < new.failed < new.checked == H4F2_COUNTS.get(theorem, 12)
        assert len(new.examples) == new.failed
    else:
        assert isinstance(new, type) and issubclass(new, Exception)


@pytest.mark.parametrize("theorem, name, error", [
    ("defint", "H6F2", PreconditionError),
    ("res", "H4F3", CharacteristicNot2),
    ("g", "H4F3", CharacteristicNot2),
    ("clif", "H4F3", CharacteristicNot2),
    ("totimes", "H4F3", CharacteristicNot2),
])
def test_runner_preconditions_raise(theorem, name, error):
    group = _filter_group(name)
    with pytest.raises(error) as caught:
        wf.exhaustive_verify(theorem, group.space, group)
    assert caught.type is error
