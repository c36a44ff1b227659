"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its time budget.  All comparisons are exact (zero tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time
from contextlib import contextmanager

import pytest

import wallforms as wf
from wallforms.linalg import Matrix
from wallforms.oracle import GroupEnumeration

from boxed_vectors import vadd, vscale


@contextmanager
def criterion(num: int, label: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:02d} {label}: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num:02d} {label}: PASS ({elapsed:.2f}s, limit {limit:g}s)")
    assert elapsed < limit, f"criterion {num} exceeded its budget: {elapsed:.2f}s"


_ENUMS: dict = {}


def _enum(space) -> GroupEnumeration:
    if space not in _ENUMS:
        _ENUMS[space] = wf.enumerate_orthogonal_group(space)
    return _ENUMS[space]


def _random_ratfunc_reflection_words(space, count, rng, ft):
    """Seeded random products of reflections on a GF(2)(t) space."""
    taus = []
    dim = space.dim
    while len(taus) < count:
        tau = wf.identity_isometry(space)
        for _ in range(rng.randrange(1, 4)):
            while True:
                v = tuple(ft.fraction(rng.randrange(8), 1) for _ in range(dim))
                if space.eval_q(v):
                    break
            tau = tau * wf.reflection(space, v)
        taus.append(tau)
    return taus


def test_criterion_01_wall_form_axioms(h4f2, h4f7, f4, gf7_plane_sum,
                                       gf7_plane_split, r2t, tau_r2t,
                                       r4t, tau_r4t, ft):
    with criterion(1, "wall-form axioms on GF(2)/GF(4)/GF(7)/GF(2)(t)", 10.0):
        rng = random.Random(2024)
        probes = 0
        plane4 = wf.QuadraticSpace.hyperbolic(f4, 1)
        enumerated = []
        for space in (h4f2, plane4, gf7_plane_sum, gf7_plane_split):
            enumerated.extend(_enum(space).isometries())
        ratfunc_taus = [tau_r2t, tau_r4t]
        ratfunc_taus += _random_ratfunc_reflection_words(r4t, 38, rng, ft)

        for tau in enumerated + ratfunc_taus:
            w = wf.wall_form(tau)  # nondegeneracy + diagonal law verified inside
            if w.s == 0:
                continue
            space = tau.space
            field = space.field
            assert w.gram.det()

            # preimage independence: shift each preimage by a fixed vector
            k = tau.fixed_space()
            shifted = []
            for y in w.preimages:
                shift = space.zero_vector()
                for row in k.vectors():
                    if rng.random() < 0.5:
                        shift = vadd(shift, row)
                shifted.append(vadd(y, shift))
            gram = Matrix(field, [
                [space.eval_b(u, y) for y in shifted] for u in w.basis
            ])
            assert gram == w.gram

            # random diagonal-law probes w(u, u) = -q(u)
            if field.order() is not None:
                elems = list(field.elements())
            else:
                elems = [ft.fraction(n, d) for n in range(4) for d in (1, 2, 3)]
            n_probes = 105 if field.order() is not None else 55
            for _ in range(n_probes):
                coords = [rng.choice(elems) for _ in range(w.s)]
                u = space.zero_vector()
                for c, b in zip(coords, w.basis):
                    u = vadd(u, vscale(c, b))
                assert w.evaluate(u, u) == -space.eval_q(u)
                probes += 1
        assert probes >= 10_000, f"only {probes} probes"


def test_criterion_02_classification_biconditionals(h4f2, gf7_plane_sum,
                                                    gf7_plane_split):
    with criterion(2, "symmetry laws over O(H4F2) and the GF(7) planes", 5.0):
        groups = [_enum(h4f2), _enum(gf7_plane_sum), _enum(gf7_plane_split)]
        assert groups[0].order == 72
        counterexamples = 0
        for enum in groups:
            for tau in enum.isometries():
                flags = wf.classify(wf.wall_form(tau))
                if flags.symmetric != (tau * tau).is_identity():
                    counterexamples += 1
                if flags.antisymmetric != tau.is_unipotent2():
                    counterexamples += 1
        assert counterexamples == 0


def test_criterion_03_interchange_characterization(h4f2, h4f4):
    with criterion(3, "interchange characterization over GF(2) and GF(4)", 60.0):
        rep2 = wf.exhaustive_verify("defint", h4f2, _enum(h4f2))
        assert rep2.failed == 0 and rep2.checked == 72
        enum4 = _enum(h4f4)
        assert enum4.method == "generator-closure"
        rep4 = wf.exhaustive_verify("defint", h4f4, enum4)
        assert rep4.failed == 0 and rep4.checked == enum4.order


def test_criterion_04_decomposition(f2, h4f2, h4f4, h4f7):
    with criterion(4, "decomposition of every unipotent index-2 isometry", 60.0):
        h6f2 = wf.QuadraticSpace.hyperbolic(f2, 3)
        for space in (h4f2, h6f2, h4f7, h4f4):
            enum = _enum(space)
            rep = wf.exhaustive_verify("char", space, enum)
            assert rep.failed == 0, f"{space}: {rep.examples[:3]}"
            assert rep.checked == len(enum.unipotent2_indices())


def test_criterion_05_complement_laws(f2, h4f2, h4f4, h4f7):
    with criterion(5, "identity-complement laws on all criterion-4 cases", 60.0):
        h6f2 = wf.QuadraticSpace.hyperbolic(f2, 3)
        for space in (h4f2, h6f2, h4f7, h4f4):
            rep = wf.exhaustive_verify("v'", space, _enum(space))
            assert rep.failed == 0
            assert rep.checked == len(_enum(space).unipotent2_indices())


def test_criterion_06_involution_suite(h4f2, h4f4):
    with criterion(6, "involution-type, matrix model, conjugating elements", 60.0):
        for space in (h4f2, h4f4):
            enum = _enum(space)
            rep_res = wf.exhaustive_verify("res", space, enum)
            assert rep_res.failed == 0
            assert rep_res.checked == len(enum.involution_indices())
            rep_g = wf.exhaustive_verify("g", space, enum)
            assert rep_g.failed == 0 and rep_g.checked > 0
            rep_clif = wf.exhaustive_verify("clif", space, enum)
            assert rep_clif.failed == 0 and rep_clif.checked > 0


def test_criterion_07_pfister_over_rational_functions(tau_r2t, tau_r4t, r4t, ft):
    with criterion(7, "Pfister data over GF(2)(t)", 5.0):
        pf2 = wf.pfister_invariant(tau_r2t)
        assert pf2.generators == (ft.t,)
        assert pf2.square_flags == (False,)
        assert not ft.is_square(ft.t)

        pf4 = wf.pfister_invariant(tau_r4t)
        assert pf4.generators == (ft.t, ft.t)

        basis = (r4t.basis_vector(0), r4t.basis_vector(2))
        report = wf.alternating_generators_check(tau_r4t, basis)
        assert report.ok
        assert len(report.explicit_witnesses) == 3  # includes the product u1 u2
        assert len(report.solved_witnesses) == 3


def test_criterion_08_transpose_criterion_agreement(h4f2, h4f4, f4, ft,
                                                    tau_r2t, tau_r4t):
    with criterion(8, "transpose-criterion equivalence and models", 10.0):
        # every involution with r = k over the finite fixtures: the three
        # conditions agree (asserted inside the call) and the criterion holds
        plane4 = wf.QuadraticSpace.hyperbolic(f4, 1)
        sampled_isos = 0
        for space, stride in ((h4f2, 1), (plane4, 1), (h4f4, 5)):
            enum = _enum(space)
            eligible = [
                enum.isometry(i) for i in enum.involution_indices()
                if enum.isometry(i).residual_space() == enum.isometry(i).fixed_space()
            ]
            assert eligible
            for pos, tau in enumerate(eligible):
                crit = wf.transpose_iso_criterion(tau)
                assert crit.holds
                if pos % stride == 0:
                    wf.explicit_matrix_iso(tau)  # fully verified inside
                    sampled_isos += 1
        assert sampled_isos > 0

        # the nontrivial square class t obstructs the model
        assert not wf.transpose_iso_criterion(tau_r2t).holds
        assert not wf.transpose_iso_criterion(tau_r4t).holds
        with pytest.raises(wf.WallformsError):
            wf.explicit_matrix_iso(tau_r2t)

        # unit-value variant over GF(2)(t): criterion holds, model unsupported
        space = wf.QuadraticSpace.from_q_upper(
            ft, wf.Matrix(ft, [[ft.one, ft.one], [ft.zero, ft.zero]]))
        tau_unit = wf.reflection(space, space.basis_vector(0))
        assert wf.transpose_iso_criterion(tau_unit).holds
        from wallforms.errors import UnsupportedField
        with pytest.raises(UnsupportedField):
            wf.explicit_matrix_iso(tau_unit)


def test_criterion_09_symmetric_square_scalars(f2, f4, h4f2, h4f4, tau_int):
    with criterion(9, "symmetric matrices with scalar square", 10.0):
        space2 = wf.QuadraticSpace.hyperbolic(f2, 1)
        space4 = wf.QuadraticSpace.hyperbolic(f4, 1)
        rep2 = wf.exhaustive_verify("totimes", space2)
        rep4 = wf.exhaustive_verify("totimes", space4)
        assert rep2.failed == 0 and rep2.checked > 0
        assert rep4.failed == 0 and rep4.checked > 0

        # images of residual vectors under the explicit model are symmetric
        # with square q(u) I, and q(u) is a square
        e = h4f4.basis_vector
        taus = [tau_int, wf.eichler(h4f4, e(0), e(2))]
        for tau in taus:
            iso = wf.explicit_matrix_iso(tau)
            alg = iso.algebra
            w = wf.wall_form(tau)
            for u in w.basis:
                img = iso.apply(alg.vector(u))
                qu = tau.space.eval_q(u)
                assert img.is_symmetric()
                assert wf.square_scalar_check(img, qu)
                assert tau.space.field.is_square(qu)


def test_criterion_10_group_order_regression(f2):
    with criterion(10, "group order 72, stable across runs", 5.0):
        space_a = wf.QuadraticSpace.hyperbolic(f2, 2)
        space_b = wf.QuadraticSpace.hyperbolic(f2, 2)
        run1 = wf.enumerate_orthogonal_group(space_a, "scan")
        run2 = wf.enumerate_orthogonal_group(space_b, "scan")
        assert run1.order == 72
        assert run2.order == 72
        assert (run1.payloads == run2.payloads).all()
