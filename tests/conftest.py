"""Shared fixtures: the canonical desk-scale spaces used across the suite.

H4F2    -- GF(2), dim 4, hyperbolic; tau_int fixes e1, e3 and sends
           e2 -> e2 + e3, e4 -> e4 + e1 (the canonical interchange isometry).
R2T     -- GF(2)(t), dim 2, q(u) = t, q(v) = 0, b(u, v) = 1; tau is the
           reflection along u.
R4T     -- R2T perp R2T with tau the product of the two plane reflections.
H4F7    -- GF(7), dim 4, hyperbolic.
H6F2    -- GF(2), dim 6, hyperbolic.
O-(4,2), O-(4,4), O-(4,3) -- the non-split 4-dimensional spaces over GF(2),
           GF(4) and GF(3), q = x0 x1 + x2^2 + x2 x3 + a x3^2 with a = 1,
           a = w and a = 2: a hyperbolic plane and an anisotropic one, so
           Witt index 1.
"""

import pytest

import wallforms as wf


@pytest.fixture(scope="session")
def f2():
    return wf.parse_field("gf(2)")


@pytest.fixture(scope="session")
def f4():
    return wf.parse_field("gf(4;x^2+x+1)")


@pytest.fixture(scope="session")
def f7():
    return wf.parse_field("gf(7)")


@pytest.fixture(scope="session")
def f8():
    return wf.parse_field("gf(8)")


@pytest.fixture(scope="session")
def ft():
    return wf.parse_field("gf2(t)")


@pytest.fixture(scope="session")
def h4f2(f2):
    return wf.QuadraticSpace.hyperbolic(f2, 2)


@pytest.fixture(scope="session")
def h6f2(f2):
    return wf.QuadraticSpace.hyperbolic(f2, 3)


@pytest.fixture(scope="session")
def tau_int(h4f2):
    return wf.make_isometry(h4f2, [
        [1, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 1],
    ])


@pytest.fixture(scope="session")
def h4f4(f4):
    return wf.QuadraticSpace.hyperbolic(f4, 2)


def _nonsplit4(field, a):
    """q = x0 x1 + x2^2 + x2 x3 + a x3^2, with a the payload of the last term."""
    return wf.QuadraticSpace.from_q_upper(field, wf.Matrix.from_payloads(
        field, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, a]]))


@pytest.fixture(scope="session")
def om42(f2):
    return _nonsplit4(f2, 1)


@pytest.fixture(scope="session")
def om44(f4):
    return _nonsplit4(f4, f4.parse("w").payload)


@pytest.fixture(scope="session")
def om43():
    return _nonsplit4(wf.parse_field("gf(3)"), 2)


@pytest.fixture(scope="session")
def h4f7(f7):
    return wf.QuadraticSpace.hyperbolic(f7, 2)


@pytest.fixture(scope="session")
def r2t(ft):
    t, one, zero = ft.t, ft.one, ft.zero
    return wf.QuadraticSpace.from_q_upper(ft, wf.Matrix(ft, [[t, one], [zero, zero]]))


@pytest.fixture(scope="session")
def tau_r2t(r2t):
    return wf.reflection(r2t, r2t.basis_vector(0))


@pytest.fixture(scope="session")
def r4t(r2t):
    return r2t.orthogonal_sum(r2t)


@pytest.fixture(scope="session")
def tau_r4t(r4t):
    return (wf.reflection(r4t, r4t.basis_vector(0))
            * wf.reflection(r4t, r4t.basis_vector(2)))


@pytest.fixture(scope="session")
def gf7_plane_sum(f7):
    """GF(7) plane with q = x^2 + y^2 (anisotropic: -1 is not a square)."""
    return wf.QuadraticSpace.from_int_rows(f7, [[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def gf7_plane_split(f7):
    """GF(7) plane with q = x^2 - y^2 (isotropic)."""
    return wf.QuadraticSpace.from_int_rows(f7, [[1, 0], [0, -1]])
