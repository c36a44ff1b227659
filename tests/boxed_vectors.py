"""Boxed vector arithmetic, for the tests only.

Vectors are tuples of field elements, added, subtracted and scaled one
entry at a time with the elements' own operators.  The library runs its
vector arithmetic on payload rows, so these helpers are also the
independent reference that the tests check it against.  The bases of
totally isotropic planes are listed the same way, one boxed evaluation
per vector.
"""

import functools

from wallforms.linalg import Matrix


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


@functools.lru_cache(maxsize=None)
def isotropic_vectors(space):
    """The nonzero isotropic vectors of a finite space, listed once per
    space."""
    return tuple(v for v in space.vectors() if any(v) and not space.eval_q(v))


def isotropic_partners(space, x):
    """The vectors w that make (x, w) a basis of a totally isotropic plane,
    for a nonzero isotropic x: q(w) = b(x, w) = 0 and w is not a multiple
    of x."""
    return [w for w in isotropic_vectors(space)
            if not space.eval_b(x, w) and Matrix(space.field, [x, w]).rank() == 2]


def isotropic_pairs(space):
    """Every ordered basis (x, w) of a totally isotropic plane of a finite
    space."""
    return [(x, w) for x in isotropic_vectors(space) for w in isotropic_partners(space, x)]
