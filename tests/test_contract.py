"""The one space guard as a contract over every public call on two
operands: operands of one space give a result; operands of another form,
length or field raise the guard's typed error, before any work."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

import wallforms as wf
from wallforms.decompose import validate_decomposition
from wallforms.errors import AlgebraMismatch, DimensionMismatch, PreconditionError
from wallforms.quadspace import Subspace

# characteristic 2 throughout, so that every call applies: H4F2 built twice
# (equal spaces built apart are one space), another form on the same field
# and length (q = x1^2 + x1 x2 + x2^2 + x3 x4), the same form over another
# field, and another length
SPACES = {
    "H4F2": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(2)"), 2),
    "H4F2-again": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(2)"), 2),
    "other-form": lambda: wf.QuadraticSpace.from_int_rows(
        wf.parse_field("gf(2)"), [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]),
    "H4F4": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(4;x^2+x+1)"), 2),
    "H2F2": lambda: wf.QuadraticSpace.hyperbolic(wf.parse_field("gf(2)"), 1),
}
NAMES = sorted(SPACES)


@functools.cache
def _space(name):
    return SPACES[name]()


@functools.cache
def _group(name):
    return wf.enumerate_orthogonal_group(_space(name))


@functools.cache
def _elements(name, kind):
    """The enumerated isometries of one kind: unipotent ("unipotent"), of
    reflection or interchange kind with s > 0, involutions, and involutions
    with r = k (those explicit_matrix_iso takes)."""
    enum = _group(name)
    if kind in ("involution", "r=k"):
        isos = map(enum.isometry, enum.involution_indices())
        return [t for t in isos
                if kind == "involution" or t.residual_space() == t.fixed_space()]
    isos = list(map(enum.isometry, enum.unipotent2_indices()))
    if kind == "unipotent":
        return isos
    alternating = kind == "interchange"
    return [t for t in isos if wf.wall_form(t).s and wf.wall_form(t).is_alternating() == alternating]


def _spaces_with(kind):
    return [name for name in NAMES if _elements(name, kind)]


def _subspace(draw, name):
    """A subspace of the named space spanned by some of its basis vectors."""
    space = _space(name)
    picks = draw(st.sets(st.integers(0, space.dim - 1)))
    return Subspace.from_vectors(space, [space.basis_vector(i) for i in sorted(picks)])


def _other_isometry(draw, tau, name, kind):
    """An isometry of the named space: tau itself rebuilt there, when that
    space is tau's, or one of its isometries of `kind`."""
    space = _space(name)
    if space == tau.space and draw(st.booleans()):
        return wf.Isometry(space, wf.Matrix(space.field, tau.mat.rows))
    return draw(st.sampled_from(_elements(name, kind)))


# each call takes (draw, a, b), the names of the two operands' spaces (the
# second operand is of b), and returns the call as a thunk with the guard's
# error (class and message) that it must raise, None where its operands match
def _error(a, b, error=(DimensionMismatch, "of different spaces")):
    return None if _space(a) == _space(b) else error


def _foreign(sigma, tau):
    """The error for the Wall form of sigma given as tau's."""
    return None if sigma == tau else (PreconditionError, "belongs to another isometry")


def _subspace_pair(method):
    def call(draw, a, b):
        mine, theirs = _subspace(draw, a), _subspace(draw, b)
        return lambda: getattr(mine, method)(theirs), _error(a, b)
    return call


def _complement_in(draw, a, b):
    inner = _subspace(draw, a)
    return lambda: wf.complement_in(inner, Subspace.full(_space(b))), _error(a, b)


def _isometry_product(draw, a, b):
    tau = draw(st.sampled_from(_elements(a, "unipotent")))
    sigma = draw(st.sampled_from(_elements(b, "unipotent")))
    return lambda: tau * sigma, _error(a, b)


def _restrict(draw, a, b):
    tau = draw(st.sampled_from(_elements(a, "unipotent")))
    return lambda: tau.restrict(Subspace.full(_space(b))), _error(a, b)


def _natural_involution(draw, a, b):
    tau = draw(st.sampled_from(_elements(a, "involution")))
    return lambda: wf.natural_involution(tau, wf.algebra_for_space(_space(b))), _error(a, b)


def _exhaustive_verify(theorem, draw, a, b):
    group = _group(b)
    picks = draw(st.lists(st.sampled_from(group.unipotent2_indices()), min_size=1, max_size=3))
    enum = wf.GroupEnumeration(group.space, "caller", group.payloads[picks])
    return lambda: wf.exhaustive_verify(theorem, _space(a), enum), _error(a, b)


def _reflection_block(operand, draw, a, b):
    tau = draw(st.sampled_from(_elements(a, "reflection")))
    u = wf.wall_form(tau).orthogonal_basis()[0][0]  # w(u, u) != 0: a block exists
    if operand == "wf":
        sigma = _other_isometry(draw, tau, b, "unipotent")
        return lambda: wf.reflection_block(tau, u, wf=wf.wall_form(sigma)), _foreign(sigma, tau)
    within = Subspace.full(_space(b))
    return lambda: wf.reflection_block(tau, u, within=within), _error(a, b)


def _interchange_block(operand, draw, a, b):
    tau = draw(st.sampled_from(_elements(a, "interchange")))
    blk = wf.decompose(tau).blocks[0]
    if operand == "wf":
        sigma = _other_isometry(draw, tau, b, "unipotent")
        return (lambda: wf.interchange_block(tau, blk.x, blk.w, wf=wf.wall_form(sigma)),
                _foreign(sigma, tau))
    within = Subspace.full(_space(b))
    return lambda: wf.interchange_block(tau, blk.x, blk.w, within=within), _error(a, b)


def _validate_decomposition(draw, a, b):
    tau = draw(st.sampled_from(_elements(a, "unipotent")))
    sigma = _other_isometry(draw, tau, b, "unipotent")
    d = wf.decompose(tau)
    return lambda: validate_decomposition(d, wf.wall_form(sigma)) or d, _foreign(sigma, tau)


def _matrix_op(op):
    def call(draw, a, b):
        x, y = _space(a).gram, _space(b).qmat
        match = x.field == y.field and x.shape == y.shape
        return lambda: op(x, y), None if match else (DimensionMismatch, r"different fields|\) [-+*] \(")
    return call


def _clifford_mul(draw, a, b):
    alg_a, alg_b = wf.algebra_for_space(_space(a)), wf.algebra_for_space(_space(b))
    x = alg_a.vector(draw(st.sampled_from(list(_space(a).vectors()))))
    y = alg_b.vector(draw(st.sampled_from(list(_space(b).vectors()))))
    return lambda: alg_a.mul(x, y), _error(a, b, (AlgebraMismatch, "algebra"))


def _clifford_apply(draw, a, b):
    tau = draw(st.sampled_from(_elements(a, "r=k")))
    model = draw(st.sampled_from([wf.natural_involution, wf.explicit_matrix_iso]))(tau)
    y = wf.algebra_for_space(_space(b)).vector(draw(st.sampled_from(list(_space(b).vectors()))))
    return lambda: model.apply(y), _error(a, b, (AlgebraMismatch, "algebra"))


# call -> (its operands, the kind of element the first operand must have)
CALLS = {
    "Subspace.intersection": (_subspace_pair("intersection"), None),
    "Subspace.subspace_sum": (_subspace_pair("subspace_sum"), None),
    "Subspace.contains_subspace": (_subspace_pair("contains_subspace"), None),
    "complement_in": (_complement_in, None),
    "Isometry.__mul__": (_isometry_product, None),
    "Isometry.restrict": (_restrict, None),
    "natural_involution": (_natural_involution, None),
    "exhaustive_verify(char)": (functools.partial(_exhaustive_verify, "char"), None),
    "exhaustive_verify(totimes)": (functools.partial(_exhaustive_verify, "totimes"), None),
    "reflection_block(wf=)": (functools.partial(_reflection_block, "wf"), "reflection"),
    "reflection_block(within=)": (functools.partial(_reflection_block, "within"), "reflection"),
    "interchange_block(wf=)": (functools.partial(_interchange_block, "wf"), "interchange"),
    "interchange_block(within=)": (functools.partial(_interchange_block, "within"),
                                   "interchange"),
    "validate_decomposition": (_validate_decomposition, None),
    "Matrix.__add__": (_matrix_op(lambda x, y: x + y), None),
    "Matrix.__sub__": (_matrix_op(lambda x, y: x - y), None),
    "Matrix.__mul__": (_matrix_op(lambda x, y: x * y), None),
    "CliffordAlgebra.mul": (_clifford_mul, None),
    "Clifford apply": (_clifford_apply, None),
}


@pytest.mark.parametrize("call", sorted(CALLS))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_two_operand_calls_take_operands_of_one_space(call, data):
    operands, kind = CALLS[call]
    a = data.draw(st.sampled_from(_spaces_with(kind) if kind else NAMES))
    b = data.draw(st.sampled_from(NAMES))
    thunk, error = operands(data.draw, a, b)
    if error is None:
        assert thunk() is not None
    else:
        with pytest.raises(error[0], match=error[1]):
            thunk()
