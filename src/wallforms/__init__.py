"""Exact computation with isometries of quadratic spaces.

Fields GF(p), GF(2^k) and GF(2)(t); quadratic spaces and their subspace
lattice; isometries with their residual bilinear forms; decomposition of
unipotent isometries of index two into interchange blocks and reflections;
and, in characteristic two, Clifford algebras with the induced involution
and its invariants, all backed by a brute-force enumeration oracle.

Importing the package loads no numpy: only the oracle (enumeration and
exhaustive verification) and the explicit matrix models of ``clifford``
use it, and they load it when first used.
"""

from .errors import WallformsError, PreconditionError, InvariantViolation
from .fields import (
    Field,
    FieldElement,
    Galois2Field,
    PrimeField,
    RationalFunctionField,
    parse_field,
)
from .linalg import Matrix
from .quadspace import (
    QuadraticSpace,
    Subspace,
    complement_in,
    extend_to_hyperbolic_basis,
    hyperbolic_basis_alternating,
    orthogonal_basis,
)
from .isometry import (
    Isometry,
    ReflectionWord,
    SquareClass,
    eichler,
    identity_isometry,
    make_isometry,
    reflection,
    spinor_norm_word,
)
from .wallform import WallForm, assoc_quadratic, classify, wall_form
from .decompose import (
    Block,
    Decomposition,
    InterchangeBlock,
    ReflectionBlock,
    complement_W,
    decompose,
    interchange_block,
    interchange_normal_basis,
    is_interchanging_kind,
    reflection_block,
)
from .clifford import (
    AlgebraInvolution,
    CliffordAlgebra,
    CliffordElement,
    MatrixIso,
    PfisterDescriptor,
    PhiAlgebra,
    algebra_for_space,
    alternating_generators_check,
    explicit_matrix_iso,
    goldman_element,
    involution_type,
    natural_involution,
    pfister_invariant,
    phi_subalgebra,
    square_scalar_check,
    tensor_decomposition_witness,
    transpose_iso_criterion,
)

__version__ = "0.1.0"

# The oracle, and numpy with it, loads on first use: the first lookup of
# the module or of one of its names binds all of them here, so every later
# lookup is a plain module attribute.
_ORACLE_NAMES = (
    "GroupEnumeration",
    "VerifyReport",
    "enumerate_orthogonal_group",
    "enumerate_unipotent2",
    "exhaustive_verify",
)
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | {"oracle", *_ORACLE_NAMES})


def __getattr__(name):
    """The oracle's names, imported on first use; MissingDependency (a
    PreconditionError) if numpy is not installed."""
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    from .errors import MissingDependency

    try:
        oracle = importlib.import_module(".oracle", __name__)  # binds "oracle" here
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise MissingDependency(f"{name} needs numpy, which is not installed") from exc
    globals().update((n, getattr(oracle, n)) for n in _ORACLE_NAMES)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
