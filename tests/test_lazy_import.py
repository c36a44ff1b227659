"""numpy loads on first use: the package, the CLI and its analyze,
decompose and clifford commands run without it, and every name the
package exports still resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wallforms

SRC = Path(__file__).resolve().parents[1] / "src"

# the names `import wallforms` binds, the oracle's and the submodules' included
EXPORTED = [
    "AlgebraInvolution", "Block", "CliffordAlgebra", "CliffordElement", "Decomposition",
    "Field", "FieldElement", "Galois2Field", "GroupEnumeration", "InterchangeBlock",
    "InvariantViolation", "Isometry", "Matrix", "MatrixIso", "PfisterDescriptor",
    "PhiAlgebra", "PreconditionError", "PrimeField", "QuadraticSpace",
    "RationalFunctionField", "ReflectionBlock", "ReflectionWord", "SquareClass",
    "Subspace", "VerifyReport", "WallForm", "WallformsError", "algebra_for_space",
    "alternating_generators_check", "assoc_quadratic", "classify", "clifford",
    "complement_W", "complement_in", "decompose", "eichler",
    "enumerate_orthogonal_group", "enumerate_unipotent2", "errors", "exhaustive_verify",
    "explicit_matrix_iso", "extend_to_hyperbolic_basis", "fields", "goldman_element",
    "hyperbolic_basis_alternating", "identity_isometry", "interchange_block",
    "interchange_normal_basis", "involution_type", "is_interchanging_kind", "isometry",
    "linalg", "make_isometry", "natural_involution", "oracle", "orthogonal_basis",
    "parse_field", "pfister_invariant", "phi_subalgebra", "quadspace", "reflection",
    "reflection_block", "spinor_norm_word", "square_scalar_check",
    "tensor_decomposition_witness", "transpose_iso_criterion", "wall_form", "wallform",
]
ORACLE = {"GroupEnumeration", "VerifyReport", "enumerate_orthogonal_group",
          "enumerate_unipotent2", "exhaustive_verify", "oracle"}

H = [["0", "1"], ["0", "0"]]


def _hyperbolic(planes):
    n = 2 * planes
    return [[H[i % 2][j % 2] if i // 2 == j // 2 else "0" for j in range(n)]
            for i in range(n)]


# one problem per kind of field; (analyze, decompose, clifford) exit codes
PROBLEMS = [
    ({"field": "gf(2)", "dim": 6, "q_upper": _hyperbolic(3),
      "tau": [["1" if i + j == 5 else "0" for j in range(6)] for i in range(6)]}, [0, 0, 0]),
    ({"field": "gf(4;x^2+x+1)", "dim": 4, "q_upper": _hyperbolic(2),
      "tau": [["0", "0", "0", "w"], ["0", "0", "w+1", "0"],
              ["0", "w", "0", "0"], ["w+1", "0", "0", "0"]]}, [0, 0, 0]),
    ({"field": "gf(97)", "dim": 2, "q_upper": [["1", "6"], ["0", "1"]],
      "tau": [["96", "0"], ["0", "96"]], "reflection_words": [[["1", "0"], ["1", "1"]]]},
     [0, 3, 3]),  # -1 is not unipotent, and the characteristic is odd
    ({"field": "gf2(t)", "dim": 2, "q_upper": [["t", "1"], ["0", "0"]],
      "tau": [["1", "1/t"], ["0", "1"]]}, [0, 0, 0]),
]

SCRIPT = """
import contextlib, io, json, sys
import wallforms, wallforms.cli

exported, oracle, problems = json.loads(sys.argv[1])
codes = []
for path, _ in problems:
    for command in ("analyze", "decompose", "clifford"):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(wallforms.cli.main([command, "--space", path]))
assert codes == [c for _, expected in problems for c in expected], codes
assert "numpy" not in sys.modules, "a command loaded numpy"

listed = dir(wallforms)
assert all(name in listed for name in exported)
for name in exported:
    if name not in oracle:
        getattr(wallforms, name)
        exec(f"from wallforms import {name}", {})
assert "numpy" not in sys.modules, "a name outside the oracle loaded numpy"

space = wallforms.QuadraticSpace.hyperbolic(wallforms.parse_field("gf(2)"), 2)
assert wallforms.enumerate_orthogonal_group(space).order == 72
assert "numpy" in sys.modules
for name in oracle:  # bound once, on the first lookup
    assert name in vars(wallforms), name
    scope = {}
    exec(f"from wallforms import {name}", scope)
    assert scope[name] is getattr(wallforms, name)
assert wallforms.exhaustive_verify is wallforms.oracle.exhaustive_verify
star = {}
exec("from wallforms import *", star)
assert set(exported) <= set(star)
"""


def test_cli_commands_run_without_numpy(tmp_path):
    problems = []
    for i, (doc, expected) in enumerate(PROBLEMS):
        path = tmp_path / f"problem{i}.json"
        path.write_text(json.dumps(doc))
        problems.append((str(path), expected))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([EXPORTED, sorted(ORACLE), problems])],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        wallforms.__getattr__("no_such_name")
    assert not hasattr(wallforms, "no_such_name")
    assert set(EXPORTED) <= set(wallforms.__dir__())
