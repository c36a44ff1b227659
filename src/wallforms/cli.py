"""Command-line frontend: parse problem files, run analyses, emit JSON.

Problem files are JSON documents:

    {
      "field": "gf(2)",
      "dim": 4,
      "q_upper": [["0","1","0","0"], ...],      # upper-triangular form matrix
      "tau": [["1","0","0","0"], ...],          # optional, column convention
      "reflection_words": [[["1","0"], ...]]    # optional vector lists
    }

Elements are strings in the field's literal grammar (plain integers are
also accepted; floats, booleans and nulls are parse errors).  Exit codes:
0 success, 2 parse error, 3 precondition violation, 4 internal invariant
failure.

A request pays only for its own problem: ``parse_field`` hands out one
interned field per field, whose kernel, tables and elements outlive the
request, a canonical element literal is one table lookup, and matrices are
built straight from the parsed payloads.  Only ``verify`` and
``enumerate`` import the oracle, and with it numpy; the other commands
never load either.  Without numpy those two exit 3 (a precondition).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import (
    InvariantViolation,
    ParseError,
    PreconditionError,
    WallformsError,
)
from .fields import _ascii_int, parse_field
from .linalg import Matrix
from .quadspace import QuadraticSpace
from .isometry import Isometry, ReflectionWord
from .wallform import classify, wall_form
from .decompose import decompose
from .clifford import (
    algebra_for_space,
    involution_type,
    natural_involution,
    pfister_invariant,
    phi_subalgebra,
    transpose_iso_criterion,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INVARIANT = 4


class ProblemFile:
    def __init__(self, space: QuadraticSpace, tau: Isometry | None, words):
        self.space = space
        self.tau = tau
        self.reflection_words = words


def _parse_matrix(field, rows, dim) -> Matrix:
    """A dim x dim matrix straight on the payloads of the parsed entries,
    each of which `field.parse` has made an element of `field`."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"matrix is not {dim}x{dim}")
    return Matrix._trusted(field, tuple(
        tuple([e.payload for e in _parse_vector(field, row, dim)]) for row in rows), dim)


def _parse_vector(field, row, dim):
    if not isinstance(row, list) or len(row) != dim:
        raise ParseError(f"vector is not a list of length {dim}")
    return tuple(map(field.parse, row))


def load_problem(doc: dict) -> ProblemFile:
    try:
        field = parse_field(doc["field"])
        dim = doc["dim"]
        if isinstance(dim, (bool, float)):
            raise ParseError(f"dim must be an integer, got {dim!r}")
        dim = _ascii_int(dim) if isinstance(dim, str) else int(dim)
        qmat = _parse_matrix(field, doc["q_upper"], dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad problem file: {exc}") from exc
    space = QuadraticSpace.from_q_upper(field, qmat)
    tau = None
    if "tau" in doc:
        tau = Isometry(space, _parse_matrix(field, doc["tau"], dim))
    words = doc.get("reflection_words", [])
    if not isinstance(words, list) or not all(isinstance(w, list) for w in words):
        raise ParseError("reflection_words must be a list of vector lists")
    words = [ReflectionWord(space, tuple(_parse_vector(field, v, dim) for v in word))
             for word in words]
    return ProblemFile(space, tau, words)


def _read_problem(path: str) -> ProblemFile:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem file must be a JSON object")
    return load_problem(doc)


def _matrix_strings(mat: Matrix):
    return [[str(e) for e in row] for row in mat.rows]


def _vector_strings(v):
    return [str(e) for e in v]


def _require_tau(problem: ProblemFile) -> Isometry:
    if problem.tau is None:
        raise ParseError("problem file declares no isometry ('tau')")
    return problem.tau


def cmd_analyze(problem: ProblemFile) -> dict:
    tau = _require_tau(problem)
    wf = wall_form(tau)
    flags = classify(wf)
    spinor = []
    for idx, word in enumerate(problem.reflection_words):
        cls = word.spinor_norm()
        spinor.append({
            "word": idx,
            "class": str(cls.rep),
            "trivial": cls.is_trivial(),
        })
    return {
        "space": {
            "field": problem.space.field.literal(),
            "dim": problem.space.dim,
            "q_upper": _matrix_strings(problem.space.qmat),
        },
        "tau": _matrix_strings(tau.mat),
        "wall_gram": _matrix_strings(wf.gram),
        "residual_basis": [_vector_strings(u) for u in wf.basis],
        "symmetric": flags.symmetric,
        "antisymmetric": flags.antisymmetric,
        "alternating": flags.alternating,
        "r_dim": tau.residual_space().dim,
        "k_dim": tau.fixed_space().dim,
        "unipotency_index": tau.unipotency_index(),
        "spinor_norms": spinor,
    }


def cmd_decompose(problem: ProblemFile) -> dict:
    tau = _require_tau(problem)
    d = decompose(tau)
    blocks = []
    for blk in d.blocks:
        names = ("u", "preimage") if blk.kind == "reflection" else ("x", "y", "w", "z")
        blocks.append({"kind": blk.kind, **dict(zip(names, map(_vector_strings, blk.vectors())))})
    return {
        "W_basis": [_vector_strings(v) for v in d.fixed_complement.vectors()],
        "blocks": blocks,
        "m": d.m,
        "s": d.s,
        "valid": True,
    }


def cmd_clifford(problem: ProblemFile) -> dict:
    tau = _require_tau(problem)
    algebra_for_space(problem.space)  # fail early on characteristic != 2
    inv = natural_involution(tau)
    out = {
        "involution_type": involution_type(inv),
        "residual_fixed": tau.residual_space() == tau.fixed_space(),
        "phi_dim": None,
        "phi_generator_squares": None,
        "pfister": None,
        "pfister_square_flags": None,
        "transpose_iso": None,
    }
    if out["residual_fixed"]:
        phi = phi_subalgebra(tau)
        pf = pfister_invariant(tau)
        crit = transpose_iso_criterion(tau)
        out["phi_dim"] = phi.dim
        out["phi_generator_squares"] = [str(c) for c in phi.generator_squares]
        out["pfister"] = [str(g) for g in pf.generators]
        out["pfister_square_flags"] = list(pf.square_flags)
        out["transpose_iso"] = crit.holds
        out["criterion_structure"] = crit.structure
    return out


def cmd_verify(problem: ProblemFile, theorem: str) -> tuple[dict, int]:
    from . import exhaustive_verify  # the oracle, on first use (MissingDependency without numpy)

    report = exhaustive_verify(theorem, problem.space)
    code = EXIT_OK if report.failed == 0 else EXIT_INVARIANT
    return report.as_dict(), code


def cmd_enumerate(problem: ProblemFile) -> dict:
    from . import enumerate_orthogonal_group

    enum = enumerate_orthogonal_group(problem.space)
    return {
        "order": enum.order,
        "unipotent2_count": len(enum.unipotent2_indices()),
        "method": enum.method,
    }


def _emit(payload: dict):
    try:
        print(json.dumps(payload, sort_keys=True, indent=2), flush=True)
    except BrokenPipeError:
        # the reader has gone: send stdout to devnull, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `parse_args` keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="wallforms",
        description="Exact analysis of quadratic-space isometries: residual "
                    "forms, block decompositions, Clifford invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_theorem in [
        ("analyze", False), ("decompose", False), ("clifford", False),
        ("verify", True), ("enumerate", False),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--space", required=True,
                       help="problem file (JSON); '-' reads stdin")
        if needs_theorem:
            p.add_argument("--theorem", required=True,
                           help="theorem id: tauid, defint, char, v', res, g, clif, totimes")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        problem = _read_problem(args.space)
        if args.command == "analyze":
            _emit(cmd_analyze(problem))
        elif args.command == "decompose":
            _emit(cmd_decompose(problem))
        elif args.command == "clifford":
            _emit(cmd_clifford(problem))
        elif args.command == "verify":
            payload, code = cmd_verify(problem, args.theorem)
            _emit(payload)
            return code
        elif args.command == "enumerate":
            _emit(cmd_enumerate(problem))
        return EXIT_OK
    except ParseError as exc:
        _emit({"error": "parse", "message": str(exc)})
        return EXIT_PARSE
    except InvariantViolation as exc:
        _emit({"error": "invariant", "message": str(exc)})
        return EXIT_INVARIANT
    except (PreconditionError, WallformsError) as exc:
        _emit({"error": "precondition", "message": str(exc)})
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
