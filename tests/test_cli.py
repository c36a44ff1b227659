"""Command-line interface: JSON in, JSON out, exit codes, round-trips."""

import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import wallforms
from wallforms.cli import main
from wallforms.errors import InvariantViolation
from wallforms.oracle import AUTO_SCAN_LIMIT, _RUNNERS

H4F2_DOC = {
    "field": "gf(2)",
    "dim": 4,
    "q_upper": [
        ["0", "1", "0", "0"],
        ["0", "0", "0", "0"],
        ["0", "0", "0", "1"],
        ["0", "0", "0", "0"],
    ],
    "tau": [
        ["1", "0", "0", "1"],
        ["0", "1", "0", "0"],
        ["0", "1", "1", "0"],
        ["0", "0", "0", "1"],
    ],
}

R2T_DOC = {
    "field": "gf2(t)",
    "dim": 2,
    "q_upper": [["t", "1"], ["0", "0"]],
    "tau": [["1", "1/t"], ["0", "1"]],
    "reflection_words": [[["1", "0"]]],
}

R4T_DOC = {
    "field": "gf2(t)",
    "dim": 4,
    "q_upper": [
        ["t", "1", "0", "0"],
        ["0", "0", "0", "0"],
        ["0", "0", "t", "1"],
        ["0", "0", "0", "0"],
    ],
    "tau": [
        ["1", "1/t", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "1/t"],
        ["0", "0", "0", "1"],
    ],
}


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("size, expected", [
    ("100000000000000003", 3),  # a prime above the cap, decided in a few modular powers
    ("1000000000039", 3),
    ("100", 2),
])
def test_field_size_is_refused_at_once(tmp_path, capsys, size, expected):
    path = _write(tmp_path, dict(H4F2_DOC, field=f"gf({size})"))
    start = time.perf_counter()
    code, out = _run(capsys, "analyze", "--space", path)
    assert (code, "error" in out) == (expected, True)
    assert time.perf_counter() - start < 1.0


def test_huge_field_size_is_refused_before_any_primality_test(tmp_path, capsys):
    """2^11213 - 1 written out, a prime of 3 376 digits, took 45 s in the
    primality test; every size past the exact Miller-Rabin range is
    refused with exit 3 before it."""
    size = str(2 ** 11213 - 1)
    assert len(size) == 3376
    path = _write(tmp_path, dict(H4F2_DOC, field=f"gf({size})"))
    start = time.perf_counter()
    code, out = _run(capsys, "analyze", "--space", path)
    assert (code, "error" in out) == (3, True)
    assert time.perf_counter() - start < 1.0


def _hyperbolic_gf2_doc(dim):
    """The hyperbolic space of dimension `dim` over gf(2), with tau the
    swap of e_1 and f_1."""
    q_upper = [["1" if j == i + 1 and i % 2 == 0 else "0" for j in range(dim)]
               for i in range(dim)]
    swap = {0: 1, 1: 0}
    tau = [["1" if j == swap.get(i, i) else "0" for j in range(dim)] for i in range(dim)]
    return {"field": "gf(2)", "dim": dim, "q_upper": q_upper, "tau": tau}


def test_clifford_beyond_the_generator_cap_is_refused_at_once(tmp_path, capsys):
    """A 2^14-dimensional algebra's 4^14-entry structure table ran out of
    memory after 26 s (exit 1); the algebra refuses 14 generators first."""
    path = _write(tmp_path, _hyperbolic_gf2_doc(14))
    start = time.perf_counter()
    code, out = _run(capsys, "clifford", "--space", path)
    assert (code, "error" in out) == (3, True)
    assert time.perf_counter() - start < 1.0


def test_analyze_h4f2(tmp_path, capsys):
    path = _write(tmp_path, H4F2_DOC)
    code, out = _run(capsys, "analyze", "--space", path)
    assert code == 0
    assert out["alternating"] is True
    assert out["symmetric"] is True
    assert (out["r_dim"], out["k_dim"]) == (2, 2)
    assert out["unipotency_index"] == 2
    assert out["wall_gram"] == [["0", "1"], ["1", "0"]]


def test_analyze_identity(tmp_path, capsys):
    doc = dict(H4F2_DOC)
    doc["tau"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert code == 0
    assert out["wall_gram"] == []
    assert out["unipotency_index"] == 0


def test_analyze_r2t(tmp_path, capsys):
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, R2T_DOC))
    assert code == 0
    assert out["wall_gram"] == [["t"]]
    assert out["alternating"] is False
    assert out["spinor_norms"][0]["trivial"] is False
    assert out["spinor_norms"][0]["class"] == "t"


def test_decompose_h4f2(tmp_path, capsys):
    code, out = _run(capsys, "decompose", "--space", _write(tmp_path, H4F2_DOC))
    assert code == 0
    assert out["m"] == 1
    assert out["blocks"][0]["kind"] == "interchange"
    assert out["W_basis"] == []
    assert out["valid"] is True


def test_decompose_r4t(tmp_path, capsys):
    code, out = _run(capsys, "decompose", "--space", _write(tmp_path, R4T_DOC))
    assert code == 0
    assert out["m"] == 2
    assert [b["kind"] for b in out["blocks"]] == ["reflection", "reflection"]


def test_decompose_identity(tmp_path, capsys):
    doc = dict(H4F2_DOC)
    doc["tau"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    code, out = _run(capsys, "decompose", "--space", _write(tmp_path, doc))
    assert code == 0
    assert out["m"] == 0
    assert len(out["W_basis"]) == 4


def test_decompose_rejects_non_unipotent(tmp_path, capsys):
    doc = {
        "field": "gf(7)",
        "dim": 2,
        "q_upper": [["1", "0"], ["0", "1"]],
        "tau": [["6", "0"], ["0", "1"]],  # reflection: not unipotent
    }
    code, out = _run(capsys, "decompose", "--space", _write(tmp_path, doc))
    assert code == 3
    assert out["error"] == "precondition"


def test_clifford_h4f2(tmp_path, capsys):
    code, out = _run(capsys, "clifford", "--space", _write(tmp_path, H4F2_DOC))
    assert code == 0
    assert out["involution_type"] == "orthogonal"
    assert out["transpose_iso"] is True
    assert out["pfister"] == ["1", "1"]
    assert out["phi_dim"] == 4


def test_clifford_r2t(tmp_path, capsys):
    code, out = _run(capsys, "clifford", "--space", _write(tmp_path, R2T_DOC))
    assert code == 0
    assert out["pfister"] == ["t"]
    assert out["transpose_iso"] is False
    assert out["pfister_square_flags"] == [False]


def test_clifford_identity_symplectic(tmp_path, capsys):
    doc = dict(H4F2_DOC)
    doc["tau"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    code, out = _run(capsys, "clifford", "--space", _write(tmp_path, doc))
    assert code == 0
    assert out["involution_type"] == "symplectic"
    assert out["residual_fixed"] is False
    assert out["pfister"] is None


def test_clifford_rejects_odd_characteristic(tmp_path, capsys):
    doc = {
        "field": "gf(7)",
        "dim": 2,
        "q_upper": [["1", "0"], ["0", "1"]],
        "tau": [["1", "0"], ["0", "1"]],
    }
    code, out = _run(capsys, "clifford", "--space", _write(tmp_path, doc))
    assert code == 3


def test_verify_char(tmp_path, capsys):
    code, out = _run(capsys, "verify", "--theorem", "char",
                     "--space", _write(tmp_path, H4F2_DOC))
    assert code == 0
    assert out["failed"] == 0
    assert out["checked"] == 22


def test_verify_unknown_theorem(tmp_path, capsys):
    code, out = _run(capsys, "verify", "--theorem", "bogus",
                     "--space", _write(tmp_path, H4F2_DOC))
    assert code == 3
    assert out["error"] == "precondition"


def test_enumerate(tmp_path, capsys):
    code, out = _run(capsys, "enumerate", "--space", _write(tmp_path, H4F2_DOC))
    assert code == 0
    assert out["order"] == 72
    assert out["unipotent2_count"] == 22


@pytest.mark.parametrize("literal", ["gf(2)", "gf(7)"])
def test_zero_space_enumerates_and_verifies(tmp_path, capsys, literal):
    path = _write(tmp_path, {"field": literal, "dim": 0, "q_upper": []})
    code, out = _run(capsys, "enumerate", "--space", path)
    assert (code, out) == (0, {"method": "exhaustive-matrix-scan", "order": 1,
                               "unipotent2_count": 1})
    for theorem in ("tauid", "char", "v'"):
        code, out = _run(capsys, "verify", "--theorem", theorem, "--space", path)
        assert (code, out["checked"], out["failed"]) == (0, 1, 0)


def test_totimes_over_an_infinite_field_exits_3(tmp_path, capsys):
    code, out = _run(capsys, "verify", "--theorem", "totimes",
                     "--space", _write(tmp_path, R2T_DOC))
    assert (code, out) == (3, {"error": "precondition",
                               "message": "the coefficient field is infinite"})


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = _run(capsys, "analyze", "--space", str(path))
    assert code == 2
    assert out["error"] == "parse"


def test_missing_tau_is_parse_error(tmp_path, capsys):
    doc = {k: v for k, v in H4F2_DOC.items() if k != "tau"}
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert code == 2


def test_bad_isometry_is_precondition_error(tmp_path, capsys):
    doc = dict(H4F2_DOC)
    doc["tau"] = [["1", "1", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert code == 3


def test_invariant_violation_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(tau):
        raise InvariantViolation("injected: the blocks do not reassemble tau")
    monkeypatch.setattr(importlib.import_module("wallforms.cli"), "decompose", broken)
    code = main(["decompose", "--space", _write(tmp_path, H4F2_DOC)])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {"error": "invariant",
                                        "message": "injected: the blocks do not reassemble tau"}
    assert captured.err == ""


@pytest.mark.parametrize("doc", [H4F2_DOC, R2T_DOC], ids=["gf(2)", "gf2(t)"])
def test_warm_requests_leave_no_library_garbage(tmp_path, capsys, doc):
    """Fields are interned, so a warm request leaves no reference cycle of
    library objects for the cyclic collector; the encoder closures that
    ``json.dumps(indent=2)`` leaves are not library objects."""
    path = _write(tmp_path, doc)
    commands = ("analyze", "decompose", "clifford")
    for command in commands:
        assert main([command, "--space", path]) == 0
    enabled, debug, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for command in commands:
            assert main([command, "--space", path]) == 0
        gc.collect()
        leaked = [type(o).__qualname__ for o in gc.garbage[start:]
                  if type(o).__module__.startswith("wallforms")]
    finally:
        del gc.garbage[start:]
        gc.set_debug(debug)
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert leaked == []


def test_round_trip_emitted_space(tmp_path, capsys):
    code, first = _run(capsys, "analyze", "--space", _write(tmp_path, H4F2_DOC))
    assert code == 0
    rebuilt = {
        "field": first["space"]["field"],
        "dim": first["space"]["dim"],
        "q_upper": first["space"]["q_upper"],
        "tau": first["tau"],
    }
    code, second = _run(capsys, "analyze", "--space",
                        _write(tmp_path, rebuilt, "rebuilt.json"))
    assert code == 0
    assert second == first


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(H4F2_DOC)))
    code, out = _run(capsys, "analyze", "--space", "-")
    assert code == 0
    assert out["alternating"] is True


def test_verify_vprime_theorem(tmp_path, capsys):
    code, out = _run(capsys, "verify", "--theorem", "v'",
                     "--space", _write(tmp_path, H4F2_DOC))
    assert code == 0
    assert out["theorem"] == "v'"
    assert out["failed"] == 0


def test_isotropic_reflection_word_is_precondition_error(tmp_path, capsys):
    doc = dict(H4F2_DOC)
    doc["reflection_words"] = [[["1", "0", "0", "0"]]]  # q = 0
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert code == 3


GF7_DOC = {
    "field": "gf(7)",
    "dim": 2,
    "q_upper": [["1", "0"], ["0", "6"]],
    "tau": [["6", "0"], ["0", "6"]],
    "reflection_words": [[["1", "0"]]],
}


def _with_entry(doc, key, value):
    """A copy of doc with entry [0][1] of matrix `key` replaced."""
    rows = [list(r) for r in doc[key]]
    rows[0][1] = value
    return dict(doc, **{key: rows})


def _expect_parse_error(tmp_path, capsys, doc):
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert (code, out["error"]) == (2, "parse")


def test_non_string_field_is_parse_error(tmp_path, capsys):
    for value in (5, None, True, ["gf(2)"]):
        _expect_parse_error(tmp_path, capsys, dict(H4F2_DOC, field=value))


def test_non_literal_matrix_entries_are_parse_errors(tmp_path, capsys):
    # floats, booleans and nulls were read as 1 (or escaped as AttributeError)
    for doc in (GF7_DOC, H4F2_DOC, dict(H4F2_DOC, field="gf(4)"), R2T_DOC):
        for key in ("q_upper", "tau"):
            for value in (1.5, True, False, None):
                _expect_parse_error(tmp_path, capsys, _with_entry(doc, key, value))


def test_non_literal_vector_entries_are_parse_errors(tmp_path, capsys):
    for value in (1.5, True, None):
        _expect_parse_error(tmp_path, capsys,
                            dict(GF7_DOC, reflection_words=[[["1", value]]]))


def test_literals_outside_the_grammar_are_parse_errors(tmp_path, capsys):
    # each was read as some element before: 3, 3, t^10 and 0
    for doc, value in ((GF7_DOC, "1_0"), (GF7_DOC, "\u0663"), (R2T_DOC, "t^1_0"),
                       (dict(H4F2_DOC, field="gf(4)"), "w+x")):
        _expect_parse_error(tmp_path, capsys, _with_entry(doc, "q_upper", value))
    _expect_parse_error(tmp_path, capsys, dict(GF7_DOC, field="gf(0_7)"))


def test_integer_entries_still_accepted(tmp_path, capsys):
    doc = dict(GF7_DOC, dim=" 2 ", q_upper=[[1, 0], [0, 6]], tau=[[6, 0], [0, 6]])
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert code == 0
    assert out["space"]["q_upper"] == [["1", "0"], ["0", "6"]]


def test_malformed_structure_is_parse_error(tmp_path, capsys):
    # a string dim follows the literal grammar: "\u0662" was read as 2, "1_0" as 10
    for doc in (dict(GF7_DOC, dim=2.5), dict(GF7_DOC, dim=True),
                dict(GF7_DOC, dim="\u0662"), dict(GF7_DOC, dim="1_0"),
                dict(GF7_DOC, tau=5), dict(GF7_DOC, tau="66"),
                dict(GF7_DOC, reflection_words=5),
                dict(GF7_DOC, reflection_words=[5]),
                dict(GF7_DOC, reflection_words=[[5]])):
        _expect_parse_error(tmp_path, capsys, doc)


def test_oversized_exponent_is_parse_error(tmp_path, capsys):
    # 1 << 99999999999 used to be computed before any check (MemoryError, exit 1)
    for key in ("q_upper", "tau"):
        _expect_parse_error(tmp_path, capsys, _with_entry(R2T_DOC, key, "t^99999999999"))
    _expect_parse_error(tmp_path, capsys, dict(H4F2_DOC, field="gf(4;x^99999999999)"))
    doc = dict(R2T_DOC, q_upper=[["t^100/t^99", "1"], ["0", "0"]])  # still read as t
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert code == 0
    assert out["space"]["q_upper"] == R2T_DOC["q_upper"]


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _run_in_subprocess(*argv):
    src = os.path.dirname(os.path.dirname(wallforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "wallforms.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", [["enumerate"], ["verify", "--theorem", "char"]])
def test_oracle_commands_without_numpy_exit_3(tmp_path, argv):
    """numpy blocked before the package is imported: the oracle's import
    fails, which the command reports as a precondition error, exit 3, with
    no traceback."""
    src = os.path.dirname(os.path.dirname(wallforms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; sys.modules['numpy'] = None; from wallforms import cli; "
            "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--space", _write(tmp_path, H4F2_DOC)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (3, "")
    out = json.loads(proc.stdout)
    assert out["error"] == "precondition" and "numpy" in out["message"]


def test_calls_in_one_process_print_what_separate_processes_print(tmp_path, capsys):
    h4 = _write(tmp_path, H4F2_DOC, "h4.json")
    r2 = _write(tmp_path, R2T_DOC, "r2.json")
    requests = [("analyze", "--space", r2), ("decompose", "--space", h4),
                ("clifford", "--space", r2), ("verify", "--space", h4, "--theorem", "res")]
    in_process = []
    for argv in requests:
        code = main(list(argv))
        in_process.append((code, capsys.readouterr().out))
    assert in_process == [_run_in_subprocess(*argv) for argv in requests]


@pytest.mark.parametrize("command, doc, expected", [
    ("analyze", R2T_DOC, 0),
    ("clifford", GF7_DOC, 3),                                  # characteristic 7
    ("analyze", {k: v for k, v in GF7_DOC.items() if k != "tau"}, 2),
])
def test_closed_stdout_ends_quietly_with_the_same_exit_code(command, doc, expected,
                                                           tmp_path, capsys):
    assert main([command, "--space", _write(tmp_path, doc)]) == expected
    capsys.readouterr()
    src = os.path.dirname(os.path.dirname(wallforms.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left, so the first write fails with EPIPE
    try:
        proc = subprocess.Popen([sys.executable, "-m", "wallforms.cli", command, "--space", "-"],
                                stdin=subprocess.PIPE, stdout=write_end,
                                stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(json.dumps(doc).encode(), timeout=120)
    assert (proc.returncode, err) == (expected, b"")


def test_argparse_exit_leaves_the_parser_usable(tmp_path, capsys):
    path = _write(tmp_path, H4F2_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--space", path])  # --theorem is required
    assert exc.value.code == 2
    assert "--theorem" in capsys.readouterr().err
    code, out = _run(capsys, "verify", "--space", path, "--theorem", "char")
    assert code == 0
    assert out["theorem"] == "char"
    code, out = _run(capsys, "analyze", "--space", path)
    assert code == 0


def test_help_exits_zero_and_repeats(capsys):
    texts = []
    for argv in (["--help"], ["analyze", "--help"], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[2]
    assert "analyze" in texts[0] and "--space" in texts[1]


# ---------------------------------------------------------------------------
# fuzz: generated problem documents exit 0/2/3/4, never with a traceback
# ---------------------------------------------------------------------------

_VARS = {"gf(2)": "w", "gf(4)": "w", "gf(8)": "w", "gf(7)": "", "gf(97)": "", "gf2(t)": "t"}


def _max_dim(field, scan_range):
    """The largest dim drawn: 4, or for a group request over a finite
    field the largest n of the scan's own auto range, |F|^(n*n) <=
    AUTO_SCAN_LIMIT (gf2(t) is refused as infinite at once)."""
    order = wallforms.parse_field(field).order()
    if not scan_range or order is None:
        return 4
    return max(n for n in range(5) if order ** (n * n) <= AUTO_SCAN_LIMIT)


def _poly_literals(var):
    if not var:
        return st.integers(-200, 200).map(str)
    term = st.one_of(st.just("1"), st.just(var),
                     st.integers(0, 12).map(lambda e: f"{var}^{e}"))
    return st.lists(term, min_size=1, max_size=4).map("+".join)


def _entries(field):
    var = _VARS[field]
    valid = _poly_literals(var)
    if field == "gf2(t)":
        valid = st.one_of(valid, st.tuples(valid, valid).map(lambda p: f"({p[0]})/({p[1]})"))
    invalid = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none(),
        st.integers(-10**30, 10**30),
        st.sampled_from(["t^99999999999", f"{var or 't'}^-1", f"{var or 't'}^1.5",
                         "1/0", "t/t/t", "", "+", "x^", "(t", "1/(t^2+t)", "w+x",
                         "1_0", "\u0663", "t^1_0"]),
        st.text(max_size=6),
    )
    return st.one_of(valid, valid, valid, invalid)


def _square(field, dim):
    return st.lists(st.lists(_entries(field), min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)


def _upper_forms(field, dim):
    """Upper-triangular q matrices of well-formed entries of `field`, so many
    spaces are regular and reach the enumeration."""
    if field == "gf2(t)":
        entries = _poly_literals("t")
    else:
        entries = st.sampled_from([str(e) for e in wallforms.parse_field(field).elements()])
    return st.lists(entries, min_size=dim * (dim + 1) // 2, max_size=dim * (dim + 1) // 2).map(
        lambda upper: [["0"] * i + upper[i * dim - i * (i - 1) // 2:][:dim - i]
                       for i in range(dim)])


@st.composite
def _problem_docs(draw, scan_range=False):
    field = draw(st.sampled_from(sorted(_VARS)))
    dim = draw(st.integers(0, _max_dim(field, scan_range)))
    if scan_range and draw(st.booleans()):
        return {"field": field, "dim": dim, "q_upper": draw(_upper_forms(field, dim))}
    doc = {"field": field, "dim": dim, "q_upper": draw(_square(field, dim))}
    if draw(st.booleans()):
        doc["tau"] = draw(st.one_of(_square(field, dim), _square(field, dim),
                                    st.sampled_from([[], 5, "tau", [[]]])))
    if draw(st.booleans()):
        vector = st.lists(_entries(field), min_size=dim, max_size=dim)
        doc["reflection_words"] = draw(st.one_of(
            st.lists(st.lists(vector, min_size=1, max_size=2), max_size=2),
            st.sampled_from([5, [5], [[5]], [[[]]]])))
    # wrong shapes: a dropped key or a field, dim or matrix of the wrong kind
    wrong = draw(st.sampled_from([None, None, None, "drop", "field", "dim", "q_upper"]))
    if wrong == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif wrong == "field":
        doc["field"] = draw(st.sampled_from([5, None, True, ["gf(2)"], "gf(9)", "gf(1)", "gf2(s)"]))
    elif wrong == "dim":
        doc["dim"] = draw(st.sampled_from([0, -1, dim + 1, 2.5, True, "2", None]))
    elif wrong == "q_upper":
        doc["q_upper"] = draw(st.sampled_from([[], [[]], 5, "q", [["1"] * dim]]))
    return draw(st.one_of(st.just(doc), st.just(doc), st.just(doc),
                          st.sampled_from([[doc], "doc", 5, None])))


REQUEST_BUDGET_S = 5.0  # the slowest drawn request takes well under 0.1 s on a 2-vCPU machine


@st.composite
def _requests(draw):
    """A command line and the document it reads: every command, and
    `verify` with every theorem id and an unknown one.  `verify` and
    `enumerate` draw their spaces from the scan's auto range."""
    command = draw(st.sampled_from(["analyze", "decompose", "clifford", "enumerate", "verify"]))
    argv = [command, "--space", "-"]
    if command == "verify":
        argv += ["--theorem", draw(st.sampled_from(sorted(_RUNNERS) + ["bogus"]))]
    return argv, draw(_problem_docs(scan_range=command in ("verify", "enumerate")))


@settings(max_examples=120, deadline=None)
@given(_requests())
def test_fuzzed_documents_exit_with_a_documented_code(request):
    """Each request exits 0, 2, 3 or 4 with a JSON object, within
    REQUEST_BUDGET_S.  Slow requests outside the drawn range are open work
    (ROADMAP items 12 and 15): `verify --theorem clif` on O+(4,8) takes
    about 18 s, and a closure over a group larger than its element cap runs
    to the cap before it refuses."""
    argv, doc = request
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert time.perf_counter() - start < REQUEST_BUDGET_S
    assert code in (0, 2, 3, 4)
    assert isinstance(json.loads(out.getvalue()), dict)
