"""Command-line interface: JSON in, JSON out, exit codes, round-trips."""

import json

from wallforms.cli import main

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


def test_integer_entries_still_accepted(tmp_path, capsys):
    doc = dict(GF7_DOC, q_upper=[[1, 0], [0, 6]], tau=[[6, 0], [0, 6]])
    code, out = _run(capsys, "analyze", "--space", _write(tmp_path, doc))
    assert code == 0
    assert out["space"]["q_upper"] == [["1", "0"], ["0", "6"]]


def test_malformed_structure_is_parse_error(tmp_path, capsys):
    for doc in (dict(GF7_DOC, dim=2.5), dict(GF7_DOC, dim=True),
                dict(GF7_DOC, tau=5), dict(GF7_DOC, tau="66"),
                dict(GF7_DOC, reflection_words=5),
                dict(GF7_DOC, reflection_words=[5]),
                dict(GF7_DOC, reflection_words=[[5]])):
        _expect_parse_error(tmp_path, capsys, doc)

