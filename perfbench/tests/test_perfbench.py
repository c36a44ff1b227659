"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import cligen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "data" / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        values = list(range(n))
        beyond = sum(v > stats.percentile(values, expected) for v in values)
        assert beyond >= 10


def test_latency_summary_small_and_large():
    small = stats.latency_summary([5.0, 1.0, 3.0])
    assert (small["p50"], small["tail"], small["tail_percentile"]) == (3.0, 5.0, "max")
    large = stats.latency_summary([float(i) for i in range(1, 1001)])
    assert (large["p50"], large["tail"], large["tail_percentile"]) == (500.0, 990.0, "p99")


def test_calibration_scales_by_the_loop():
    nominal = stats.CALIBRATION_NOMINAL_S
    assert stats.calibrated(1.0, 2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert stats.calibrated(1.0, 0.5 * nominal, 1.5 * nominal) == pytest.approx(1.0)
    timer = stats.Stopwatch()
    assert timer(sorted, [3, 1, 2]) == [1, 2, 3]
    assert timer.raw > 0 and timer.calibrated > 0


# -- self-time arithmetic ----------------------------------------------------

def test_self_times_of_nested_spans():
    # 0: root [0, 10]; 1: [1, 4] and 2: [5, 9] under it; 3: [6, 7] under 2
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    own = tracing.self_times(parents, starts, ends)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert own.sum() == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 8.0, 12.0]   # the last child runs past its parent
    own = tracing.self_times(parents, starts, ends)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_spans_nest():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.span("demo.leaf", leaf)

    def outer(x):
        return wrapped_leaf(wrapped_leaf(x))

    assert tracer.span("bench.item", tracer.span("demo.outer", outer))(1) == 3
    agg = tracer.aggregate()
    assert agg.calls == {"bench.item": 1, "demo.outer": 1, "demo.leaf": 2}
    names, parents, starts, ends = tracer.spans()
    assert parents.tolist() == [-1, 0, 1, 1]
    total = float(ends[0] - starts[0])
    assert sum(agg.own.values()) == pytest.approx(total, rel=1e-9, abs=1e-12)


def test_install_and_restore_swap_every_binding():
    import wallforms

    def bindings():
        mods = sys.modules
        return (wallforms.wall_form, mods["wallforms.decompose"].wall_form,
                mods["wallforms.linalg"].Matrix.__dict__["rref"],
                mods["wallforms.quadspace"].Subspace.__dict__["from_vectors"])

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings()
        assert all(a is not b for a, b in zip(before, during))
        space = wallforms.QuadraticSpace.hyperbolic(wallforms.parse_field("gf(2)"), 1)
        wallforms.wall_form(wallforms.reflection(space, (space.field.one, space.field.one)))
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(before, bindings()))
    agg = tracer.aggregate()
    assert agg.n("wallform.wall_form") == 1 and agg.n("isometry.reflection") == 1
    assert agg.count("fields.boxed") > 0


@pytest.mark.parametrize("workload", ["cli-requests", "involution-sweep"])
def test_traced_run_accounts_for_its_time(workload, reference):
    """Traced runs: the layer self times sum to the traced time within the
    reported tracing overhead, and the counts repeat in a second run."""
    results = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "5", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        check = record["trace_check"]
        assert check["self_times_sum_within_overhead"]
        assert check["layer_self_s"] <= check["root_spans_s"] <= check["traced_s"]
        assert set(result["metrics"]) == {row[0] for row in tracing.PER_LAYER}
        results.append(result["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in results]
    assert counts[0] == counts[1]
    if workload == "cli-requests":
        assert counts[0]["trace.items"] == len(reference["cli"]["requests"])
    else:
        assert counts[0]["clifford.blade_mul_calls"] > 0 and counts[0]["trace.items"] > 0


def test_unexpected_exception_is_a_failed_operation(monkeypatch, capsys):
    """A runner that raises something other than a library error fails
    those operations, and the run still prints every metric."""
    import wallforms

    verify = wallforms.exhaustive_verify

    def broken(theorem, *args):
        if theorem == "g":
            raise IndexError("broken runner")
        return verify(theorem, *args)

    monkeypatch.setattr(wallforms, "exhaustive_verify", broken)
    assert run.main(["--workload", "involution-sweep", "--seed", "2",
                     "--seconds", "1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]
    assert set(result["metrics"]) == {row[0] for row in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "IndexError: broken runner" in record["failures"][0]


# -- input generator ----------------------------------------------------------

def test_generator_is_deterministic(reference, tmp_path):
    pool = reference["cli"]
    a = cligen.make_passes(pool, 7, 5)
    assert a == cligen.make_passes(pool, 7, 5)
    assert a != cligen.make_passes(pool, 8, 5)
    for order in a:
        assert sorted(order) == list(range(len(pool["requests"])))
    paths1 = cligen.write_problems(pool, str(tmp_path / "one"))
    paths2 = cligen.write_problems(pool, str(tmp_path / "two"))
    assert [Path(p).read_bytes() for p in paths1] == [Path(p).read_bytes() for p in paths2]
    argv = cligen.argv_for(pool["requests"][a[0][0]], paths1)
    assert argv[1] == "--space" and argv[2] in paths1


def test_known_defect_share_is_fixed(reference):
    pool = reference["cli"]
    defects = sum(r["category"] == "known_defect" for r in pool["requests"])
    for count in (1, 4):
        shares = cligen.input_shares(pool, cligen.make_passes(pool, 3, count))
        assert shares["known_defect_share"] == defects / len(pool["requests"])
        assert 0.0 < shares["repeated_space_share"] < 1.0


# -- comparison ---------------------------------------------------------------

def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    assert stats.verdict(base, faster, 0.1, "lower")["verdict"] == "improved"
    assert stats.verdict(base, slower, 0.1, "lower")["verdict"] == "worse"
    assert stats.verdict(base, list(base), 0.1, "lower")["verdict"] == "unchanged"
    assert stats.verdict(base[:5], faster[:5], 0.1, "lower")["verdict"] == "unresolved"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert stats.verdict(noisy, [v * 1.05 for v in noisy], 0.1, "lower")["verdict"] == "unresolved"
    assert stats.verdict(base, [v * 1.2 for v in base], 0.1, "higher")["verdict"] == "improved"


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert set(tracing.LAYERS) == {row[0].split(".")[0] for row in tracing.PER_LAYER} - {"trace"}


def test_set_digest_ignores_order_and_width():
    import workloads
    a = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=np.int64)
    assert workloads.set_digest(a) == workloads.set_digest(a[::-1].astype(np.int8))
    assert workloads.set_digest(a) != workloads.set_digest(a[:1])
    assert workloads.classical_order(2, 2) == 72
    assert workloads.classical_order(4, 2) == 7200
    assert workloads.classical_order(2, 3) == 40320
    assert workloads.classical_order(7, 2) == 225792
