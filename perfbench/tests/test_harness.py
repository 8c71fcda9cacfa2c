"""Tests of the benchmark harness on tiny grids.

Run from the root of the checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracing import Span, Tracer, self_times

TINY_STRAIGHT = {"resolution": [32, 16], "n_max": 3, "radii": {"xi": [0.5], "eta": [0.9]}}
TINY_BRANCH = dict(workloads.BRANCH, axes=["xi"], resolution=[32, 32], truncation=4)
TINY_ROOTS = {"n_min": 2, "n_max": 3}


# -- span arithmetic ---------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [Span("solve", None, 0.0, 10.0),
             Span("factor", 0, 1.0, 3.0),
             Span("factor", 0, 2.0, 5.0),     # overlaps the first child
             Span("late", 0, 9.0, 12.0),      # clipped to the parent's end
             Span("grandchild", 1, 1.5, 2.5)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_nests_spans_and_rejects_misordered_ends():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("solve")
    inner = tracer.begin("factor")
    tracer.end(inner)
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert self_times(tracer.spans) == [2.0, 1.0]
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)


# -- percentile and sample-count rule -----------------------------------------

def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(10, 0, -1)]
    assert run.percentile(values, 50) == pytest.approx(5.5)
    assert run.percentile(values, 90) == pytest.approx(9.1)
    assert run.percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


@pytest.mark.parametrize("n, expected", [(19, None), (20, 50.0), (99, 50.0),
                                         (100, 90.0), (999, 90.0), (1000, 99.0)])
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert run.supported_percentile(n) == expected


# -- patching ------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    import serrin
    from serrin import branch, cli, discrete, linearize, modes, spectrum
    originals = (linearize.apply_L, cli.apply_L, branch.apply_L, serrin.apply_L,
                 discrete.TubeOperator.__dict__["lu"], modes.riccati_solution)
    tracer = Tracer()
    with tracer.installed():
        assert linearize.apply_L is cli.apply_L is branch.apply_L is serrin.apply_L
        assert linearize.apply_L is not originals[0]
        assert spectrum.riccati_solution is modes.riccati_solution is cli.riccati_solution
        # callers still clear and inspect the lru cache through the wrapper
        spectrum.riccati_solution.cache_clear()
        assert cli.riccati_solution.cache_info().currsize == 0
    assert (linearize.apply_L, cli.apply_L, branch.apply_L, serrin.apply_L,
            discrete.TubeOperator.__dict__["lu"], modes.riccati_solution) == originals


# -- workloads on tiny grids -------------------------------------------------------

def test_traced_straight_unit_counts_work_at_each_boundary(tmp_path):
    from serrin import modes
    modes.riccati_solution.cache_clear()
    record = workloads.run_unit("straight", TINY_STRAIGHT, str(tmp_path), trace=True)
    assert [op["error"] for op in record["ops"]] == [None, None]
    layers = record["layers"]
    assert set(layers) == set(run.metric_units("per_layer")) - {"trace.overhead_ratio"}
    assert record["missing_entry_points"] == []
    assert layers["discrete.assemble_calls"] == 2
    assert layers["discrete.factor_calls"] == 2
    assert layers["discrete.solve_calls"] == 2 * 4
    assert layers["linearize.apply_L_calls"] == 2 * 4
    assert layers["linearize.operator_requests"] == layers["linearize.operator_builds"] == 2
    assert layers["modes.riccati_misses"] == 2 * 3      # modes 1..3 of each axis
    assert layers["spectrum.sigma_calls"] == 2 * 4
    assert layers["discrete.lu_nnz_per_op"] > layers["discrete.nnz_per_op"] > 0
    assert 0.0 < layers["linearize.leakage_max"] < 1e-8
    # self time of the solves excludes the factorizations they trigger
    assert layers["discrete.solve_s"] < layers["discrete.factor_s"]


def test_traced_branch_unit_charges_solves_to_points(tmp_path):
    record = workloads.run_unit("branch", TINY_BRANCH, str(tmp_path), trace=True)
    assert [op["error"] for op in record["ops"]] == [None]
    assert record["ops"][0]["latency_s"] > 0.0
    layers = record["layers"]
    assert layers["branch.points"] == 1
    assert layers["branch.newton_iters_per_point"] >= 1
    # each Newton point needs at least the Jacobian columns plus one residual
    assert layers["branch.solves_per_point"] >= TINY_BRANCH["truncation"] + 1
    assert layers["branch.factorizations_per_point"] == layers["branch.solves_per_point"]
    assert layers["branch.certificate_s"] > 0.0


def test_roots_unit_checks_every_root(tmp_path):
    record = workloads.run_unit("roots", TINY_ROOTS, str(tmp_path))
    assert record["unit_errors"] == []
    assert [op["label"] for op in record["ops"]] == ["xi n=2", "xi n=3", "eta n=2", "eta n=3"]
    assert all(op["error"] is None and op["latency_s"] > 0.0 for op in record["ops"])


def test_operation_past_its_tolerance_counts_as_failed(tmp_path):
    strict = dict(workloads.TOLERANCES, straight_leakage=0.0, quarter_pi=0.0)
    straight = workloads.run_unit("straight", TINY_STRAIGHT, str(tmp_path / "s"), tol=strict)
    roots = workloads.run_unit("roots", TINY_ROOTS, str(tmp_path / "r"), tol=strict)
    assert all("leakage" in op["error"] for op in straight["ops"])
    assert [op["label"] for op in roots["ops"] if op["error"]] == ["xi n=2"]
    straight.update(setup_s=1.0, versions={})
    roots.update(setup_s=1.0, versions={})
    detail, result = run.summarize("roots", 0, 1.0, 0, [1.0], [roots], [], [TINY_ROOTS], 1)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert detail["fail_rate"] == pytest.approx(0.25)
    assert result["correct"] is False
    detail, result = run.summarize("straight", 0, 1.0, 0, [1.0], [straight], [],
                                   [TINY_STRAIGHT], 1)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert result["correct"] is False


def test_summary_pools_latencies_of_passed_operations():
    def unit(latencies, wall):
        return {"wall_s": wall, "cpu_s": wall, "peak_rss_mb": 10.0, "setup_s": 1.0,
                "versions": {}, "unit_errors": [],
                "ops": [{"label": str(x), "latency_s": x, "error": None} for x in latencies]}
    units = [unit([1.0, 2.0], 3.0), unit([3.0, 4.0], 7.0), unit([5.0], 5.0)]
    detail, result = run.summarize("roots", 0, 1.0, 0, [0.5, 1.5], units, [], [], 2)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["op_p50_s"] == 3.0
    assert metrics["op_p90_s"] == pytest.approx(4.6)
    assert metrics["wall_s"] == 5.0
    assert metrics["setup_s"] == 1.0
    assert detail["op_samples"] == 5 and detail["op_supported_percentile"] is None
    assert result == {**result, "correct": True, "attempted": 5, "failed": 0}


def test_inputs_come_from_the_seed():
    a = workloads.make_inputs("straight", 7, 0)
    assert a == workloads.make_inputs("straight", 7, 0)
    assert a != workloads.make_inputs("straight", 8, 0)
    for radii in a["radii"].values():
        assert len(radii) == workloads.STRAIGHT["radii_per_axis"]
        assert all(0.15 < lam < 1.35 for lam in radii)
    assert workloads.make_inputs("roots", 1, 0) == workloads.make_inputs("roots", 2, 5)


# -- the command ---------------------------------------------------------------

def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "roots",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_workloads():
    with open(run.SPEC_PATH) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
