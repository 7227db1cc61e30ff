"""Tests of the benchmark itself: span arithmetic, wrapper hygiene,
repeatable work counts, output checks and the metric list.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _span(name, start, end, parent=None):
    return tr.Span(name, start, end, parent, op=0)


def test_self_time_subtracts_children_at_every_depth():
    spans = [_span("a", 0, 100),
             _span("b", 10, 40, parent=0),
             _span("d", 20, 30, parent=1),
             _span("c", 50, 60, parent=0)]
    assert tr.self_times(spans) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0, 100),
             _span("b", 10, 40, parent=0),
             _span("c", 30, 50, parent=0),
             _span("d", 90, 120, parent=0)]  # clipped at the parent's end
    assert tr.self_times(spans)[0] == 100 - 40 - 10


def test_step_intervals_stay_within_one_operation():
    steps = [(0, 100), (0, 130), (1, 500), (0, 170), (1, 510)]
    assert tr.step_intervals(steps) == {0: [30, 40], 1: [10]}


def _attributes(pkg):
    """Every attribute of every wrapped module, and of TrainTrace."""
    owners = {m for m, _, _, _ in tr.WRAPPED}
    found = {(m, a): v for m in owners
             for a, v in vars(getattr(pkg, m)).items()}
    found.update((("TrainTrace", a), v) for a, v
                 in vars(pkg.solvers.TrainTrace).items())
    return found


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_installed_wrappers_are_all_restored():
    pkg = run.fresh_import()
    before = _attributes(pkg)
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tr.installed(tracer, pkg):
            during = _attributes(pkg)
            assert not _same(during, before)
            assert all(during[m, a] is not before[m, a]
                       for m, a, _, _ in tr.WRAPPED)
            pkg.verify.solve_primal_grid(
                pkg.verify.convex_1d_instance(), 0.1)
            raise RuntimeError("leave the block early")
    assert _same(_attributes(pkg), before)
    assert [s.name for s in tracer.spans] == ["verify.solve_primal_grid"]


def _traced_run(workload, tmp_path):
    pkg = run.fresh_import()
    ops = wl.prepare(workload, pkg, tmp_path, seed=3, duality_specs=3)
    runner = run.Runner(pkg, ops)
    runner.measure(seconds=0, trace=True)  # one untraced, one traced round
    return runner, run.per_layer_metrics(runner)


COUNT_UNITS = ("count", "rows", "calls/step", "rows/step", "nodes/step")


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_short_workload_passes_and_repeats_its_counts(workload, tmp_path):
    first, m1 = _traced_run(workload, tmp_path / "a")
    second, m2 = _traced_run(workload, tmp_path / "b")
    for runner in (first, second):
        assert runner.failed == []
        assert runner.attempted == 2 * len(runner.ops)
        assert [r["traced"] for r in runner.rounds] == [False, True]
    counts = [k for k, unit in run.PER_LAYER.items() if unit in COUNT_UNITS]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert first.fingerprints == second.fingerprints
    assert set(m1) == set(run.PER_LAYER)
    if workload == "train-concept":
        # per step: erm 1, mbdg 3, mbda 2, mbdg-da 5, mbdg-reg 4 forwards
        assert m1["predictors.log_probs_graph.calls_per_step"] == 3.0
        assert m1["verify.solve_dual_grid.calls"] == 0
    elif workload == "train-covariate-perenv":
        assert m1["predictors.log_probs_graph.calls_per_step"] == 7.0
        assert m1["constraints.dist_reg_graph.calls_per_step"] == 3.0
    else:
        assert m1["autodiff.backward.calls"] == 0
        assert m1["verify.solve_dual_grid.lambda_evals"] > 0


def _write_run(out, n_rows, lam="0.5", loss="0.7", acc="0.6"):
    out.mkdir(parents=True, exist_ok=True)
    rows = "".join(f"{i},{loss},{lam},0.025,0.01\n" for i in range(n_rows))
    (out / "trace.csv").write_text("step,loss,lambda,gamma,distreg\n" + rows)
    (out / "summary.txt").write_text(
        f"acc_e0.1={acc}\nwall_clock_seconds=1.5\n")


@pytest.mark.parametrize("kwargs, code, ok", [
    ({}, 0, True),
    ({}, 2, False),
    ({"n_rows": 3}, 0, False),
    ({"lam": "-0.1"}, 0, False),
    ({"loss": "nan"}, 0, False),
    ({"acc": "0.2"}, 0, False),
])
def test_train_check(tmp_path, kwargs, code, ok):
    _write_run(tmp_path, **{"n_rows": 4, **kwargs})
    outcome = wl.check_train(code, tmp_path, "e0.1", (0.45, 1.0), 4)
    assert outcome.ok is ok


def test_summary_fingerprint_ignores_wall_clock(tmp_path):
    _write_run(tmp_path, 4)
    first = wl.check_train(0, tmp_path, "e0.1", (0.45, 1.0), 4).fingerprint
    text = (tmp_path / "summary.txt").read_text()
    (tmp_path / "summary.txt").write_text(text.replace("1.5", "9.25"))
    assert wl.check_train(0, tmp_path, "e0.1", (0.45, 1.0),
                          4).fingerprint == first


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-concept",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
