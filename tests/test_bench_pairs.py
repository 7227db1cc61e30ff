"""`tools/bench_pairs.py`'s summary of alternating parent/change runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(pair, side, round_vs_cal, train_s, steps_per_s, unused=0.0):
    # an untraced run: its commands come from the run record, where a
    # command the workload does not run is absent
    commands = {"train_s.mbdg": train_s, "steps_per_s": steps_per_s}
    return {"pair": pair, "side": side,
            "metrics": {"round_vs_cal": round_vs_cal, "peak_rss_mb": 40.0,
                        "unused": unused},
            "commands": commands if train_s else {}}


def test_summarize_covers_commands_and_leaves_out_all_zero_metrics():
    runs = [_run(0, "parent", 30.0, 0.20, 4000.0),
            _run(0, "change", 27.0, 0.18, 4400.0),
            _run(1, "change", 28.0, 0.22, 3900.0),
            _run(1, "parent", 32.0, 0.0, 0.0)]
    directions = {"round_vs_cal": "lower", "peak_rss_mb": "lower",
                  "train_s.mbdg": "lower", "steps_per_s": "higher"}
    out = bench_pairs.summarize(runs, directions)
    assert list(out) == ["round_vs_cal", "peak_rss_mb", "train_s.mbdg",
                         "steps_per_s"]
    assert out["round_vs_cal"]["change_won"] == 2
    assert out["round_vs_cal"]["parent"]["median"] == pytest.approx(31.0)
    assert out["round_vs_cal"]["pairs"] == 2
    # a tie wins for neither side
    assert out["peak_rss_mb"]["change_won"] == 0
    # pair 1's parent recorded no train command: it reads 0, and so the
    # change, slower than that, wins pair 0 only
    assert out["train_s.mbdg"]["parent"]["median"] == pytest.approx(0.10)
    assert out["train_s.mbdg"]["change_won"] == 1
    assert out["train_s.mbdg"]["change"]["median"] == pytest.approx(0.20)
    # higher is better for steps per second
    assert out["steps_per_s"]["better"] == "higher"
    assert out["steps_per_s"]["change_won"] == 2


def test_summarize_keeps_a_metric_that_is_nonzero_on_one_run():
    runs = [_run(0, "parent", 30.0, 0.2, 1.0, unused=0.0),
            _run(0, "change", 29.0, 0.2, 1.0, unused=1.5)]
    out = bench_pairs.summarize(runs, {})
    assert out["unused"]["change"]["median"] == 1.5
    assert out["unused"]["better"] == "lower"
