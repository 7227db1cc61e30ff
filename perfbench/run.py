"""invariantlab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/`.  The run sets the workload up several times (fresh import of the
package plus its inputs), then runs rounds -- every operation of the
workload once -- until the next round would end after `--seconds`.
Every operation's output is checked; a failed or raising operation is
counted and the run goes on.  A fixed calibration loop is timed before
the first operation and after each one.

With `--trace 0` nothing is wrapped and the end-to-end metrics are
reported: `setup_s` (median set-up), `round_vs_cal` (per operation, its
seconds over the mean of the two calibrations around it; median over
rounds; summed over the workload's operations) and `peak_rss_mb`.  The
raw per-command seconds are printed too.  With `--trace 1` untraced and
traced rounds alternate: the traced ones give the per-layer metrics
(per step, or per round where named `.calls`, `.rows`, `.self_ms`, ...),
the pair gives the tracing overhead, and the untraced ones give the
per-command seconds (`train_s.*`, `verify_s.*`, `round_s`, `steps_per_s`).
Metrics of layers or commands a workload does not run read 0.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A run record (machine, versions, calibration,
fingerprints) and, when traced, every span go to `perfbench/out/`.
"""

from __future__ import annotations

import os

# One process, no extra threads: fix BLAS/OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 11

END_TO_END = {"setup_s": "s", "round_vs_cal": "ratio", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {
        "autodiff.backward.us_per_step": "us/step",
        "autodiff.backward.calls": "count",
        "autodiff.nodes_per_step": "nodes/step",
        "predictors.log_probs_graph.calls_per_step": "calls/step",
        "predictors.log_probs_graph.self_us_per_step": "us/step",
        "predictors.log_probs_graph.rows_per_step": "rows/step",
        "predictors.cross_entropy_graph.self_us_per_step": "us/step",
        "predictors.predict_batch.self_ms": "ms",
        "predictors.predict_batch.rows": "rows",
        "constraints.dist_reg.self_ms": "ms",
        "cli.train.self_ms": "ms",
        "constraints.dist_reg_graph.calls_per_step": "calls/step",
        "constraints.dist_reg_graph.self_us_per_step": "us/step",
        "transforms.generate_batch.calls_per_step": "calls/step",
        "transforms.generate_batch.self_us_per_step": "us/step",
        "transforms.generate_batch.rows_per_step": "rows/step",
        "datagen.gen_concept_shift.self_ms": "ms",
        "datagen.gen_covariate_shift.self_ms": "ms",
    }
    for preset in wl.PRESETS:
        units[f"solvers.step_us_p50.{preset}"] = "us"
        units[f"solvers.step_us_p99.{preset}"] = "us"
    units.update({
        "solvers.train.self_us_per_step": "us/step",
        "solvers.dual_step.us_per_step": "us/step",
        "verify.solve_dual_grid.calls": "count",
        "verify.solve_dual_grid.self_s": "s",
        "verify.solve_dual_grid.lambda_evals": "count",
        "verify.solve_primal_grid.calls": "count",
        "verify.solve_primal_grid.self_ms": "ms",
        "trace.overhead_share": "share",
    })
    for preset in wl.PRESETS:
        units[f"train_s.{preset}"] = "s"
    for suite in wl.SUITES:
        units[f"verify_s.{suite}"] = "s"
    units["steps_per_s"] = "1/s"
    units["round_s"] = "s"
    return units


PER_LAYER = per_layer_units()


# -- set-up -------------------------------------------------------------------

def fresh_import():
    """Import invariantlab from src/ anew, as a new process would."""
    for name in [n for n in sys.modules
                 if n == "invariantlab" or n.startswith("invariantlab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("invariantlab")
    if Path(pkg.__file__).resolve().parent != SRC / "invariantlab":
        raise RuntimeError(f"imported invariantlab from {pkg.__file__}, "
                           f"not from {SRC}")
    return pkg


def set_up(workload, seed, workdir):
    """Set up SETUP_REPEATS times; returns the times and the last pkg, ops."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pkg = fresh_import()
        ops = wl.prepare(workload, pkg, workdir, seed)
        samples.append(time.perf_counter() - t0)
    return samples, pkg, ops


# -- measuring ----------------------------------------------------------------

def calibrate() -> float:
    """Seconds for a fixed numpy loop shaped like a small MLP forward pass.

    The host is shared: the same work runs up to twice as long in a slow
    spell, and spells can last a whole run.  This loop -- Python dispatch
    over small array ops, the mix the training commands run, but no code
    of the package -- is timed between commands and slows down with them,
    so each run also reports its commands against it.
    """
    import numpy as np

    X = np.linspace(-1.0, 1.0, 640).reshape(128, 5)
    W = np.linspace(-0.5, 0.5, 80).reshape(5, 16)
    V = np.linspace(-0.5, 0.5, 32).reshape(16, 2)
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(600):
        h = np.tanh(X @ W + 0.1)
        z = h @ V
        z = z - z.max(axis=1, keepdims=True)
        total += float(np.exp(z).sum()) + float(h.mean())
    return time.perf_counter() - t0


class Runner:
    """Runs rounds of a workload's ops, timing and checking each op."""

    def __init__(self, pkg, ops):
        self.pkg = pkg
        self.ops = ops
        self.tracer = tr.Tracer()
        self.op_meta = []  # per op id: (round, label)
        self.rounds = []  # per round: traced, total_s, ops and vs_cal by label
        self.attempted = 0
        self.failed = []  # (round, label, reason)
        self.fingerprints = {}  # label -> list of distinct fingerprints
        self.calibration = []  # every calibrate() between ops, in order

    def run_round(self, traced: bool):
        """Every op once, each between two calibrations; an op's `vs_cal`
        is its time over the mean of the two."""
        idx = len(self.rounds)
        times, vs_cal = {}, {}
        before = calibrate()
        self.calibration.append(before)
        with (tr.installed(self.tracer, self.pkg) if traced
              else contextlib.nullcontext()):
            for op in self.ops:
                times[op.label] = self._run_op(op, idx, traced)
                after = calibrate()
                self.calibration.append(after)
                vs_cal[op.label] = times[op.label] / ((before + after) / 2)
                before = after
        self.rounds.append({"traced": traced, "ops": times, "vs_cal": vs_cal,
                            "total_s": sum(times.values())})

    def _run_op(self, op, round_idx, traced):
        self.attempted += 1
        self.tracer.op = len(self.op_meta)
        self.op_meta.append((round_idx, op.label))
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.span(f"cli.{op.kind}"):
                    op.call()
            else:
                op.call()
            elapsed = time.perf_counter() - t0
            outcome = op.check()
        except Exception:  # the run goes on; the op counts as failed
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            outcome = wl.Outcome(False, traceback.format_exc(limit=1))
        if not outcome.ok:
            self.failed.append((round_idx, op.label, outcome.reason))
            print(f"FAILED {op.label} (round {round_idx}): {outcome.reason}",
                  file=sys.stderr)
        seen = self.fingerprints.setdefault(op.label, [])
        if outcome.fingerprint and outcome.fingerprint not in seen:
            seen.append(outcome.fingerprint)
        return elapsed

    def measure(self, seconds: float, trace: bool):
        """Rounds until the next would end after `seconds`; alternate when
        tracing, starting untraced, with at least one round of each."""
        t0 = time.perf_counter()
        while True:
            self.run_round(traced=trace and len(self.rounds) % 2 == 1)
            if trace and len(self.rounds) < 2:
                continue
            typical = statistics.median(r["total_s"] for r in self.rounds)
            if time.perf_counter() - t0 + typical > seconds:
                return

    def round_times(self, traced: bool) -> list:
        return [r["total_s"] for r in self.rounds if r["traced"] == traced]

    def op_times(self, label, key="ops") -> list:
        """One op's untraced `ops` (seconds) or `vs_cal` values."""
        return [r[key][label] for r in self.rounds if not r["traced"]]


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _percentile(values, q):
    """Nearest-rank percentile."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-q * len(values) // 100))
    return values[int(rank) - 1]


def round_s(runner, key="ops") -> float:
    """A typical untraced round: the sum of each op's median, so a slow
    spell that hits different ops in different rounds is left out."""
    return sum(_median(runner.op_times(op.label, key)) for op in runner.ops)


def end_to_end_metrics(setup_samples, runner) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "round_vs_cal": round_s(runner, "vs_cal"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def command_metrics(runner) -> dict:
    """Per-command medians and training throughput, from untraced rounds.

    Commands the workload does not run read 0."""
    out = {f"train_s.{p}": 0.0 for p in wl.PRESETS}
    out.update({f"verify_s.{s}": 0.0 for s in wl.SUITES})
    train_s = steps = 0.0
    for op in runner.ops:
        times = runner.op_times(op.label)
        out[f"{'train_s' if op.kind == 'train' else 'verify_s'}.{op.label}"] \
            = _median(times)
        if op.steps:
            train_s += sum(times)
            steps += op.steps * len(times)
    out["steps_per_s"] = steps / train_s if train_s else 0.0
    out["round_s"] = round_s(runner)
    return out


def per_layer_metrics(runner) -> dict:
    """Per-layer numbers from the traced rounds' spans."""
    spans = runner.tracer.spans
    selfs = tr.self_times(spans)
    traced = [i for i, r in enumerate(runner.rounds) if r["traced"]]
    n_rounds = len(traced)
    round_of = [m[0] for m in runner.op_meta]

    # per round: name -> [calls, self ns, count]; and steps
    per_round = {i: {} for i in traced}
    for s, self_ns in zip(spans, selfs):
        acc = per_round[round_of[s.op]].setdefault(s.name, [0, 0, 0])
        acc[0] += 1
        acc[1] += self_ns
        acc[2] += s.count
    steps = {i: 0 for i in traced}
    for op, _ in runner.tracer.steps:
        steps[round_of[op]] += 1
    total_steps = sum(steps.values())

    def total(name, k):
        return sum(per_round[i].get(name, [0, 0, 0])[k] for i in traced)

    def per_step(name, k):
        return total(name, k) / total_steps if total_steps else 0.0

    def per_round_count(name, k):
        return total(name, k) / n_rounds

    def self_us_per_step(name):
        return _median(per_round[i].get(name, [0, 0, 0])[1] / steps[i] / 1e3
                       for i in traced if steps[i])

    def self_per_round(name, scale):
        return _median(per_round[i].get(name, [0, 0, 0])[1] / scale
                       for i in traced)

    m = {
        "autodiff.backward.us_per_step": self_us_per_step("autodiff.backward"),
        "autodiff.backward.calls": per_round_count("autodiff.backward", 0),
        "autodiff.nodes_per_step": per_step("autodiff.backward", 2),
        "predictors.log_probs_graph.calls_per_step":
            per_step("predictors.log_probs_graph", 0),
        "predictors.log_probs_graph.self_us_per_step":
            self_us_per_step("predictors.log_probs_graph"),
        "predictors.log_probs_graph.rows_per_step":
            per_step("predictors.log_probs_graph", 2),
        "predictors.cross_entropy_graph.self_us_per_step":
            self_us_per_step("predictors.cross_entropy_graph"),
        "predictors.predict_batch.self_ms":
            self_per_round("predictors.predict_batch", 1e6),
        "predictors.predict_batch.rows":
            per_round_count("predictors.predict_batch", 2),
        "constraints.dist_reg.self_ms":
            self_per_round("constraints.dist_reg", 1e6),
        "cli.train.self_ms": self_per_round("cli.train", 1e6),
        "constraints.dist_reg_graph.calls_per_step":
            per_step("constraints.dist_reg_graph", 0),
        "constraints.dist_reg_graph.self_us_per_step":
            self_us_per_step("constraints.dist_reg_graph"),
        "transforms.generate_batch.calls_per_step":
            per_step("transforms.generate_batch", 0),
        "transforms.generate_batch.self_us_per_step":
            self_us_per_step("transforms.generate_batch"),
        "transforms.generate_batch.rows_per_step":
            per_step("transforms.generate_batch", 2),
        "datagen.gen_concept_shift.self_ms":
            self_per_round("datagen.gen_concept_shift", 1e6),
        "datagen.gen_covariate_shift.self_ms":
            self_per_round("datagen.gen_covariate_shift", 1e6),
    }
    intervals = tr.step_intervals(runner.tracer.steps)
    labels = [m_[1] for m_ in runner.op_meta]
    for preset in wl.PRESETS:
        samples = [ns / 1e3 for op, xs in intervals.items()
                   if labels[op] == preset for ns in xs]
        m[f"solvers.step_us_p50.{preset}"] = _percentile(samples, 50)
        m[f"solvers.step_us_p99.{preset}"] = _percentile(samples, 99)
    m.update({
        "solvers.train.self_us_per_step": self_us_per_step("solvers.train"),
        "solvers.dual_step.us_per_step": self_us_per_step("solvers.dual_step"),
        "verify.solve_dual_grid.calls":
            per_round_count("verify.solve_dual_grid", 0),
        "verify.solve_dual_grid.self_s":
            self_per_round("verify.solve_dual_grid", 1e9),
        "verify.solve_dual_grid.lambda_evals":
            per_round_count("verify.solve_dual_grid", 2),
        "verify.solve_primal_grid.calls":
            per_round_count("verify.solve_primal_grid", 0),
        "verify.solve_primal_grid.self_ms":
            self_per_round("verify.solve_primal_grid", 1e6),
        "trace.overhead_share": _median(runner.round_times(True))
        / _median(runner.round_times(False)) - 1.0,
    })
    m.update(command_metrics(runner))
    return m


# -- run record ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def write_spans(path, spans):
    with open(path, "w") as f:
        f.write("index,name,start_ns,end_ns,parent,op,count\n")
        for i, s in enumerate(spans):
            parent = "" if s.parent is None else s.parent
            f.write(f"{i},{s.name},{s.start},{s.end},{parent},{s.op},"
                    f"{s.count}\n")


# -- entry point --------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "invariantlab" / "__init__.py").is_file():
        print(f"no invariantlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    calibration_before = [calibrate() for _ in range(5)]
    try:
        setup_samples, pkg, ops = set_up(args.workload, args.seed, workdir)
        runner = Runner(pkg, ops)
        runner.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration_after = [calibrate() for _ in range(5)]

    commands = command_metrics(runner)
    if args.trace:
        metrics = per_layer_metrics(runner)
        units = PER_LAYER
        write_spans(OUT / f"spans-{tag}.csv", runner.tracer.spans)
    else:
        metrics = end_to_end_metrics(setup_samples, runner)
        units = END_TO_END

    n_failed = len(runner.failed)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(),
        "calibration_s": {"before": calibration_before,
                          "during": runner.calibration,
                          "after": calibration_after},
        "setup_s_samples": setup_samples,
        "rounds": runner.rounds,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_share": n_failed / runner.attempted,
        "fingerprints": runner.fingerprints,
        "commands": commands,
        "metrics": metrics,
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))

    untraced = len(runner.round_times(False))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(runner.rounds)} rounds ({untraced} untraced), "
          f"{runner.attempted} operations, {n_failed} failed")
    shown = dict(metrics)
    if not args.trace:
        shown.update((k, v) for k, v in commands.items() if v)
    shown["failed_share"] = n_failed / runner.attempted
    for name, value in shown.items():
        unit = units.get(name) or PER_LAYER.get(name, "share")
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": runner.attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
