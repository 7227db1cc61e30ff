"""The benchmark's workloads: their inputs, operations and output checks.

Every operation but one is an in-process call to `invariantlab.cli.main`,
exactly as a user's `invariantlab train ...` / `invariantlab verify ...`.
The exception is the duality suite, whose random specs must come from
the workload seed; it is rebuilt from the same public `verify` calls the
CLI suite makes.

Why these workloads:

* train-concept: the README concept-shift task, once per preset.  Batches
  of 128 rows make every step pay the graph engine's per-node cost, and
  the presets differ in how many batches they transform and constrain,
  so a gradient-path change shows on every preset and a constraint-path
  change only on mbdg / mbdg-da / mbdg-reg.
* train-covariate-perenv: the rotation task with a per-environment dual.
  Each step stacks three batches, evaluates three constraint pairs and
  updates a dual vector, through a trigonometric transform.
* verify-suites: the five theory-check suites, numpy-bound grid
  enumeration with no autodiff; training-path changes should not move it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

PRESETS = ("erm", "mbdg", "mbda", "mbdg-da", "mbdg-reg")
SUITES = ("duality", "perturbation", "empirical-gap", "schedule",
          "slackness")

# Held-out accuracy bands after 500 steps.  Over seeds 0-11 on e0.1, erm
# scored 0.10-0.16 and the invariance presets 0.53-0.67; on a90 the
# per-env mbdg scored 0.95-0.97.
CONCEPT_BANDS = {"erm": (0.0, 0.3), "mbdg": (0.45, 1.0),
                 "mbda": (0.45, 1.0), "mbdg-da": (0.45, 1.0),
                 "mbdg-reg": (0.45, 1.0)}
PERENV_BAND = (0.85, 1.0)

CONCEPT_TASK = """\
[task]
kind = concept-shift
agreements = e0.9:0.9 e0.8:0.8 e0.1:0.1
n_per_env = 20000
"""

COVARIATE_TASK = """\
[task]
kind = covariate-shift
n_per_env = 2000
train_envs = a0:0.0 a30:0.5235988 a60:1.0471976
test_envs = a90:1.5707963

[transform]
plane = 0 1
angle_range = 0 6.2831853
"""

SOLVER = """
[solver]
algorithm = {algorithm}
dual_mode = {dual_mode}
batch_size = 128
hidden = 16
steps = {steps}
"""


STEPS = 500
# The duality suite draws 20 + 20 specs, not the CLI suite's 100 + 100: a
# full suite takes about 40 s on a 2-core host, so only one would fit in a
# run and its time would go unrepeated.
DUALITY_SPECS = 20


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    fingerprint: dict = field(default_factory=dict)


@dataclass
class Op:
    """One operation: `call` is timed, `check` inspects what it produced."""

    kind: str  # train | verify; names the root span "cli.<kind>"
    label: str  # preset or suite
    call: object
    check: object
    steps: int = 0


def _main(pkg, argv):
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


# -- train --------------------------------------------------------------------

def _train_op(pkg, workdir: Path, label, task, dual_mode, seed, holdout,
              band) -> Op:
    config = workdir / f"{label}.ini"
    config.write_text(task + SOLVER.format(
        algorithm=label, dual_mode=dual_mode, steps=STEPS))
    out = workdir / label
    argv = ["train", "--config", str(config), "--seed", str(seed),
            "--holdout", holdout, "--out", str(out)]
    result = {}

    def call():
        result["code"], _ = _main(pkg, argv)

    def check():
        return check_train(result["code"], out, holdout, band, STEPS)

    return Op("train", label, call, check, STEPS)


def check_train(code, out: Path, holdout, band, steps) -> Outcome:
    """Exit 0, one finite trace row per step, lambda >= 0, accuracy in band."""
    if code != 0:
        return Outcome(False, f"exit code {code}")
    trace_bytes = (out / "trace.csv").read_bytes()
    summary = (out / "summary.txt").read_text()
    rows = list(csv.DictReader(io.StringIO(trace_bytes.decode())))
    fingerprint = {
        "trace_sha256": hashlib.sha256(trace_bytes).hexdigest(),
        "summary_sha256": hashlib.sha256("".join(
            line for line in summary.splitlines(keepends=True)
            if not line.startswith("wall_clock_seconds=")).encode()
        ).hexdigest()}
    if len(rows) != steps:
        return Outcome(False, f"trace has {len(rows)} rows, want {steps}",
                       fingerprint)
    lam_keys = [k for k in rows[0] if k.startswith("lambda")]
    for row in rows:
        if not math.isfinite(float(row["loss"])):
            return Outcome(False, f"non-finite loss at step {row['step']}",
                           fingerprint)
        for k in lam_keys:
            lam = float(row[k])
            if not (math.isfinite(lam) and lam >= 0.0):
                return Outcome(False, f"{k}={lam} at step {row['step']}",
                               fingerprint)
    values = dict(line.split("=", 1) for line in summary.splitlines())
    acc = float(values[f"acc_{holdout}"])
    fingerprint[f"acc_{holdout}"] = acc
    lo, hi = band
    if not lo <= acc <= hi:
        return Outcome(False, f"acc_{holdout}={acc} outside [{lo}, {hi}]",
                       fingerprint)
    return Outcome(True, "", fingerprint)


# -- verify -------------------------------------------------------------------

def _check_lines(lines) -> Outcome:
    ok = bool(lines) and all(line.startswith("PASS ") for line in lines)
    return Outcome(ok, "" if ok else "; ".join(lines), {"lines": lines})


def _suite_op(pkg, suite) -> Op:
    result = {}

    def call():
        result["code"], result["stdout"] = _main(pkg, ["verify", suite])

    def check():
        outcome = _check_lines(result["stdout"].splitlines())
        if result["code"] != 0 and outcome.ok:
            return Outcome(False, f"exit code {result['code']}",
                           outcome.fingerprint)
        return outcome

    return Op("verify", suite, call, check)


def draw_duality_specs(verify, seed: int, n: int):
    """The suite's random and convex specs, drawn from the workload seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    random_specs = [verify.random_spec(rng) for _ in range(n)]
    convex_specs = [verify.random_convex_spec(rng) for _ in range(n)]
    return random_specs, convex_specs


def duality_suite(verify, random_specs, convex_specs) -> list:
    """The CLI's duality suite over given specs; returns its PASS/FAIL lines."""
    weak_ok = True
    for s in random_specs:
        rep = verify.gap_report(s, s.gamma)
        weak_ok = weak_ok and rep.gap >= -1e-9
    rep = verify.gap_report(verify.convex_1d_instance(), 0.1)
    tight_ok = abs(rep.gap) <= 2e-3
    sandwich_ok = True
    for s in convex_specs:
        coarse = verify.ConstrainedProblemSpec(
            s.thetas[::10], s.R[::10], s.L[::10], s.gamma)
        try:
            verify.parameterization_sandwich(s, coarse, s.gamma)
        except verify.VerificationError:
            sandwich_ok = False
        except verify.InfeasibleError:
            pass
    checks = [
        (f"weak-duality-{len(random_specs)}-random-specs", weak_ok),
        ("convex-1d-tightness", tight_ok),
        (f"parameterization-sandwich-{len(convex_specs)}-specs",
         sandwich_ok)]
    return [f"{'PASS' if ok else 'FAIL'} {name}" for name, ok in checks]


def _duality_op(pkg, seed, n) -> Op:
    specs = draw_duality_specs(pkg.verify, seed, n)
    result = {}

    def call():
        result["lines"] = duality_suite(pkg.verify, *specs)

    return Op("verify", "duality", call,
              lambda: _check_lines(result["lines"]))


# -- workloads ----------------------------------------------------------------

def _train_concept(pkg, workdir, seed, duality_specs):
    return [_train_op(pkg, workdir, preset, CONCEPT_TASK, "single", seed,
                      "e0.1", CONCEPT_BANDS[preset])
            for preset in PRESETS]


def _train_covariate_perenv(pkg, workdir, seed, duality_specs):
    return [_train_op(pkg, workdir, "mbdg", COVARIATE_TASK, "per-env", seed,
                      "a90", PERENV_BAND)]


def _verify_suites(pkg, workdir, seed, duality_specs):
    return [_duality_op(pkg, seed, duality_specs)] + [
        _suite_op(pkg, suite) for suite in SUITES[1:]]


WORKLOADS = {
    "train-concept": _train_concept,
    "train-covariate-perenv": _train_covariate_perenv,
    "verify-suites": _verify_suites,
}


def prepare(name, pkg, workdir: Path, seed: int,
            duality_specs: int = DUALITY_SPECS) -> list:
    """Write the workload's configs / draw its specs; returns its ops.

    Tests pass fewer duality specs for a short run."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](pkg, workdir, seed, duality_specs)
