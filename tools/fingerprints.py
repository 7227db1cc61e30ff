"""SHA-256 fingerprints of what the `invariantlab` commands write.

    PYTHONPATH=src python3 tools/fingerprints.py

Runs `train` for every preset, in single and per-env dual mode, on
perfbench's concept-shift and covariate-shift configs (the same task
text, solver section and held-out environment), for seeds 0 and 3, and
on the concept task with `color_scale = -1.5` (`concept-scaled`), whose
colour codes hold -0.0 entries.  It
then repeats those runs with a one-unit hidden layer (`hidden1`) and with
an odd batch size of 7 (`batch7`), the shapes where a bit-exact numpy
shortcut is most likely to part from numpy.  For each run it prints the
hashes of `trace.csv`, of `summary.txt` without its `wall_clock_seconds`
line, and of `predictor.txt`.  It then runs
`measure-invariance` on each task's mbdg predictor and hashes
`invariance.csv` and the printed median.  Then it runs the five
`verify` suites and hashes each one's output lines, and prints the
one-constraint dual, `repr(D)` and the bytes of lambda, of the convex
1-d instance at five margins, of 20 seeded 2000-row `random_spec`s
and of perfbench's sandwich coarse specs (workload seed 1), and the
`repr` of the empirical-gap suite's means.  Last it hashes
`datagen`'s `datasets.txt` for each task and seed, and `compare`'s
`comparison.csv` of perfbench's erm and mbdg concept configs for each
seed.

A refactor that must not change behaviour runs this before and after
and diffs the two outputs; any differing line names the output that
moved.  The CRITERION lines come from
`pytest -s tests/test_acceptance.py`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from invariantlab import cli, verify  # noqa: E402

TASKS = {"concept": (wl.CONCEPT_TASK, "e0.1"),
         "covariate": (wl.COVARIATE_TASK, "a90"),
         "concept-scaled": (wl.CONCEPT_TASK + "color_scale = -1.5\n",
                            "e0.1")}
SEEDS = (0, 3)
DUAL_MODES = ("single", "per-env")
# solver variants, as edits of perfbench's solver section; the first is
# perfbench's own, and a variant's label suffix names it
VARIANTS = {"": {},
            "/hidden1": {"hidden = 16": "hidden = 1"},
            "/batch7": {"batch_size = 128": "batch_size = 7"}}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(argv) -> tuple:
    """The CLI run in-process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _summary_bytes(path: Path) -> bytes:
    return "".join(line for line in path.read_text().splitlines(True)
                   if not line.startswith("wall_clock_seconds=")).encode()


def _solver_text(variant: str, **fields) -> str:
    text = wl.SOLVER.format(**fields)
    for old, new in VARIANTS[variant].items():
        if old not in text:
            raise ValueError(f"perfbench's solver section has no {old!r}")
        text = text.replace(old, new)
    return text


def train_lines(work: Path):
    for variant, task, seed, mode, preset in itertools.product(
            VARIANTS, TASKS, SEEDS, DUAL_MODES, wl.PRESETS):
        text, holdout = TASKS[task]
        label = f"{task}/seed{seed}/{mode}/{preset}{variant}"
        out = work / label
        name = f"{task}-{mode}-{preset}{variant.replace('/', '-')}"
        config = work / f"{name}.ini"
        config.write_text(text + _solver_text(
            variant, algorithm=preset, dual_mode=mode, steps=wl.STEPS))
        code, _ = _main(["train", "--config", str(config), "--seed",
                         str(seed), "--holdout", holdout, "--out", str(out)])
        yield f"{label} exit {code}"
        yield f"{label} trace.csv {_sha((out / 'trace.csv').read_bytes())}"
        if code != 0:
            continue
        yield (f"{label} summary.txt "
               f"{_sha(_summary_bytes(out / 'summary.txt'))}")
        yield (f"{label} predictor.txt "
               f"{_sha((out / 'predictor.txt').read_bytes())}")


def invariance_lines(work: Path):
    for task, (_, holdout) in TASKS.items():
        for seed in SEEDS:
            label = f"{task}/seed{seed}/single/mbdg"
            out = work / label
            code, stdout = _main([
                "measure-invariance", "--config",
                str(work / f"{task}-single-mbdg.ini"), "--seed", str(seed),
                "--holdout", holdout, "--out", str(out)])
            yield f"{label} measure-invariance exit {code}"
            yield (f"{label} invariance.csv "
                   f"{_sha((out / 'invariance.csv').read_bytes())}")
            yield f"{label} stdout {_sha(stdout.encode())}"


def verify_lines():
    for suite in cli.SUITES:
        code, stdout = _main(["verify", suite])
        yield f"verify/{suite} exit {code} {_sha(stdout.encode())}"


def _dual_line(label, spec) -> str:
    D, lam = verify.solve_dual(spec, spec.gamma)
    return f"dual/{label} D {D!r} lam {lam.tobytes().hex()}"


def dual_lines():
    for gamma in (0.0, 0.05, 0.1, 0.3, 2.0):
        yield _dual_line(f"convex-1d/gamma{gamma}",
                         verify.convex_1d_instance(gamma))
    for seed in range(20):
        spec = verify.random_spec(np.random.default_rng(seed), 2000, 1)
        yield _dual_line(f"random-spec/seed{seed}", spec)
    _, convex = wl.draw_duality_specs(verify, 1, wl.DUALITY_SPECS)
    for i, s in enumerate(convex):
        coarse = verify.ConstrainedProblemSpec(
            s.thetas[::10], s.R[::10], s.L[::10], s.gamma)
        yield _dual_line(f"sandwich-coarse/{i}", coarse)
    means = verify.empirical_gap_experiment(
        cli.default_population(), [100, 400, 1600, 6400], trials=20, seed=2)
    yield f"dual/empirical-gap means {means!r}"


def datagen_lines(work: Path):
    for task, seed in itertools.product(TASKS, SEEDS):
        label = f"{task}/seed{seed}"
        out = work / "datagen" / label
        code, _ = _main(["datagen", "--config",
                         str(work / f"{task}-single-mbdg.ini"), "--seed",
                         str(seed), "--out", str(out)])
        yield f"{label} datagen exit {code}"
        yield (f"{label} datasets.txt "
               f"{_sha((out / 'datasets.txt').read_bytes())}")


def compare_lines(work: Path):
    configs = ["--config", str(work / "concept-single-erm.ini"),
               "--config", str(work / "concept-single-mbdg.ini")]
    for seed in SEEDS:
        label = f"concept/seed{seed}"
        out = work / "compare" / label
        code, _ = _main(["compare", *configs, "--seed", str(seed),
                         "--out", str(out)])
        yield f"{label} compare exit {code}"
        yield (f"{label} comparison.csv "
               f"{_sha((out / 'comparison.csv').read_bytes())}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for line in itertools.chain(
                train_lines(work), invariance_lines(work), verify_lines(),
                dual_lines(), datagen_lines(work), compare_lines(work)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
