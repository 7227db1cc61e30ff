"""Command-line experiment runner.

Subcommands:

* ``datagen``            write the configured datasets to disk
* ``train``              train one predictor, write summary/trace/predictor
* ``compare``            hold-one-out comparison table across configs
* ``measure-invariance`` per-example invariance values for a predictor
* ``verify``             run a named theory-check suite

Configs are INI files.  Each section is read into the dataclass that
takes it, whose fields are the section's keys, with their types and
defaults: ``[task]`` into `datagen.ConceptShiftSpec` or
`datagen.CovariateShiftSpec` by its ``kind``, ``[transform]`` into
`transforms.RotationModel`, ``[solver]`` into `solvers.SolverConfig` and
``[output]`` into `Output`.  Only ``[task]`` is required, and any
other section is an error.  Exit codes: 0 success, 1 configuration or
usage error (an unknown ``verify`` suite is one), 2 runtime failure
(``train`` still writes the partial trace).  ``verify`` prints one
PASS/FAIL line per check; a check that raises `verify.VerificationError`
ends its suite with the one line ``FAIL <suite>: <message>``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import sys
import time
from pathlib import Path

import numpy as np

from . import constraints as cons
from . import datagen
from . import predictors as pred
from . import solvers
from . import transforms
from . import verify as verify_mod


class ConfigError(ValueError):
    """Invalid or missing configuration; message names the key."""


@dataclasses.dataclass(frozen=True)
class Output:
    """The [output] section; --seed, --out and --holdout override its keys."""

    seed: int = 0
    dir: str = "."
    holdout: str = ""  # empty: the lowest-sorted environment

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


# -- config parsing -----------------------------------------------------------

def load_config(path) -> dict:
    """The config as {section: {key: text}}, sections in file order."""
    # no interpolation: a '%' in a value is read as itself; and no
    # default section, as no header can be empty: a [DEFAULT] is one
    # more unknown section, not keys copied into every section
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot parse {path}: {e}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for name in parser.sections():
        if name not in ("task", "transform", "solver", "output"):
            raise ConfigError(f"unknown section: {name}")
    if "task" not in parser:
        raise ConfigError("missing section: task")
    return {name: dict(parser[name]) for name in parser.sections()}


def _env_map(text: str) -> dict:
    pairs = [item.split(":") for item in text.split()]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"{text!r} is not a list of env:value pairs")
    if any(not env for env, _ in pairs):
        raise ValueError(f"{text!r} has an empty environment name")
    # trace.csv splits at ',' and summary.txt at '='
    if any("," in env or "=" in env for env, _ in pairs):
        raise ValueError(f"{text!r} has an environment name with ',' or '='")
    envs = {env: float(value) for env, value in pairs}
    if len(envs) < len(pairs):
        raise ValueError(f"{text!r} names an environment twice")
    return envs


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split())


# casts of the fields whose default is not a scalar; every other field is
# read by the type of its default
_CASTS = {
    "agreements": _env_map, "train_envs": _env_map, "test_envs": _env_map,
    "mean0": _floats, "mean1": _floats, "angle_range": _floats,
    "plane": lambda text: tuple(int(v) for v in text.split()),
}


def _read(section: dict, name: str, cls, **fixed):
    """`cls` built from a config section.  Its keys are the fields of
    `cls` but those in `fixed`, which the code sets itself."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.name not in fixed}
    values = {}
    for key, text in section.items():
        if key not in defaults:
            raise ConfigError(f"unknown key in section {name}: {key}")
        cast = _CASTS.get(key, type(defaults[key]))
        try:
            values[key] = cast(text)
        except ValueError as e:
            raise ConfigError(f"invalid value for key {key}: {e}") from None
    try:
        return cls(**fixed, **values)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_task(cfg: dict, seed: int):
    """Returns (datasets, transformation model, task spec) for the config."""
    model = _read(cfg.get("transform", {}), "transform",
                  transforms.RotationModel)
    task = dict(cfg["task"])
    kind = task.pop("kind", "")
    if kind == "concept-shift":
        spec = _read(task, "task", datagen.ConceptShiftSpec)
        return (datagen.gen_concept_shift(spec, seed),
                datagen.concept_shift_transform(spec), spec)
    if kind == "covariate-shift":
        spec = _read(task, "task", datagen.CovariateShiftSpec, model=model)
        return datagen.gen_covariate_shift(spec, seed), model, spec
    raise ConfigError(f"invalid value for key kind: {kind!r}")


def build_solver_config(cfg: dict, seed: int) -> solvers.SolverConfig:
    return _read(cfg.get("solver", {}), "solver", solvers.SolverConfig,
                 seed=seed)


def _output(cfg: dict, args) -> Output:
    """[output], each key overridden by its flag when one is given."""
    flags = {"seed": args.seed, "dir": args.out,
             "holdout": getattr(args, "holdout", None)}
    return _read({**cfg.get("output", {}),
                  **{key: v for key, v in flags.items() if v is not None}},
                 "output", Output)


def _make_dir(output: Output) -> Path:
    out = Path(output.dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"invalid value for key dir: {e}") from None
    return out


def _set_up(args):
    """Load the config and build the task: returns (config, [output]
    settings, datasets, transformation model).  The caller makes the
    out dir once every value it reads is checked, so that a config
    error leaves no dir behind."""
    cfg = load_config(args.config)
    output = _output(cfg, args)
    data, G, _ = build_task(cfg, output.seed)
    return cfg, output, data, G


def _holdout(output: Output, data) -> str:
    envs = sorted(d.env for d in data)
    holdout = output.holdout or envs[0]
    if holdout not in envs:
        raise ConfigError(f"invalid value for key holdout: {holdout!r}")
    return holdout


# -- train --------------------------------------------------------------------

def _config_echo(cfg) -> list:
    # a value's continuation lines are joined with spaces, so that each
    # line of summary.txt is one key=value pair
    return [f"config_{name}.{key}=" + value.replace("\n", " ")
            for name, section in cfg.items()
            for key, value in sorted(section.items())]


def run_train(args) -> int:
    cfg, output, data, G = _set_up(args)
    seed = output.seed
    holdout = _holdout(output, data)
    scfg = build_solver_config(cfg, seed)
    train_data = [d for d in data if d.env != holdout]
    if not train_data:
        raise ConfigError("invalid value for key holdout: no training "
                          "environments left")
    out = _make_dir(output)
    t0 = time.perf_counter()
    try:
        p, trace = solvers.train(scfg, train_data, G)
    except solvers.TrainingFailure as e:
        (out / "trace.csv").write_text(e.trace.to_csv())
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - t0
    bound = scfg.loss_bound
    lines = [f"algorithm={scfg.algorithm}", f"seed={seed}",
             f"holdout={holdout}"]
    accs, risks, distreg = [], {}, {}
    for d in sorted(data, key=lambda d: d.env):
        # one clean forward per environment, freed before the next
        q = pred.predict_batch(p, d.X)
        accs.append(pred.accuracy(q, d.y))
        risks[d.env] = pred.empirical_risk(q, d.y, bound)
        if d.env != holdout:
            distreg[d.env] = float(np.mean(cons.dist_reg(
                p, d.X, G, np.random.default_rng([seed, 3]), bound, q)))
        del q
        lines += [f"acc_{d.env}={accs[-1]!r}",
                  f"risk_{d.env}={risks[d.env]!r}"]
    # a tie goes to the first training environment in data order
    worst_env = max((d.env for d in train_data), key=risks.get)
    lines.append(f"avg_accuracy={float(np.mean(accs))!r}")
    lines.append(f"worst_domain_risk={risks[worst_env]!r}")
    lines.append(f"worst_domain_env={worst_env}")
    lines.append("lambda=" + " ".join(repr(float(v))
                                      for v in trace.lam[-1]))
    lines += [f"distreg_{env}={v!r}" for env, v in distreg.items()]
    lines.extend(_config_echo(cfg))
    lines.append(f"wall_clock_seconds={wall!r}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    (out / "trace.csv").write_text(trace.to_csv())
    (out / "predictor.txt").write_text(pred.save_text(p))
    return 0


# -- datagen ------------------------------------------------------------------

def run_datagen(args) -> int:
    _, output, data, _ = _set_up(args)
    (_make_dir(output) / "datasets.txt").write_text(datagen.dump_datasets(
        sorted(data, key=lambda d: d.env)))
    return 0


# -- compare ------------------------------------------------------------------

def run_compare(args) -> int:
    if len(args.config) < 2:
        raise ConfigError("compare needs at least two --config paths")
    configs = [load_config(path) for path in args.config]
    outputs = [_output(c, args) for c in configs]
    for key in ("seed", "dir"):
        if len({getattr(o, key) for o in outputs}) > 1:
            raise ConfigError(f"configs must share the value of key {key}")
    seed = outputs[0].seed

    # every config is read before any training starts
    runs = [(path, build_solver_config(cfg, seed), *build_task(cfg, seed))
            for path, cfg in zip(args.config, configs)]
    # the data must match: each parsed [task] value, and a covariate
    # task's [transform] plane; its angle_range changes only G
    tasks = [{"kind": type(spec), **vars(spec), "model": None,
              "plane": getattr(G, "plane", None)} for *_, G, spec in runs]
    for task in tasks:
        key = next((k for k in tasks[0] if task[k] != tasks[0][k]), None)
        if key:
            raise ConfigError(f"configs must share the value of key {key}")
    for output, (_, _, data, *_) in zip(outputs, runs):
        _holdout(output, data)  # checked as train checks it, though unread
    out = _make_dir(outputs[0])
    algorithms = [scfg.algorithm for _, scfg, *_ in runs]
    rows = []
    for path, scfg, data, G, _ in runs:
        # the tasks match, so every config yields the same envs
        envs = sorted(d.env for d in data)
        accs = []
        for holdout in envs:
            train_data = [d for d in data if d.env != holdout]
            try:
                p, _ = solvers.train(scfg, train_data, G)
            except solvers.TrainingFailure as e:
                print(f"runtime failure: {path}, holdout {holdout}: {e}",
                      file=sys.stderr)
                return 2
            held = next(d for d in data if d.env == holdout)
            accs.append(pred.accuracy(pred.predict_batch(p, held.X), held.y))
        label = scfg.algorithm
        if algorithms.count(label) > 1:
            # configs that share an algorithm are told apart by their path
            label = f"{label} ({path})"
        rows.append([label, *(f"{a:.17g}" for a in accs),
                     f"{float(np.mean(accs)):.17g}"])
    buf = io.StringIO()
    table = csv.writer(buf, lineterminator="\n")
    table.writerow(["algorithm", *envs, "avg"])
    table.writerows(rows)
    text = buf.getvalue()
    (out / "comparison.csv").write_text(text)
    sys.stdout.write(text)
    return 0


# -- measure-invariance -------------------------------------------------------

def run_measure_invariance(args) -> int:
    cfg, output, data, G = _set_up(args)
    out, seed = Path(output.dir), output.seed
    holdout = _holdout(output, data)
    predictor_path = Path(args.predictor) if args.predictor \
        else out / "predictor.txt"
    if not predictor_path.exists():
        raise ConfigError(f"missing predictor file: {predictor_path}")
    held = next(d for d in data if d.env == holdout)
    try:
        p = pred.load_text(predictor_path.read_text())
        if p.arch.input_dim != held.X.shape[1]:
            raise ValueError(f"input dim {p.arch.input_dim}, the task has "
                             f"{held.X.shape[1]} features")
        if p.arch.layer_sizes[-1] != datagen.n_classes(data):
            raise ValueError(f"{p.arch.layer_sizes[-1]} outputs, the task "
                             f"has {datagen.n_classes(data)} classes")
    except (OSError, ValueError, IndexError, pred.NonFiniteError) as e:
        raise ConfigError(f"invalid value for key predictor: {e}") from None
    # the distance train uses, clamped at the config's loss bound
    bound = build_solver_config(cfg, seed).loss_bound
    _make_dir(output)
    values = verify_mod.measure_g_invariance(p, held, G, bound, seed=seed)
    (out / "invariance.csv").write_text("example,distreg\n" + "".join(
        f"{i},{v:.17g}\n" for i, v in enumerate(values)))
    print(f"median={float(np.median(values))!r}")
    return 0


# -- verify suites ------------------------------------------------------------

def _suite_duality():
    checks = []
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(100):
        s = verify_mod.random_spec(rng)
        rep = verify_mod.gap_report(s, s.gamma)
        ok = ok and rep.gap >= -1e-9
    checks.append(("weak-duality-100-random-specs", ok))
    spec = verify_mod.convex_1d_instance()
    rep = verify_mod.gap_report(spec, 0.1)
    checks.append(("convex-1d-tightness", abs(rep.gap) <= 2e-3))
    sand_ok = True
    for _ in range(100):
        s = verify_mod.random_convex_spec(rng)
        coarse = verify_mod.ConstrainedProblemSpec(
            s.thetas[::10], s.R[::10], s.L[::10], s.gamma)
        try:
            verify_mod.parameterization_sandwich(s, coarse, s.gamma)
        except verify_mod.VerificationError:
            sand_ok = False
        except verify_mod.InfeasibleError:
            pass
    checks.append(("parameterization-sandwich-100-specs", sand_ok))
    return checks


def _suite_perturbation():
    spec = verify_mod.convex_1d_instance()
    # perturbation_curve raises where the curve is not monotone
    values = verify_mod.perturbation_curve(spec, [0.0, 0.05, 0.1])
    return [("monotone-curve", True),
            ("zero-margin-value", abs(values[0] - 0.25) <= 2e-3),
            ("curve-endpoint", abs(values[-1] - 0.16) <= 2e-3)]


def _suite_empirical_gap():
    means = verify_mod.empirical_gap_experiment(
        default_population(), [100, 400, 1600, 6400], trials=20, seed=2)
    return [("strictly-decreasing", True),
            ("final-third-of-initial", means[-1] <= means[0] / 3)]


def default_population() -> verify_mod.EmpiricalPopulation:
    """A two-Gaussian regression population of 13000 examples over a 1-d
    predictor grid, drawn from seed 1."""
    n_pop = 13000
    rng = np.random.default_rng(1)
    thetas = np.linspace(-1.0, 1.0, 101)
    comp = rng.integers(0, 2, size=n_pop)
    x = np.where(comp == 1, 0.6, -0.2) + 0.8 * rng.standard_normal(n_pop)
    loss = thetas[None, :] - x[:, None]
    np.square(loss, out=loss)
    base = np.abs(0.5 - thetas)[None, :, None]
    noise = 0.05 * rng.standard_normal((n_pop, 1, 1))
    return verify_mod.EmpiricalPopulation(
        thetas[:, None], loss, base + noise, gamma=0.3)


def _suite_schedule():
    spec = verify_mod.convex_1d_instance()
    rep = verify_mod.theorem2_schedule_check(spec, kappa=0.2, eta=0.1, B=2.0)
    rep0 = verify_mod.theorem2_schedule_check(spec, kappa=0.2, eta=0.0,
                                              B=2.0)
    return [("schedule-gap", rep.gap <= 0.05),
            ("negative-control", rep0.gap > 0.05)]


def _suite_slackness():
    rep = verify_mod.gap_report(verify_mod.convex_1d_instance(), 0.1)
    loose = verify_mod.gap_report(verify_mod.convex_1d_instance(gamma=2.0),
                                  2.0)
    return [("active-constraint-residual", rep.residual <= 1e-3),
            ("inactive-constraint-zero",
             loose.residual == 0.0 and float(loose.lam.sum()) == 0.0)]


SUITES = {
    "duality": _suite_duality,
    "perturbation": _suite_perturbation,
    "empirical-gap": _suite_empirical_gap,
    "schedule": _suite_schedule,
    "slackness": _suite_slackness,
}


def run_verify(args) -> int:
    try:
        checks = SUITES[args.suite]()
    except verify_mod.VerificationError as e:
        checks = [(f"{args.suite}: {e}", False)]
    all_ok = True
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# -- entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the configuration-error code, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invariantlab",
        description="constrained invariant-learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, config_action="store"):
        p = sub.add_parser(name)
        p.add_argument("--config", action=config_action, required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        return p

    common("datagen")
    common("train").add_argument("--holdout", default=None)
    common("compare", config_action="append")
    mi = common("measure-invariance")
    mi.add_argument("--holdout", default=None)
    mi.add_argument("--predictor", default=None)
    sub.add_parser("verify").add_argument("suite", choices=SUITES)
    return parser


_HANDLERS = {
    "datagen": run_datagen,
    "train": run_train,
    "compare": run_compare,
    "measure-invariance": run_measure_invariance,
    "verify": run_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
