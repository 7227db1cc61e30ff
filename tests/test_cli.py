import configparser
import csv
import dataclasses
import io
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from invariantlab import (cli, datagen, predictors as pred, solvers,
                          transforms, verify)

ROOT = Path(__file__).resolve().parent.parent

SMALL_TASK = """\
[task]
kind = concept-shift
agreements = e0.9:0.9 e0.8:0.8 e0.1:0.1
n_per_env = 500

[solver]
algorithm = {algorithm}
steps = 40
batch_size = 32
hidden = 4
"""


COVARIATE_TASK = """\
[task]
kind = covariate-shift
n_per_env = 100

[transform]
plane = 0 1

[solver]
steps = 5
"""


def _write_config(tmp_path, algorithm="mbdg", name="cfg.ini", body=None):
    path = tmp_path / name
    path.write_text(body or SMALL_TASK.format(algorithm=algorithm))
    return str(path)


def _strip_wall_clock(text):
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("wall_clock_seconds="))


# -- train ---------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    code = cli.main(["train", "--config", cfg, "--out", str(out),
                     "--seed", "0", "--holdout", "e0.1"])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "algorithm=mbdg" in summary
    assert "holdout=e0.1" in summary
    for env in ("e0.9", "e0.8", "e0.1"):
        assert f"acc_{env}=" in summary
        assert f"risk_{env}=" in summary
    assert "avg_accuracy=" in summary
    assert "worst_domain_risk=" in summary
    assert "lambda=" in summary
    assert "config_task.kind=concept-shift" in summary
    assert "wall_clock_seconds=" in summary
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss,lambda,gamma,distreg"
    assert len(trace) == 41
    p = pred.load_text((out / "predictor.txt").read_text())
    assert p.arch.input_dim == 5


def test_wall_clock_is_not_negative_when_the_system_clock_steps_back(
        tmp_path, monkeypatch):
    # a system clock that an adjustment sets back by an hour per reading
    readings = iter(range(10 ** 6, 0, -3600))
    monkeypatch.setattr(time, "time", lambda: float(next(readings)))
    cfg = _write_config(tmp_path, algorithm="erm")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
    wall = [line for line in (out / "summary.txt").read_text().splitlines()
            if line.startswith("wall_clock_seconds=")]
    assert float(wall[0].split("=")[1]) >= 0.0


def test_train_is_byte_deterministic_up_to_wall_clock(tmp_path):
    cfg = _write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", cfg, "--out", str(out),
                         "--seed", "3"]) == 0
        outs.append(out)
    a, b = outs
    assert _strip_wall_clock((a / "summary.txt").read_text()) == \
        _strip_wall_clock((b / "summary.txt").read_text())
    assert (a / "trace.csv").read_text() == (b / "trace.csv").read_text()
    assert (a / "predictor.txt").read_text() == \
        (b / "predictor.txt").read_text()


def test_multi_line_value_is_echoed_on_one_line(tmp_path):
    # a continuation line is legal INI; the summary echoes the value with
    # a space for the line break, as if it were written on one line
    folded = SMALL_TASK.format(algorithm="erm").replace(
        "agreements = e0.9:0.9 e0.8:0.8", "agreements = e0.9:0.9\n  e0.8:0.8")
    summaries = []
    for name, body in (("one", SMALL_TASK.format(algorithm="erm")),
                       ("two", folded)):
        cfg = _write_config(tmp_path, name=f"{name}.ini", body=body)
        assert cli.main(["train", "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
        summaries.append((tmp_path / name / "summary.txt").read_text())
    values = dict(line.split("=", 1) for line in summaries[1].splitlines())
    assert values["config_task.agreements"] == "e0.9:0.9 e0.8:0.8 e0.1:0.1"
    assert _strip_wall_clock(summaries[1]) == _strip_wall_clock(summaries[0])


@pytest.mark.parametrize("envs,tied", [("b:0.0 a:0.0", True),
                                       ("a:0.0 b:0.0", True),
                                       ("b:0.0 a:1.5", False)])
def test_worst_domain_is_the_first_listed_of_largest_risk(tmp_path, envs,
                                                          tied):
    # two environments that rotate by the same angle hold the same data,
    # so their risks tie
    body = COVARIATE_TASK.replace("n_per_env = 100",
                                  f"n_per_env = 100\ntrain_envs = {envs}")
    cfg = _write_config(tmp_path, body=body)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out),
                     "--holdout", "etest"]) == 0
    values = dict(line.split("=", 1) for line in
                  (out / "summary.txt").read_text().splitlines())
    listed = [pair.split(":")[0] for pair in envs.split()]
    risks = [float(values[f"risk_{env}"]) for env in listed]
    assert (risks[0] == risks[1]) == tied
    assert values["worst_domain_env"] == listed[risks.index(max(risks))]
    assert float(values["worst_domain_risk"]) == max(risks)


def test_train_rejects_nonpositive_margin(tmp_path, capsys):
    body = SMALL_TASK.format(algorithm="mbdg") + "gamma = -1\n"
    cfg = _write_config(tmp_path, body=body)
    code = cli.main(["train", "--config", cfg, "--out",
                     str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "margin" in err


@pytest.mark.parametrize("line,key", [
    ("batch_size = 0", "batch_size"),
    ("hidden = 0", "hidden"),
    ("eta_dual = -1", "eta_dual"),
    ("loss_bound = 0", "loss_bound"),
    ("algoritm = erm", "algoritm"),
    ("constraint_mode = against-clean", "constraint_mode"),
])
def test_train_rejects_invalid_solver_key(tmp_path, capsys, line, key):
    # SMALL_TASK sets batch_size and hidden: drop the line a probe replaces
    body = "\n".join(l for l in SMALL_TASK.format(algorithm="mbdg")
                     .splitlines() if not l.startswith(key + " "))
    cfg = _write_config(tmp_path, body=body + "\n" + line + "\n")
    code = cli.main(["train", "--config", cfg, "--out",
                     str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_train_cast_error_names_key(tmp_path, capsys):
    body = SMALL_TASK.format(algorithm="mbdg").replace(
        "steps = 40", "steps = 2.5")
    cfg = _write_config(tmp_path, body=body)
    assert cli.main(["train", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "steps" in err


def test_duplicate_key_is_config_error(tmp_path, capsys):
    body = SMALL_TASK.format(algorithm="mbdg") + "steps = 5\n"
    cfg = _write_config(tmp_path, body=body)
    assert cli.main(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "steps" in err


# the config a probe edits: an algorithm names the concept task trained
# with it
_PROBE_BASES = {"mbdg": SMALL_TASK.format(algorithm="mbdg"),
                "mbdg-reg": SMALL_TASK.format(algorithm="mbdg-reg"),
                "covariate": COVARIATE_TASK}


@pytest.mark.parametrize("base,section,line,key", [
    ("mbdg", "solver", "gamma = nan", "gamma"),
    ("mbdg-reg", "solver", "weight = nan", "weight"),
    ("mbdg", "output", "holdout = e0.1%", "holdout"),
    ("mbdg", "task", "bogus = 1", "bogus"),
    ("mbdg", "output", "hldout = e0.1", "hldout"),
    ("mbdg", "transform", "planee = 0 1", "planee"),
    ("mbdg", "task", "n_per_env = 0", "n_per_env"),
    ("mbdg", "task", "rho_shape = 1.5", "rho_shape"),
    ("mbdg", "task", "agreements = e1:1.5 e2:0.5", "agreements"),
    ("mbdg", "task", "agreements = e0.9:0.9 e0.9:0.8 e0.1:0.1",
     "agreements"),
    # an empty name: datasets.txt would then read label 1 as the env
    ("mbdg", "task", "agreements = :0.5 e0.1:0.1", "agreements"),
    # trace.csv's header would gain a field, and summary.txt a second '='
    ("mbdg", "task", "agreements = e,9:0.9 e0.8:0.8 e0.1:0.1", "agreements"),
    ("mbdg", "task", "agreements = e0.9:0.9 e=8:0.8 e0.1:0.1", "agreements"),
    ("mbdg", "task", "shape_sigma = nan", "shape_sigma"),
    ("mbdg", "task", "shape_sigma = -1.0", "shape_sigma"),
    ("covariate", "task", "mean0 = 1 2 3", "mean0"),
    ("covariate", "task", "noise_dims = -1", "noise_dims"),
    ("covariate", "task", "n_per_env = 0", "n_per_env"),
    ("covariate", "task", "train_envs = a0:nan", "train_envs"),
    ("covariate", "task", "train_envs = a0:0 a0:0.5", "train_envs"),
    ("covariate", "task", "test_envs = :1.5", "test_envs"),
    ("covariate", "task", "sigma = nan", "sigma"),
    ("covariate", "task", "sigma = -0.4", "sigma"),
    ("covariate", "transform", "plane = 0", "plane"),
    ("covariate", "transform", "plane = 0 5", "plane"),
    ("covariate", "transform", "angle_range = 0", "angle_range"),
    # ends that are finite, a width that is not
    ("covariate", "transform", "angle_range = 1e308 -1e308", "angle_range"),
])
def test_config_fault_names_key(tmp_path, capsys, base, section, line, key):
    # the probe's line replaces the base's line for the same key
    body = "\n".join(l for l in _PROBE_BASES[base].splitlines()
                     if l.split(" = ")[0] != key) + "\n"
    header = f"[{section}]\n"
    if header in body:
        body = body.replace(header, header + line + "\n")
    else:
        body += "\n" + header + line + "\n"
    cfg = _write_config(tmp_path, body=body)
    assert cli.main(["train", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("flags,output,message", [
    (["--seed", "-1"], "", "seed must be non-negative"),
    ([], "seed = -3", "seed must be non-negative"),
    # a regular file, so no directory can be made under it
    (["--out", "{tmp}/file/x"], "", "invalid value for key dir: "),
], ids=["seed-flag", "seed-key", "dir"])
def test_output_fault_names_key(tmp_path, capsys, command, flags, output,
                                message):
    (tmp_path / "file").write_text("")
    body = SMALL_TASK + f"\n[output]\n{output}\n"
    configs = [_write_config(tmp_path, name=f"{a}.ini",
                             body=body.format(algorithm=a))
               for a in ("erm", "mbdg")[:1 if command == "train" else 2]]
    argv = [command, *(arg for c in configs for arg in ("--config", c)),
            "--out", str(tmp_path / "x"),
            *(f.format(tmp=tmp_path) for f in flags)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: " + message)


def _documented_sections():
    """The README's reference configs: {(section, kind or None): keys}."""
    text = (ROOT / "README.md").read_text()
    text = text.split("Every key, with its default:")[1]
    text = text.split("Any other key is a configuration error")[0]
    documented = {}
    for block in text.split("```ini")[1:]:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block.split("```")[0])
        for name in parser.sections():
            keys = dict(parser[name])
            documented[name, keys.get("kind")] = keys
    return documented


def test_each_section_accepts_exactly_the_documented_keys(tmp_path, capsys,
                                                          monkeypatch):
    documented = _documented_sections()
    assert set(documented) == {
        ("task", "concept-shift"), ("task", "covariate-shift"),
        ("transform", None), ("solver", None), ("output", None)}
    # the fields of every config dataclass, any of which could become a key
    candidates = {"kind"} | {
        f.name for cls in (datagen.ConceptShiftSpec,
                           datagen.CovariateShiftSpec,
                           transforms.RotationModel, solvers.SolverConfig,
                           cli.Output)
        for f in dataclasses.fields(cls)}
    monkeypatch.chdir(tmp_path)

    def read(name, kind, keys):
        """What the config reads from `keys` as its section `name`."""
        if name == "solver":
            return cli.build_solver_config({"solver": keys}, 0)
        if name == "output":
            body = "[task]\nkind = covariate-shift\nn_per_env = 5\n" \
                "[output]\n" + "".join(f"{k} = {v}\n"
                                       for k, v in keys.items())
            if cli.main(["datagen", "--config",
                         _write_config(tmp_path, body=body)]) != 0:
                raise cli.ConfigError(capsys.readouterr().err)
            return (tmp_path / "datasets.txt").read_text()
        if name == "task":
            cfg = {"task": {"kind": kind, **keys}}
        else:
            cfg = {"task": {"kind": "covariate-shift", "n_per_env": "5"},
                   name: keys}
        data, G, _ = cli.build_task(cfg, 0)
        return G, [(d.env, d.X.tolist(), d.y.tolist()) for d in data]

    for (name, kind), keys in documented.items():
        # each documented value is the default
        assert read(name, kind, keys) == read(name, kind, {})
        for key in sorted(candidates - set(keys)):
            with pytest.raises(cli.ConfigError,
                               match=f"unknown key in section {name}: {key}"):
                read(name, kind, {key: "1"})


def test_missing_section_header_is_config_error(tmp_path, capsys):
    body = "steps = 5\n" + SMALL_TASK.format(algorithm="mbdg")
    cfg = _write_config(tmp_path, body=body)
    assert cli.main(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "section header" in err


def test_train_rejects_unknown_holdout(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["train", "--config", cfg, "--out",
                     str(tmp_path / "x"), "--holdout", "nope"]) == 1


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_config_requires_task_section(tmp_path, capsys):
    path = tmp_path / "empty.ini"
    path.write_text("[solver]\nsteps = 5\n")
    assert cli.main(["train", "--config", str(path)]) == 1
    assert "missing section: task" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["datagen", "train"])
@pytest.mark.parametrize("section", ["solvr", "DEFAULT"])
def test_unknown_section_is_config_error(tmp_path, capsys, command,
                                         section):
    # a misspelled [solver] was ignored, and train ran the default steps;
    # a [DEFAULT]'s keys were copied into every section
    body = SMALL_TASK.format(algorithm="mbdg") \
        + f"\n[{section}]\nsteps = 3\n"
    cfg = _write_config(tmp_path, body=body)
    assert cli.main([command, "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == \
        f"config error: unknown section: {section}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command,fault,message", [
    pytest.param(command, fault, message, id=f"{command}-{fault}")
    for command in ("datagen", "train", "measure-invariance")
    for fault, message in (
        ("task", "invalid value for key agreements: "),
        ("solver", "steps must be at least 1"),
        ("holdout", "invalid value for key holdout: 'nope'"))
    # datagen reads no [solver] and takes no --holdout
    if command != "datagen" or fault == "task"])
def test_config_value_error_makes_no_out_dir(tmp_path, capsys, command,
                                             fault, message):
    # the out dir was made before the values were checked, and a config
    # error left it behind, empty
    body = SMALL_TASK.format(algorithm="mbdg")
    if fault == "task":
        body = body.replace("e0.9:0.9", "e,9:0.9")
    elif fault == "solver":
        body = body.replace("steps = 40", "steps = 0")
    argv = [command, "--config", _write_config(tmp_path, body=body),
            "--out", str(tmp_path / "x")]
    if fault == "holdout":
        argv += ["--holdout", "nope"]
    if command == "measure-invariance":
        # a usable predictor, so that the fault is the first error met
        path = tmp_path / "predictor.txt"
        path.write_text(pred.save_text(
            pred.init_predictor(pred.Architecture((5, 4, 2)), 0)))
        argv += ["--predictor", str(path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "x").exists()


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.ini"
    path.write_bytes(SMALL_TASK.format(algorithm="mbdg").encode()
                     + b"# \xff\n")
    assert cli.main(["datagen", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot parse {path}: ")
    assert "Traceback" not in err


def test_default_holdout_is_lowest_sorted_env(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == 0
    assert "holdout=e0.1" in (out / "summary.txt").read_text()


# -- datagen ---------------------------------------------------------------------

def test_datagen_writes_loadable_datasets(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "data"
    assert cli.main(["datagen", "--config", cfg, "--out", str(out),
                     "--seed", "5"]) == 0
    loaded = oracles.load_datasets((out / "datasets.txt").read_text())
    assert {d.env for d in loaded} == {"e0.9", "e0.8", "e0.1"}
    assert all(len(d) == 500 for d in loaded)


def test_datagen_covariate_shift_config(tmp_path):
    body = """\
[task]
kind = covariate-shift
n_per_env = 100
train_envs = a0:0.0 a60:1.0471976
test_envs = a90:1.5707963

[transform]
plane = 0 1
angle_range = 0 6.2831853
"""
    cfg = _write_config(tmp_path, body=body)
    out = tmp_path / "data"
    assert cli.main(["datagen", "--config", cfg, "--out", str(out)]) == 0
    loaded = oracles.load_datasets((out / "datasets.txt").read_text())
    assert {d.env for d in loaded} == {"a0", "a60", "a90"}


# -- compare ---------------------------------------------------------------------

def test_compare_writes_table_and_prefers_constrained_training(tmp_path,
                                                               capsys):
    body = SMALL_TASK.replace("steps = 40", "steps = 400").replace(
        "n_per_env = 500", "n_per_env = 2000")
    erm = _write_config(tmp_path, name="erm.ini",
                        body=body.format(algorithm="erm"))
    mbdg = _write_config(tmp_path, name="mbdg.ini",
                         body=body.format(algorithm="mbdg"))
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--config", erm, "--config", mbdg,
                     "--out", str(out), "--seed", "0"])
    assert code == 0
    text = (out / "comparison.csv").read_text()
    assert capsys.readouterr().out == text
    lines = text.strip().splitlines()
    assert lines[0] == "algorithm,e0.1,e0.8,e0.9,avg"
    rows = {l.split(",")[0]: [float(v) for v in l.split(",")[1:]]
            for l in lines[1:]}
    assert set(rows) == {"erm", "mbdg"}
    # the anti-correlated environment is where the constraint pays off
    assert rows["mbdg"][0] > rows["erm"][0]


def test_compare_labels_configs_that_share_an_algorithm(tmp_path, capsys):
    body = SMALL_TASK.format(algorithm="mbdg")
    # a comma in a path is quoted, so each row keeps its five cells
    paths = [_write_config(tmp_path, name="a.ini", body=body),
             _write_config(tmp_path, name="b,c.ini",
                           body=body + "gamma = 0.5\n")]
    assert cli.main(["compare", "--config", paths[0], "--config", paths[1],
                     "--out", str(tmp_path / "cmp")]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == [5, 5, 5]
    assert [row[0] for row in rows[1:]] == \
        [f"mbdg ({path})" for path in paths]


def test_compare_reads_the_seed_of_its_configs(tmp_path, capsys):
    plain, seeded = [], []
    for algorithm in ("erm", "mbdg"):
        body = SMALL_TASK.format(algorithm=algorithm)
        plain.append(_write_config(tmp_path, name=f"{algorithm}.ini",
                                   body=body))
        seeded.append(_write_config(tmp_path, name=f"{algorithm}-3.ini",
                                    body=body + "\n[output]\nseed = 3\n"))

    def table(paths, *flags):
        argv = ["compare", "--out", str(tmp_path / "cmp"), *flags]
        for path in paths:
            argv += ["--config", path]
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    assert table(seeded) == table(plain, "--seed", "3") != table(plain)
    # configs that ask for different seeds cannot share one table
    assert cli.main(["compare", "--config", plain[0], "--config",
                     seeded[1]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed" in err


def test_compare_rejects_configs_with_different_dirs(tmp_path, capsys):
    # one comparison.csv cannot go to two directories
    paths = [_write_config(tmp_path, name=f"{name}.ini",
                           body=SMALL_TASK.format(algorithm=algorithm)
                           + f"\n[output]\ndir = {tmp_path / name}\n")
             for name, algorithm in (("a", "erm"), ("b", "mbdg"))]
    assert cli.main(["compare", "--config", paths[0], "--config",
                     paths[1]]) == 1
    err = capsys.readouterr().err
    assert err == "config error: configs must share the value of key dir\n"
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_compare_reads_every_config_before_training(tmp_path, capsys,
                                                    monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("compare trained before reading every config")

    monkeypatch.setattr(solvers, "train", train)
    ok = _write_config(tmp_path, name="ok.ini", algorithm="erm")
    bad = _write_config(tmp_path, name="bad.ini",
                        body=SMALL_TASK.format(algorithm="mbdg")
                        + "gamma = -1\n")
    assert cli.main(["compare", "--config", ok, "--config", bad,
                     "--out", str(tmp_path / "cmp")]) == 1
    assert "gamma" in capsys.readouterr().err


def test_compare_requires_two_configs(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["compare", "--config", cfg]) == 1


def test_compare_rejects_mismatched_tasks(tmp_path, capsys):
    a = _write_config(tmp_path, name="a.ini")
    other = SMALL_TASK.format(algorithm="erm").replace(
        "n_per_env = 500", "n_per_env = 600")
    b = _write_config(tmp_path, name="b.ini", body=other)
    c = _write_config(tmp_path, name="c.ini", body=COVARIATE_TASK)
    # the message names the first task key whose values differ
    for config, key in ((b, "n_per_env"), (c, "kind")):
        assert cli.main(["compare", "--config", a, "--config", config,
                         "--out", str(tmp_path / "cmp")]) == 1
        assert capsys.readouterr().err == \
            f"config error: configs must share the value of key {key}\n"
    assert not (tmp_path / "cmp").exists()


def test_compare_checks_the_holdout_key_as_train_does(tmp_path, capsys):
    # compare trains every holdout, but a holdout naming no environment
    # is an error there too, raised before any out dir is made
    body = SMALL_TASK + "\n[output]\nholdout = {}\n"
    for holdout, code in (("nope", 1), ("e0.8", 0)):
        paths = [_write_config(tmp_path, name=f"{algorithm}.ini",
                               body=body.format(holdout,
                                                algorithm=algorithm))
                 for algorithm in ("erm", "mbdg")]
        out = tmp_path / f"cmp-{holdout}"
        assert cli.main(["compare", "--config", paths[0], "--config",
                         paths[1], "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert capsys.readouterr().err == \
        "config error: invalid value for key holdout: 'nope'\n"


def _covariate_configs(tmp_path, transforms):
    """One erm config of a covariate task with two-coordinate noise per
    [transform] body in `transforms`."""
    body = COVARIATE_TASK.replace("n_per_env = 100",
                                  "n_per_env = 100\nnoise_dims = 1")
    body = body.replace("[transform]\nplane = 0 1\n", "[transform]\n{}\n")
    return [_write_config(tmp_path, name=f"{i}.ini",
                          body=body.format(t) + "algorithm = erm\n")
            for i, t in enumerate(transforms)]


def test_compare_rejects_configs_with_different_planes(tmp_path, capsys):
    # the plane shapes a covariate task's data, so the rows would be
    # trained and scored on different data
    a, b = _covariate_configs(tmp_path, ["plane = 0 1", "plane = 1 2"])
    assert cli.main(["compare", "--config", a, "--config", b,
                     "--out", str(tmp_path / "cmp")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: configs must share the value of key plane\n"
    assert not (tmp_path / "cmp").exists()


def test_compare_allows_what_leaves_the_data_alone(tmp_path, capsys):
    # angle_range changes only G; a concept task ignores [transform]; a
    # task value is compared as read, so 0500 is the n_per_env 500
    pairs = [_covariate_configs(tmp_path, ["angle_range = 0 1",
                                           "angle_range = 0 2"]),
             [_write_config(tmp_path, name=f"c{i}.ini",
                            body=SMALL_TASK.format(algorithm="erm")
                            + f"\n[transform]\nplane = {plane}\n")
              for i, plane in enumerate(["0 1", "1 2"])],
             [_write_config(tmp_path, name="n0.ini"),
              _write_config(tmp_path, name="n1.ini",
                            body=SMALL_TASK.format(algorithm="erm").replace(
                                "n_per_env = 500", "n_per_env = 0500"))]]
    for a, b in pairs:
        assert cli.main(["compare", "--config", a, "--config", b,
                         "--out", str(tmp_path / "cmp")]) == 0


def test_compare_reports_a_diverging_run(tmp_path, capsys):
    ok = _write_config(tmp_path, name="ok.ini", algorithm="erm")
    # this step size drives the loss to overflow within the 40 steps
    body = SMALL_TASK.format(algorithm="mbdg").replace(
        "hidden = 4", "hidden = 16")
    bad = _write_config(tmp_path, name="bad.ini",
                        body=body + "eta_primal = 1.7e308\n")
    assert cli.main(["compare", "--config", ok, "--config", bad,
                     "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {bad}, holdout e0.1: ")
    assert "non-finite" in err


def test_diverging_train_warns_nothing_and_exits_2(tmp_path, capsys):
    body = SMALL_TASK.format(algorithm="mbdg").replace(
        "hidden = 4", "hidden = 16")
    cfg = _write_config(tmp_path, body=body + "eta_primal = 1.7e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--config", cfg, "--out",
                         str(tmp_path / "x")]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] \
        == []
    assert capsys.readouterr().err.startswith("runtime failure: ")
    assert (tmp_path / "x" / "trace.csv").exists()


def test_finite_train_with_huge_logits_warns_nothing(tmp_path, capsys):
    # five steps of 1e308 leave finite weights whose logits differ by
    # more than the largest float: the summary's softmax shift overflows
    # to -inf, probability 0, its limit, and the run succeeds quietly
    cfg = _write_config(tmp_path, body=SMALL_TASK.split("[solver]")[0]
                        .replace("n_per_env = 500", "n_per_env = 50")
                        + "[solver]\nalgorithm = mbdg-reg\n"
                        "eta_primal = 1e308\nsteps = 5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--config", cfg, "--seed", "1", "--out",
                         str(tmp_path / "x")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_failed_train_writes_the_exact_partial_trace(tmp_path, monkeypatch,
                                                     capsys):
    # G turns NaN after k transforms; mbdg-reg transforms one batch per
    # step, so the run fails at step k and trace.csv holds steps 0..k-1
    k = 6
    build_task = cli.build_task

    def failing_task(cfg, seed):
        data, G, spec = build_task(cfg, seed)
        done = []

        def apply_batch(X, codes):
            done.append(len(X))
            out = G.apply_batch(X, codes)
            return out if len(done) <= k else out * np.nan

        return data, SimpleNamespace(sample_codes=G.sample_codes,
                                     apply_batch=apply_batch), spec

    monkeypatch.setattr(cli, "build_task", failing_task)
    cfg = _write_config(tmp_path, algorithm="mbdg-reg")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out),
                     "--seed", "0", "--holdout", "e0.1"]) == 2
    assert capsys.readouterr().err.startswith(
        f"runtime failure: step {k}: ")

    config = cli.load_config(cfg)
    data, G, _ = failing_task(config, 0)
    with pytest.raises(solvers.TrainingFailure) as exc:
        solvers.train(cli.build_solver_config(config, 0),
                      [d for d in data if d.env != "e0.1"], G)
    text = (out / "trace.csv").read_text()
    assert text == exc.value.trace.to_csv()
    assert len(text.splitlines()) == k + 1


def test_runs_in_one_process_match_runs_alone(tmp_path):
    # per-env mbdg, single erm, then per-env mbdg again in this process:
    # each run's files equal those of the same run in a fresh process
    per_env = _write_config(
        tmp_path, name="per-env.ini",
        body=SMALL_TASK.format(algorithm="mbdg") + "dual_mode = per-env\n")
    erm = _write_config(tmp_path, name="erm.ini", algorithm="erm")
    runs = [("first", per_env), ("erm", erm), ("again", per_env)]

    def argv(cfg, out):
        return ["train", "--config", cfg, "--out", str(out), "--seed", "3",
                "--holdout", "e0.1"]

    for name, cfg in runs:
        assert cli.main(argv(cfg, tmp_path / name)) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for cfg in (per_env, erm):
        subprocess.run([sys.executable, "-m", "invariantlab",
                        *argv(cfg, tmp_path / f"alone-{Path(cfg).stem}")],
                       env=env, check=True, timeout=120)
    for name, cfg in runs:
        alone = tmp_path / f"alone-{Path(cfg).stem}"
        for file in ("trace.csv", "predictor.txt"):
            assert (tmp_path / name / file).read_bytes() \
                == (alone / file).read_bytes()


# -- measure-invariance ------------------------------------------------------------

def test_measure_invariance_roundtrip(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == 0
    assert cli.main(["measure-invariance", "--config", cfg, "--out",
                     str(out), "--seed", "0"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("median=")
    lines = (out / "invariance.csv").read_text().strip().splitlines()
    assert lines[0] == "example,distreg"
    assert len(lines) == 501
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert float(printed.split("=", 1)[1]) == pytest.approx(
        float(np.median(values)))


def test_measure_invariance_clamps_at_the_configs_loss_bound(tmp_path):
    body = SMALL_TASK.format(algorithm="mbdg") + "loss_bound = 1e-3\n"
    cfg = _write_config(tmp_path, body=body)
    out = tmp_path / "run"
    out.mkdir()
    p = pred.init_predictor(pred.Architecture((5, 8, 2)), 0)
    # large weights make the prediction swing with the color coordinates
    p = pred.Predictor(p.arch, 10.0 * p.theta)
    (out / "predictor.txt").write_text(pred.save_text(p))
    assert cli.main(["measure-invariance", "--config", cfg, "--out",
                     str(out), "--seed", "0"]) == 0
    lines = (out / "invariance.csv").read_text().strip().splitlines()
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(values) == 500
    assert max(values) <= 1e-3


def test_measure_invariance_missing_predictor(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["measure-invariance", "--config", cfg, "--out",
                     str(tmp_path / "nothing")]) == 1


@pytest.mark.parametrize("text", [
    # trained on a task with two features; the concept task has five
    pred.save_text(pred.init_predictor(pred.Architecture((2, 4, 2)), 0)),
    "not a predictor\n",
    "",
    None,  # a directory
    "5 1 2 tanh\n" + " ".join(["nan"] * 10) + "\n",
    "5 0 2 tanh\n0 0\n",  # a zero-width hidden layer
    "5 16 2 tanh\n1 2 3\n",  # 3 values for 130 parameters
    "5 4 2 relu\n" + " ".join(["0.1"] * 34) + "\n",
    # the concept task has 2 classes
    pred.save_text(pred.init_predictor(pred.Architecture((5, 4, 7)), 0)),
    pred.save_text(pred.init_predictor(pred.Architecture((5, 4, 1)), 0)),
], ids=["other-task", "corrupt", "empty", "directory", "nan", "zero-width",
        "wrong-count", "other-activation", "7-outputs", "1-output"])
def test_measure_invariance_rejects_an_unusable_predictor(tmp_path, capsys,
                                                          text):
    cfg = _write_config(tmp_path)
    path = tmp_path / "predictor.txt"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert cli.main(["measure-invariance", "--config", cfg, "--out",
                     str(tmp_path), "--predictor", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: invalid value for key predictor: ")


# -- usage errors ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["train", "--confg", "x.ini"],
    ["train"],
    ["datagen", "--config", "x.ini", "--holdout", "e0.1"],
    ["compare", "--config", "a.ini", "--config", "b.ini",
     "--holdout", "e0.1"],
    ["verify", "duality", "--out", "zz"],
])
def test_usage_error_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "error: " in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_python_dash_m_runs_the_command():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])

    def run(module, *argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    ok = run("invariantlab", "verify", "slackness")
    assert ok.returncode == 0
    assert "PASS active-constraint-residual" in ok.stdout
    assert "RuntimeWarning" not in ok.stderr
    # the package imports cli before runpy runs it, so runpy warns here
    bad = run("invariantlab.cli", "verify", "nope")
    assert bad.returncode == 1
    assert "invalid choice: 'nope'" in bad.stderr


# -- verify ------------------------------------------------------------------------

def test_verify_unknown_suite(tmp_path, capsys):
    # rejected by the parser, as any usage error is
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nope"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument suite: invalid choice: 'nope'" in err


@pytest.mark.parametrize("suite", ["schedule", "slackness", "perturbation"])
def test_verify_fast_suites_pass(suite, capsys):
    assert cli.main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_prints_fail_for_a_failed_gap_check(monkeypatch, capsys):
    exact = verify.solve_dual

    def solve_dual(spec, gamma):
        # a dual value above the primal one breaks weak duality
        D, lam = exact(spec, gamma)
        return D + 1.0, lam

    monkeypatch.setattr(verify, "solve_dual", solve_dual)
    assert cli.main(["verify", "duality"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL weak-duality-100-random-specs" in out.splitlines()
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["duality", "slackness", "perturbation",
                                   "empirical-gap"])
def test_verify_prints_fail_for_a_check_that_raises(suite, monkeypatch,
                                                    capsys):
    def solve_dual(spec, gamma):
        raise verify.VerificationError("dual witness gives 1.0, not 0.5")

    monkeypatch.setattr(verify, "solve_dual", solve_dual)
    assert cli.main(["verify", suite]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"FAIL {suite}: dual witness gives 1.0, not 0.5"]
    assert "Traceback" not in err


def test_verify_suites_do_not_call_the_grid_oracle(monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("a verify suite called solve_dual_grid")

    monkeypatch.setattr(verify, "solve_dual_grid", oracle)
    for suite in cli.SUITES:
        assert cli.main(["verify", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
