import numpy as np
import pytest

from invariantlab import cli, datagen, predictors as pred, verify

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


@pytest.mark.parametrize("algorithm,section,line,key", [
    ("mbdg", "solver", "gamma = nan", "gamma"),
    ("mbdg-reg", "solver", "weight = nan", "weight"),
    ("mbdg", "output", "holdout = e0.1%", "holdout"),
    ("mbdg", "task", "bogus = 1", "bogus"),
    ("mbdg", "output", "hldout = e0.1", "hldout"),
    ("mbdg", "transform", "planee = 0 1", "planee"),
])
def test_config_fault_names_key(tmp_path, capsys, algorithm, section, line,
                                key):
    body = SMALL_TASK.format(algorithm=algorithm)
    header = f"[{section}]\n"
    if header in body:
        body = body.replace(header, header + line + "\n")
    else:
        body += "\n" + header + line + "\n"
    cfg = _write_config(tmp_path, body=body)
    assert cli.main(["train", "--config", cfg, "--out",
                     str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


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
    loaded = datagen.load_datasets((out / "datasets.txt").read_text())
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
    loaded = datagen.load_datasets((out / "datasets.txt").read_text())
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


def test_compare_requires_two_configs(tmp_path):
    cfg = _write_config(tmp_path)
    assert cli.main(["compare", "--config", cfg]) == 1


def test_compare_rejects_mismatched_tasks(tmp_path):
    a = _write_config(tmp_path, name="a.ini")
    other = SMALL_TASK.format(algorithm="erm").replace(
        "n_per_env = 500", "n_per_env = 600")
    b = _write_config(tmp_path, name="b.ini", body=other)
    assert cli.main(["compare", "--config", a, "--config", b]) == 1


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
    p = pred.with_params(p, 10.0 * p.params.values)
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


# -- verify ------------------------------------------------------------------------

def test_verify_unknown_suite(tmp_path, capsys):
    assert cli.main(["verify", "nope"]) == 1
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["schedule", "slackness", "perturbation"])
def test_verify_fast_suites_pass(suite, capsys):
    assert cli.main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_suites_do_not_call_the_grid_oracle(monkeypatch, capsys):
    def oracle(*args, **kwargs):
        raise AssertionError("a verify suite called solve_dual_grid")

    monkeypatch.setattr(verify, "solve_dual_grid", oracle)
    for suite in cli.SUITES:
        assert cli.main(["verify", suite]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines)
