"""Alternating parent/change runs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent <rev> --workload <name> \\
        [--workload <name> ...] [--pairs 10] [--traced-pairs 1] \\
        [--seed 1] --out BENCH_<pr>.json

Run from the root of a git checkout.  The parent is `git archive <rev>`;
the change is the working tree's files that git tracks or would track
(untracked files that `.gitignore` does not name are included, deleted
ones are not).  Both are exported into fresh directories of the same
depth under one temporary directory, so neither side runs from the
checkout; as the exports hold no `.git`, each run record's commit
reads unknown, and the report's `parent` and `change_base` name the
revisions instead.  Both run with the same environment,
`PYTHONDONTWRITEBYTECODE=1` included, so no side reads bytecode that an
earlier run left behind.

Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` once on each side, unchanged, with T the `run_seconds` of
`BENCHMARK.json`; the parent goes first in even pairs and the change in
odd ones.  Then `--traced-pairs` pairs run the same way with `--trace
1`, for the per-layer metrics.  The output holds,
per workload and trace setting, every run's metrics and per-command
seconds (`train_s.*`, `verify_s.*`, from its run record), each side's
median and quartiles per metric and per command and how many pairs the
change won (better by the direction in `BENCHMARK.json`), leaving out
what reads 0 on every run; beside them,
the machine record of the first run and the wall time of each side's
tier-1 suite (`python3 -m pytest -q`).  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str | None, dest: Path) -> None:
    """The files of `rev`, or of the working tree when `rev` is None,
    written under `dest`."""
    dest.mkdir(parents=True)
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
            tar.extractall(dest, filter="tar")
        return
    names = _git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split(b"\0")
    for name in filter(None, names):
        src = ROOT / os.fsdecode(name)
        if src.is_file():
            (dest / src.relative_to(ROOT)).parent.mkdir(parents=True,
                                                        exist_ok=True)
            shutil.copy2(src, dest / src.relative_to(ROOT))


def bench(checkout: Path, env: dict, workload: str, seed: int,
          seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in `checkout`: its summary line, and
    the per-command seconds and machine of its run record."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, env=env, check=True, capture_output=True, text=True)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / "perfbench" / "out" /
                         f"record-{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return {"correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in
                        summary["metrics"].items()},
            "commands": {k: v for k, v in record["commands"].items() if v},
            "machine": record["machine"]}


def tier1_seconds(checkout: Path, env: dict) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=checkout, env={**env, "PYTHONPATH": "src"},
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return {"seconds": time.perf_counter() - t0,
            "result": lines[-1] if lines else ""}


def spread(values: list) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def summarize(runs: list, directions: dict) -> dict:
    """Per metric and per command entry (`train_s.*`, `verify_s.*`,
    `round_s`, ...): each side's spread, and the pairs the change won.

    A command a run does not record reads 0, and a name that reads 0 on
    every run of both sides is left out: it measures nothing here.
    """
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = {
            **run["metrics"], **run["commands"]}
    out = {}
    for name in dict.fromkeys(k for run in runs
                              for k in (*run["metrics"], *run["commands"])):
        values = {side: [p[side].get(name, 0.0) for p in pairs.values()]
                  for side in SIDES}
        if not any(values["parent"] + values["change"]):
            continue
        sign = -1.0 if directions.get(name, "lower") == "higher" else 1.0
        won = sum(sign * c < sign * p
                  for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": directions.get(name, "lower"),
                     **{side: spread(values[side]) for side in SIDES},
                     "change_won": won, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced-pairs", type=int, default=0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    report = {"command": ["tools/bench_pairs.py", *(argv or sys.argv[1:])],
              "parent": _git("rev-parse", args.parent).decode().strip(),
              "change_base": _git("rev-parse", "HEAD").decode().strip(),
              "env": {"PYTHONDONTWRITEBYTECODE": "1"},
              "machine": None, "workloads": {}}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # the same depth and name length on both sides
        checkouts = {"parent": Path(tmp) / "p" / "repo",
                     "change": Path(tmp) / "c" / "repo"}
        export(args.parent, checkouts["parent"])
        export(None, checkouts["change"])
        for workload, trace in itertools.product(args.workload, (0, 1)):
            runs = []
            for pair in range(args.traced_pairs if trace else args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = bench(checkouts[side], env, workload, args.seed,
                                seconds, trace)
                    report["machine"] = report["machine"] or run["machine"]
                    del run["machine"]
                    runs.append({"pair": pair, "side": side,
                                 "first": side == order[0], **run})
                    print(f"{workload} trace {trace} pair {pair} {side}: "
                          f"{run['failed']} failed", file=sys.stderr)
            if runs:
                report["workloads"].setdefault(workload, {})[
                    f"trace{trace}"] = {
                    "seed": args.seed, "seconds": seconds,
                    "runs": runs, "summary": summarize(runs, directions)}
        report["tier1"] = {side: tier1_seconds(checkouts[side], env)
                           for side in SIDES}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
