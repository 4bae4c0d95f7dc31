"""End-to-end benchmark of the rangesa command line.

    python3 perfbench/run.py --workload net_range --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the commands are the checkout's
`src/rangesa` driven through `python -m rangesa.cli`, one process at a time,
with BLAS held to one thread. Each workload repeats whole rounds of the same
commands for about `--seconds`, checks every round's outputs against the
independent computations in `reference.py`, and prints one JSON object as the
last line of standard output. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced rounds and
reports per-layer metrics from the traced ones (see `tracer.py`).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
from tracer import EVAL_FNS, WRITER_SUFFIXES

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
CMD_TIMEOUT_S = 150.0

ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    # One BLAS thread: on two shared vCPUs a second BLAS thread contends with
    # other processes and makes batched ResNet work several times slower.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

DROPWAVE_BOX = ((-5.12, 5.12), (-5.12, 5.12))
DROPWAVE_DOMAIN = "--domain=-5.12,5.12,-5.12,5.12"
ANNEAL_DEFAULTS = dict(t_max=10.0, t_min=1e-3, delta=0.95, inner_iters=100)

NET_RANGE_SEEDS = 3      # chain seeds per estimate-range on the ResNet
WIDTH_SCALE = "0.25"     # reduced drop-wave network
# (rows of noisy drop-wave data, epochs, batch size) for `train`. The set-up
# schedule of net_range is short; net_train_oracle trains about as long as
# its 801^2 oracle takes.
SETUP_SCHEDULE = (2000, 30, 128)
ROUND_SCHEDULE = (4000, 60, 256)
ORACLE_POINTS_PER_DIM = 801
NET_RANGE_GRID = 401     # coarser reference for net_range, computed every run

# Stated tolerances of the checks.
ATTAINED_TOL = 1e-9      # relative: re-evaluated endpoint vs reported value
RANGE_TOL = 0.05         # share of the reference width an endpoint may fall short
# Fit of the trained network to drop-wave (range [-1, 0]) on fresh uniform
# points: mean absolute error at most a quarter of the function's range.
# Working training gave 0.085-0.20 on seeds 1-60; training with a broken
# gradient or update gave 0.40 and more (see README.md).
FIT_POINTS = 4000
FIT_MAE_TOL = 0.25


class Failure(Exception):
    """A command exited with a non-zero code or did not finish in time."""


class Spawner:
    """Runs commands through spawner.py; see there why."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd, log: Path) -> tuple[float, float]:
        """Run to completion; return (seconds, peak RSS in MiB) or raise Failure."""
        request = {"cmd": [str(c) for c in cmd], "log": str(log), "env": ENV,
                   "timeout": CMD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["code"] != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            raise Failure(f"{' '.join(request['cmd'][1:])} exited {reply['code']}: "
                          + " / ".join(tail))
        return reply["seconds"], reply["maxrss_kb"] / 1024.0

    def cli(self, argv, log: Path, stats: Path | None = None) -> tuple[float, float]:
        """One rangesa command; with `stats`, run traced and write spans there."""
        if stats is None:
            return self.run([sys.executable, "-m", "rangesa.cli", *argv], log)
        return self.run([sys.executable, BENCH / "traced_cli.py", stats, *argv], log)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CMD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Checks:
    """Collects failed correctness checks as messages."""

    def __init__(self):
        self.errors: list[str] = []

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def attained(self, f, x, value, box, label) -> None:
        x = np.asarray(x, dtype=float)
        lo, hi = np.array(box).T
        self.expect(np.all((x >= lo) & (x <= hi)), f"{label} point {x.tolist()} outside the box")
        again = float(f(x[None, :])[0])
        self.expect(abs(again - value) <= ATTAINED_TOL * max(1.0, abs(value)),
                    f"{label}: f({x.tolist()}) = {again!r}, reported {value!r}")


class NetReference:
    """Dense-grid extremes of a weights file, recomputed only when it changes."""

    def __init__(self, points_per_dim: int):
        self.points_per_dim = points_per_dim
        self.digest = None

    def load(self, weights: Path):
        digest = hashlib.sha256(weights.read_bytes()).hexdigest()
        if digest != self.digest:
            self.net = ref.Net(weights)
            self.lo, self.hi = ref.grid_extremes(self.net, DROPWAVE_BOX, self.points_per_dim)
            self.digest = digest
        return self


# --- workloads -------------------------------------------------------------


class Workload:
    """Set-up commands, the commands of one round, and the round's checks."""

    setup_repeats = 15

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = WORK / "inputs"

    def setup_commands(self, into: Path) -> list[list[str]]:
        return []

    def round_commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out: Path, checks: Checks) -> float:
        raise NotImplementedError


def data_and_train(seed: int, schedule, data_dir: Path, net_dir: Path) -> list[list[str]]:
    rows, epochs, batch = schedule
    return [
        ["generate-data", "--fn", "dropwave", "--m", str(rows), "--noise-sd", "0.02",
         "--seed", str(seed), "--out", str(data_dir)],
        ["train", "--preset", "dropwave", "--data", str(data_dir / "dropwave_data.csv"),
         "--epochs", str(epochs), "--batch-size", str(batch),
         "--width-scale", WIDTH_SCALE, "--seed", str(seed), "--out", str(net_dir)],
    ]


class NetRange(Workload):
    setup_repeats = 8  # one set-up trains a network: 1.5-2.8 s

    def __init__(self, seed):
        super().__init__(seed)
        self.reference = NetReference(NET_RANGE_GRID)

    def setup_commands(self, into):
        return data_and_train(self.seed, SETUP_SCHEDULE, into, into)

    def round_commands(self, out):
        return [["estimate-range", "--weights", str(self.inputs / "weights.json"),
                 DROPWAVE_DOMAIN, "--seed", str(10 * self.seed),
                 "--n-seeds", str(NET_RANGE_SEEDS), "--out", str(out / "range")]]

    def check(self, out, checks):
        grid = self.reference.load(self.inputs / "weights.json")
        doc = json.loads((out / "range" / "range_result.json").read_text())
        f_min, f_max = doc["f_min"], doc["f_max"]
        checks.attained(grid.net, doc["x_min"], f_min, DROPWAVE_BOX, "f_min")
        checks.attained(grid.net, doc["x_max"], f_max, DROPWAVE_BOX, "f_max")
        tol = RANGE_TOL * (grid.hi - grid.lo)
        checks.expect(f_min <= grid.lo + tol,
                      f"f_min {f_min!r} above reference {grid.lo!r} + {tol:.3g}")
        checks.expect(f_max >= grid.hi - tol,
                      f"f_max {f_max!r} below reference {grid.hi!r} - {tol:.3g}")
        levels = ref.temperature_levels(ANNEAL_DEFAULTS["t_max"], ANNEAL_DEFAULTS["t_min"],
                                        ANNEAL_DEFAULTS["delta"])
        want = ref.expected_eval_count(NET_RANGE_SEEDS, ANNEAL_DEFAULTS["inner_iters"], levels)
        checks.expect(doc["eval_count"] == want, f"eval_count {doc['eval_count']} != {want}")
        return (f_max - f_min) / (grid.hi - grid.lo)


class NetTrainOracle(Workload):
    def __init__(self, seed):
        super().__init__(seed)
        self.reference = NetReference(ORACLE_POINTS_PER_DIM)

    def round_commands(self, out):
        return data_and_train(self.seed, ROUND_SCHEDULE, out / "data", out / "net") + [
            ["oracle", "--weights", str(out / "net" / "weights.json"), DROPWAVE_DOMAIN,
             "--points-per-dim", str(ORACLE_POINTS_PER_DIM), "--out", str(out / "oracle")]]

    def check(self, out, checks):
        grid = self.reference.load(out / "net" / "weights.json")
        doc = json.loads((out / "oracle" / "oracle.json").read_text())
        for kind, want in (("min", grid.lo), ("max", grid.hi)):
            value = doc[f"{kind}_value"]
            checks.expect(abs(value - want) <= ATTAINED_TOL * max(1.0, abs(want)),
                          f"oracle {kind} {value!r} != independent grid {want!r}")
            checks.attained(grid.net, doc[f"{kind}_point"], value, DROPWAVE_BOX, f"oracle {kind}")
        checks.expect(doc["n_points"] == ORACLE_POINTS_PER_DIM**2,
                      f"oracle n_points {doc['n_points']}")

        losses = np.loadtxt(out / "net" / "loss_history.csv", delimiter=",", skiprows=1, ndmin=2)
        checks.expect(len(losses) == ROUND_SCHEDULE[1] and losses[-1, 1] < losses[0, 1],
                      f"training did not lower the loss: {losses[0, 1]!r} -> {losses[-1, 1]!r}")
        X = np.random.default_rng([self.seed, 2024]).uniform(*np.array(DROPWAVE_BOX).T,
                                                              size=(FIT_POINTS, 2))
        mae = float(np.mean(np.abs(grid.net(X) - ref.drop_wave(X))))
        checks.expect(mae <= FIT_MAE_TOL, f"fit to drop-wave: MAE {mae:.4f} on {FIT_POINTS} "
                      f"fresh points, tolerance {FIT_MAE_TOL}")
        return (doc["max_value"] - doc["min_value"]) / (grid.hi - grid.lo)


WORKLOADS = {"net_range": NetRange, "net_train_oracle": NetTrainOracle}


# --- per-layer metrics from the traced run ------------------------------------

LAYER_UNITS = {
    "cli.commands": "count", "cli.command_self_s": "s", "cli.artifact_write_s": "s",
    "anneal.chains": "count", "anneal.steps": "count", "anneal.step_us": "us",
    "anneal.propose_s": "s", "anneal.accept_s": "s", "anneal.chain_self_s": "s",
    "domain.reflect_calls": "count", "domain.reflect_s": "s",
    "objectives.points": "count", "objectives.eval_s": "s", "objectives.eval_self_s": "s",
    "objectives.sample_dataset_s": "s",
    "resnet.forward_calls": "count", "resnet.forward_s": "s", "resnet.forward_us": "us",
    "resnet.batch_rows": "count", "resnet.forward_batch_s": "s", "resnet.load_s": "s",
    "resnet.save_s": "s",
    "trainer.steps": "count", "trainer.grad_s": "s", "trainer.update_s": "s",
    "trainer.evaluate_fit_s": "s",
    "range_analysis.estimate_self_s": "s", "range_analysis.oracle_s": "s",
    "range_analysis.oracle_points": "count", "range_analysis.oracle_points_per_s": "1/s",
    "trace.overhead_s": "s",
}

CHAIN_FNS = ("anneal.run", "anneal.step", "anneal.run_seeds", "anneal.fixed_temperature_chain")
# The functions the metrics above are read from; a missing one is reported absent.
NAMED_FNS = CHAIN_FNS + EVAL_FNS + (
    "cli.main", "cli._write_json", "anneal.propose", "anneal.acceptance_probability",
    "anneal.Trace.to_csv", "domain.BoxDomain.reflect", "objectives.sample_dataset",
    "resnet.ResNet.forward", "resnet.ResNet.forward_batch", "resnet.ResNet.load",
    "resnet.ResNet.save", "trainer.train", "trainer.loss_and_gradients",
    "trainer.evaluate_fit", "trainer.save_loss_history", "range_analysis.estimate_range",
    "range_analysis.grid_oracle",
)


def layer_metrics(stats: dict) -> dict:
    """Per-layer figures from aggregated spans: name -> [calls, total, self, count]."""
    def pick(i, *names):
        return sum(stats[n][i] for n in names if n in stats)

    def calls(*names):
        return pick(0, *names)

    def total(*names):
        return pick(1, *names)

    def own(*names):
        return pick(2, *names)

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    cli_fns = [n for n in stats if n.startswith("cli.") and n != "cli._write_json"]
    writers = [n for n in stats if n.endswith(WRITER_SUFFIXES)]
    steps = calls("anneal.propose")
    forwards = calls("resnet.ResNet.forward")
    oracle_points = pick(3, "range_analysis.grid_oracle")
    return {
        "cli.commands": calls(*[n for n in stats if n.startswith("cli.cmd_")]),
        "cli.command_self_s": own(*cli_fns),
        "cli.artifact_write_s": total(*writers),
        "anneal.chains": calls("anneal.run", "anneal.fixed_temperature_chain"),
        "anneal.steps": steps,
        "anneal.step_us": per(total("anneal.run"), steps, 1e6),
        "anneal.propose_s": total("anneal.propose"),
        "anneal.accept_s": total("anneal.acceptance_probability"),
        "anneal.chain_self_s": own(*CHAIN_FNS),
        "domain.reflect_calls": calls("domain.BoxDomain.reflect"),
        "domain.reflect_s": total("domain.BoxDomain.reflect"),
        "objectives.points": pick(3, *EVAL_FNS),
        "objectives.eval_s": total(*EVAL_FNS),
        "objectives.eval_self_s": own(*EVAL_FNS),
        "objectives.sample_dataset_s": total("objectives.sample_dataset"),
        "resnet.forward_calls": forwards,
        "resnet.forward_s": total("resnet.ResNet.forward"),
        "resnet.forward_us": per(total("resnet.ResNet.forward"), forwards, 1e6),
        "resnet.batch_rows": pick(3, "resnet.ResNet.forward_batch"),
        "resnet.forward_batch_s": total("resnet.ResNet.forward_batch"),
        "resnet.load_s": total("resnet.ResNet.load"),
        "resnet.save_s": total("resnet.ResNet.save"),
        "trainer.steps": calls("trainer.loss_and_gradients"),
        "trainer.grad_s": total("trainer.loss_and_gradients"),
        "trainer.update_s": own("trainer.train"),
        "trainer.evaluate_fit_s": total("trainer.evaluate_fit"),
        "range_analysis.estimate_self_s": own("range_analysis.estimate_range"),
        "range_analysis.oracle_s": total("range_analysis.grid_oracle"),
        "range_analysis.oracle_points": oracle_points,
        "range_analysis.oracle_points_per_s": per(oracle_points,
                                                  total("range_analysis.grid_oracle")),
    }


def merge_stats(paths) -> tuple[dict, set]:
    stats, wrapped = {}, set()
    for path in paths:
        doc = json.loads(path.read_text())
        wrapped.update(doc["wrapped"])
        for name, row in doc["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
    return stats, wrapped


# --- runs and results --------------------------------------------------------


class Run:
    def __init__(self, workload: Workload, spawner: Spawner):
        self.wl = workload
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []
        self.rounds: list[dict] = []
        self.setup_times: list[float] = []

    def setup(self, into: Path) -> None:
        """One set-up, timed: a fresh interpreter importing rangesa, then the
        commands that make the workload's inputs in `into`."""
        fresh(into)
        log = WORK / "setup.log"
        seconds, _ = self.spawner.run([sys.executable, "-c", "import rangesa"], log)
        for argv in self.wl.setup_commands(into):
            seconds += self.spawner.cli(argv, log)[0]
        self.setup_times.append(seconds)

    def round(self, traced: bool) -> dict | None:
        out, logs = fresh(WORK / "round"), fresh(WORK / "logs")
        stats_paths, rss = [], []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.wl.round_commands(out)):
            stats = logs / f"spans{i}.json" if traced else None
            self.attempted += 1
            try:
                rss.append(self.spawner.cli(argv, logs / f"cmd{i}.log", stats)[1])
            except Failure as exc:
                self.failed += 1
                self.failures.append(str(exc))
                return None
            if stats is not None:
                stats_paths.append(stats)
        wall = time.perf_counter() - t0
        checks = Checks()
        artifacts = tree_bytes(out)
        coverage = self.wl.check(out, checks)
        self.check_errors.extend(checks.errors)
        result = {"wall": wall, "rss": max(rss), "artifact_mb": artifacts / 1e6,
                  "coverage": coverage, "traced": traced}
        if traced:
            result["stats"], result["wrapped"] = merge_stats(stats_paths)
        self.rounds.append(result)
        return result

    def measure(self, seconds: float, trace: bool) -> None:
        """Whole rounds (untraced, or untraced + traced pairs) for about `seconds`
        of command time, and at least two; the first round sets how many fit.

        The first set-up makes the inputs. The other set-ups are spread over
        the gaps after the rounds, so that their median does not rest on one
        stretch of machine speed."""
        self.setup(self.wl.inputs)
        planned, done = None, 0
        while planned is None or done < planned:
            t0 = time.perf_counter()
            rounds = [self.round(traced=False)] + ([self.round(traced=True)] if trace else [])
            done += 1
            if planned is None:
                spent = (sum(r["wall"] for r in rounds) if None not in rounds
                         else time.perf_counter() - t0)
                planned = max(2, round(seconds / spent))
            left = self.wl.setup_repeats - len(self.setup_times)
            for _ in range(math.ceil(left / (planned - done + 1))):
                self.setup(WORK / "setup")


def summarize(run: Run, setup_s: float, trace: bool) -> dict:
    plain = [r for r in run.rounds if not r["traced"]]
    if trace:
        traced = [r for r in run.rounds if r["traced"]]
        per_round = [layer_metrics(r["stats"]) for r in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(r["wall"] for r in plain))
        wrapped = set().union(*(r["wrapped"] for r in traced))
        absent = sorted(set(NAMED_FNS) - wrapped)
        if absent:
            print(f"absent (reported as 0): {', '.join(absent)}", file=sys.stderr)
        units = LAYER_UNITS
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r["wall"] for r in plain),
            "peak_rss_mb": max(r["rss"] for r in plain),
            "artifact_mb": statistics.median(r["artifact_mb"] for r in plain),
            "range_coverage": statistics.median(r["coverage"] for r in plain),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB",
                 "range_coverage": "ratio"}
    return {
        "correct": not run.check_errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rangesa" / "cli.py").is_file():
        print(f"error: no rangesa sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    fresh(WORK)
    spawner = Spawner()
    try:
        workload = WORKLOADS[args.workload](args.seed)
        run = Run(workload, spawner)
        try:
            run.measure(args.seconds, bool(args.trace))
        except Failure as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        setup_s = statistics.median(run.setup_times)
        rounds = (f"{r['wall']:.4f} s" + (" traced" if r["traced"] else "") for r in run.rounds)
        print("setups: " + ", ".join(f"{t:.4f} s" for t in run.setup_times)
              + "; rounds: " + ", ".join(rounds), file=sys.stderr)
        for message in run.failures:
            print(f"failed: {message}", file=sys.stderr)
        for message in run.check_errors:
            print(f"check: {message}", file=sys.stderr)
        if not any(not r["traced"] for r in run.rounds) or (
                args.trace and not any(r["traced"] for r in run.rounds)):
            print("error: no round completed", file=sys.stderr)
            return 1
        print(json.dumps(summarize(run, setup_s, bool(args.trace))))
        return 0
    finally:
        spawner.close()
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
