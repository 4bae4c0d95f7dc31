import argparse
import csv
import json
import re
import shlex
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from rangesa import (
    AnnealConfig,
    BoxDomain,
    LevelSummary,
    Objective,
    builtin,
    compare_modes,
    estimate_range,
    sample_dataset,
)
from rangesa.anneal import COOLINGS, LEVEL_COLUMNS, MODES
from rangesa.cli import _write_json, build_parser, main, parse_domain
from rangesa.presets import PRESETS
from rangesa.resnet import build_resnet
from support import Trace, run, traced


def read(path):
    return path.read_bytes()


class TestParseDomain:
    def test_flag_format(self):
        d = parse_domain("-4,4,-4,4")
        assert d.bounds == ((-4.0, 4.0), (-4.0, 4.0))

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            parse_domain("-4,4,-4")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_domain("a,b")


class TestGenerateData:
    def test_writes_csv_and_sidecar(self, tmp_path):
        rc = main(["generate-data", "--fn", "ackley", "--domain=-4,4,-3,3",
                   "--m", "50", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        csv = tmp_path / "ackley_data.csv"
        rows = csv.read_text().splitlines()
        assert rows[0] == "x1,x2,target"
        assert len(rows) == 51
        # the sidecar is the command's report: the sampled box and the echoed flags
        assert json.loads((tmp_path / "ackley_data.meta.json").read_text()) == {
            "domain": [[-4.0, 4.0], [-3.0, 3.0]],
            "config": {"domain": "-4,4,-3,3", "fn": "ackley", "m": 50, "seed": 7}}
        main(["generate-data", "--fn", "ackley", "--m", "5", "--out", str(tmp_path / "d")])
        doc = json.loads((tmp_path / "d" / "ackley_data.meta.json").read_text())
        assert doc["domain"] == [[-4.0, 4.0], [-4.0, 4.0]]  # the preset's box

    def test_unknown_fn_exits_2(self, tmp_path, capsys):
        rc = main(["generate-data", "--fn", "foo", "--out", str(tmp_path)])
        assert rc == 2
        assert "builtins are" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        args = ["generate-data", "--fn", "ackley", "--m", "30", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert read(tmp_path / "a" / "ackley_data.csv") == read(tmp_path / "b" / "ackley_data.csv")


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("net") / "weights.json"
    build_resnet([2, 8, 8, 1], seed=3).save(path)
    return path


class TestTrainCommand:
    def test_pipeline(self, tmp_path):
        main(["generate-data", "--fn", "ackley", "--m", "100", "--seed", "1",
              "--out", str(tmp_path)])
        rc = main(["train", "--preset", "ackley", "--data", str(tmp_path / "ackley_data.csv"),
                   "--epochs", "5", "--width-scale", "0.05", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert np.isfinite(report["mae"]) and np.isfinite(report["mse"])
        assert (tmp_path / "weights.json").exists()
        lines = (tmp_path / "loss_history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss" and len(lines) == 6
        # weights file loadable through the evaluate command
        rc = main(["evaluate", "--weights", str(tmp_path / "weights.json"),
                   "--fn", "ackley", "--n", "50", "--out", str(tmp_path / "eval")])
        assert rc == 0

    def test_zero_epochs_exits_2(self, tmp_path):
        main(["generate-data", "--fn", "ackley", "--m", "20", "--seed", "1",
              "--out", str(tmp_path)])
        rc = main(["train", "--preset", "ackley", "--data", str(tmp_path / "ackley_data.csv"),
                   "--epochs", "0", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("sidecar", ["missing", "{not json"])
    def test_dataset_is_its_csv(self, tmp_path, sidecar):
        # train reads only the CSV: a missing or garbled sidecar changes no weight
        main(["generate-data", "--fn", "ackley", "--m", "40", "--seed", "1",
              "--out", str(tmp_path)])
        args = ["train", "--preset", "ackley", "--data", str(tmp_path / "ackley_data.csv"),
                "--epochs", "2", "--width-scale", "0.05", "--batch-size", "10", "--out"]
        assert main(args + [str(tmp_path / "intact")]) == 0
        meta = tmp_path / "ackley_data.meta.json"
        if sidecar == "missing":
            meta.unlink()
        else:
            meta.write_text(sidecar)
        assert main(args + [str(tmp_path / "without")]) == 0
        assert read(tmp_path / "without" / "weights.json") == \
            read(tmp_path / "intact" / "weights.json")

    def test_dimension_mismatch_exits_2(self, tmp_path):
        data = sample_dataset(builtin("multimin"), BoxDomain.cube(-3, 3, 3), 20, 0.0, 1)
        data.save(tmp_path / "d.csv")
        rc = main(["train", "--preset", "ackley", "--data", str(tmp_path / "d.csv"),
                   "--epochs", "1", "--out", str(tmp_path)])
        assert rc == 2


class TestEstimateRange:
    def test_builtin_objective(self, tmp_path):
        rc = main(["estimate-range", "--fn", "dropwave", "--n-seeds", "2",
                   "--seed", "0", "--t-min", "0.05", "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "range_result.json").read_text())
        assert doc["interval_type"] == "inner"
        assert doc["f_min"] <= doc["f_max"]
        assert sorted(read_levels(tmp_path / "levels.csv")) == \
            [("max", 0), ("max", 1), ("min", 0), ("min", 1)]

    def test_weights_objective_requires_domain(self, tmp_path, tiny_weights):
        rc = main(["estimate-range", "--weights", str(tiny_weights), "--out", str(tmp_path)])
        assert rc == 2

    def test_weights_objective(self, tmp_path, tiny_weights):
        rc = main(["estimate-range", "--weights", str(tiny_weights),
                   "--domain=-1,1,-1,1", "--n-seeds", "1", "--t-min", "0.1",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_malformed_weights_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["estimate-range", "--weights", str(bad), "--domain=-1,1",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_rerun_byte_identical(self, tmp_path):
        args = ["estimate-range", "--fn", "ackley", "--n-seeds", "1",
                "--seed", "2", "--t-min", "0.2"]
        cfg = AnnealConfig(t_min=0.2)
        records = []
        for sub in ("a", "b"):
            main(args + ["--out", str(tmp_path / sub)])
            # the records of estimate_range's batch: the seed on f, then on -f
            records.append(traced(builtin("ackley"), BoxDomain.cube(-4, 4, 2), cfg, [2, 2],
                                  [1, -1]))
        for name in ("range_result.json", "levels.csv"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)
        for (_, a), (_, b) in zip(*records):
            for field in fields(Trace):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field


class TestOracle:
    def test_multimin_grid(self, tmp_path):
        rc = main(["oracle", "--fn", "multimin", "--points-per-dim", "61",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "oracle.json").read_text())
        assert doc["min_value"] == pytest.approx(0.0, abs=1e-12)
        assert doc["n_points"] == 61**3

    def test_budget_exceeded_exits_2(self, tmp_path):
        rc = main(["oracle", "--fn", "multimin", "--points-per-dim", "1000",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_json_schema_roundtrip(self, tmp_path):
        main(["oracle", "--fn", "ackley", "--points-per-dim", "11", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "oracle.json").read_text())
        assert set(doc) >= {"min_value", "min_point", "max_value", "max_point", "n_points"}


class TestCompare:
    def test_summary_and_traces(self, tmp_path):
        rc = main(["compare", "--fn", "ackley", "--n-seeds", "2", "--seed", "0",
                   "--variance", "4.0", "--t-min", "0.05", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "compare_summary.csv").read_text().splitlines()
        assert lines[0] == "seed,mode,best_value,iters_to_best,max_excursion"
        assert len(lines) == 5  # header + 2 modes x 2 seeds
        doc = json.loads((tmp_path / "compare_summary.json").read_text())
        by_mode = {}
        for row in doc["rows"]:
            by_mode.setdefault(row["mode"], []).append(row)
        assert all(r["max_excursion"] == 0.0 for r in by_mode["reflected"])
        assert any(r["max_excursion"] > 0.0 for r in by_mode["classical"])

    def test_shared_seed_pairs_traces(self, tmp_path):
        main(["compare", "--fn", "ackley", "--n-seeds", "1", "--seed", "9",
              "--t-min", "1.0", "--out", str(tmp_path)])
        assert sorted(read_levels(tmp_path / "levels.csv")) == [("classical", 9), ("reflected", 9)]
        cfg = AnnealConfig(t_min=1.0)
        runs = compare_modes(builtin("ackley"), BoxDomain.cube(-4, 4, 2), cfg, n_seeds=1, seed=9)
        assert [(r.mode, r.seed) for r in runs] == [("reflected", 9), ("classical", 9)]
        records = traced(builtin("ackley"), BoxDomain.cube(-4, 4, 2), cfg, [9, 9], modes=MODES)
        assert all(len(trace) > 0 for _, trace in records)


def read_levels(path):
    """levels.csv as {(kind, seed): {column: array over levels}}."""
    with path.open() as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == LEVEL_COLUMNS
        rows = list(reader)
    chains = {}
    for row in rows:
        chain = chains.setdefault((row["kind"], int(row["seed"])), {c: [] for c in LEVEL_COLUMNS})
        for c in LEVEL_COLUMNS:
            chain[c].append(row[c])
    return {key: {c: np.array(v, dtype=object if c == "kind" else float) for c, v in cols.items()}
            for key, cols in chains.items()}


class TestLevels:
    """levels.csv: one row per chain per temperature level, reduced from the chains' steps."""

    dom = BoxDomain.cube(-4, 4, 2)
    cfg = AnnealConfig(t_min=0.5)
    args = ["--fn", "ackley", "--n-seeds", "2", "--seed", "3", "--t-min", "0.5"]

    def per_level(self, a):
        return np.asarray(a).reshape(-1, self.cfg.inner_iters)

    def test_estimate_range_rows_match_single_runs(self, tmp_path):
        assert main(["estimate-range", *self.args, "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["levels.csv", "range_result.json"]
        chains = read_levels(tmp_path / "levels.csv")
        n_levels = len(self.cfg.temperature_levels())
        assert len((tmp_path / "levels.csv").read_text().splitlines()) == 1 + 4 * n_levels
        assert sorted(chains) == [("max", 3), ("max", 4), ("min", 3), ("min", 4)]
        f = builtin("ackley")
        for (kind, seed), got in chains.items():
            sign = 1.0 if kind == "min" else -1.0
            g = f if kind == "min" else Objective(lambda X: -f.evaluate_many(X), 2)
            _, trace = run(g, self.dom, self.cfg, seed)
            assert np.array_equal(got["level"], np.arange(n_levels))
            assert np.array_equal(got["temperature"], self.cfg.temperature_levels())
            assert np.array_equal(got["acceptance_rate"],
                                  self.per_level(trace.accepted).sum(axis=1) / self.cfg.inner_iters)
            assert np.array_equal(got["left_box"], self.per_level(trace.left_box).sum(axis=1))
            assert np.array_equal(got["best_value"],
                                  sign * self.per_level(trace.best_values)[:, -1])
            assert np.array_equal(got["mean_value"],
                                  self.per_level(sign * trace.values).mean(axis=1))

    def test_max_rows_are_negated_back(self, tmp_path):
        assert main(["estimate-range", *self.args, "--out", str(tmp_path)]) == 0
        chains = read_levels(tmp_path / "levels.csv")
        doc = json.loads((tmp_path / "range_result.json").read_text())
        for kind, best in (("min", min), ("max", max)):
            finals = [chains[(kind, seed)]["best_value"][-1] for seed in (3, 4)]
            assert doc["seed_agreement"][kind]["best_values"] == finals
            assert best(finals) == doc[f"f_{kind}"]
            spread = max(finals) - min(finals)
            assert doc["seed_agreement"][kind]["spread"] == spread
            assert doc["seed_agreement"][kind]["spread_share_of_range"] == \
                spread / (doc["f_max"] - doc["f_min"])
        for seed in (3, 4):
            top = chains[("max", seed)]
            # a running maximum of f, above every level's mean value of f
            assert np.all(np.diff(top["best_value"]) >= 0) and top["best_value"][-1] > 0
            assert np.all(top["mean_value"] <= top["best_value"])
            assert np.all(np.diff(chains[("min", seed)]["best_value"]) <= 0)

    def test_left_box_zero_on_a_box_larger_than_every_proposal(self, tmp_path):
        # steps of sd 0.01 from anywhere in [-100, 100]^2 come near no face of [-1e6, 1e6]^2
        assert main(["compare", *self.args, "--domain=-1e6,1e6,-1e6,1e6", "--variance", "1e-4",
                     "--out", str(tmp_path / "big")]) == 0
        chains = read_levels(tmp_path / "big" / "levels.csv")
        assert sorted(chains) == [(mode, seed) for mode in sorted(MODES) for seed in (3, 4)]
        assert all(not c["left_box"].any() for c in chains.values())

    def test_compare_left_box_counts_proposals_outside(self, tmp_path):
        assert main(["compare", *self.args, "--variance", "4.0", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["compare_summary.csv", "compare_summary.json", "levels.csv"]
        chains = read_levels(tmp_path / "levels.csv")
        n_levels = len(self.cfg.temperature_levels())
        assert all(len(c["level"]) == n_levels for c in chains.values()) and len(chains) == 4
        for (mode, seed), got in chains.items():
            _, trace = run(builtin("ackley"), self.dom, replace(self.cfg, proposal_variance=4.0),
                           seed, mode)
            assert np.array_equal(got["left_box"], self.per_level(trace.left_box).sum(axis=1))
            assert got["left_box"].sum() > 0
            if mode == "classical":  # an accepted move to a point outside was such a proposal
                outside = ~self.dom.contains(trace.points)
                assert np.all(trace.left_box[trace.accepted & outside])
                assert (trace.accepted & outside).any()

    def test_writer_matches_a_line_by_line_reference(self, tmp_path):
        # per run, per level: its kind, seed, level and temperature, then its statistics,
        # each value as Python's str of it, as levels.csv has always been written
        def reference(labelled):
            lines = [",".join(LEVEL_COLUMNS)]
            for kind, r in labelled:
                stats = [getattr(r.levels, f.name).tolist() for f in fields(LevelSummary)]
                for i, t in enumerate(r.config.temperature_levels()):
                    lines.append(",".join(map(str, [kind, r.seed, i, t,
                                                    *(column[i] for column in stats)])))
            return "".join(line + "\n" for line in lines)

        assert main(["compare", *self.args, "--out", str(tmp_path / "compare")]) == 0
        runs = compare_modes(builtin("ackley"), self.dom, self.cfg, n_seeds=2, seed=3)
        assert {r.mode for r in runs} == set(MODES)
        assert (tmp_path / "compare" / "levels.csv").read_text() == \
            reference((r.mode, r) for r in runs)
        assert main(["estimate-range", *self.args, "--out", str(tmp_path / "range")]) == 0
        res = estimate_range(builtin("ackley"), self.dom, self.cfg, n_seeds=2, seed=3)
        assert (tmp_path / "range" / "levels.csv").read_text() == \
            reference((kind, r) for kind in ("min", "max") for r in res.runs[kind])


@pytest.mark.parametrize("command", ["oracle", "train"])
def test_artifacts_independent_of_input_directory(tmp_path, command):
    data = sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 40, 0.1, 1)
    net = build_resnet([2, 8, 8, 1], seed=3)
    for where in ("a", "somewhere/much/deeper/b"):
        inputs = tmp_path / where
        inputs.mkdir(parents=True)
        data.save(inputs / "ackley_data.csv")
        net.save(inputs / "weights.json")
        argv = (["oracle", "--weights", str(inputs / "weights.json"), "--domain=-1,1,-1,1",
                 "--points-per-dim", "11"] if command == "oracle" else
                ["train", "--preset", "ackley", "--data", str(inputs / "ackley_data.csv"),
                 "--epochs", "2", "--width-scale", "0.05", "--seed", "1"])
        assert main(argv + ["--out", str(inputs / "out")]) == 0
    name = "oracle.json" if command == "oracle" else "fit_report.json"
    doc = json.loads(read(tmp_path / "a" / "out" / name))
    assert doc["config"].get("weights", doc["config"].get("data")) in ("weights.json",
                                                                        "ackley_data.csv")
    assert read(tmp_path / "a" / "out" / name) == \
        read(tmp_path / "somewhere" / "much" / "deeper" / "b" / "out" / name)


def test_missing_required_option_exits_2(tmp_path):
    assert main(["oracle", "--fn", "ackley", "--out", str(tmp_path)]) == 2


def test_both_fn_and_weights_rejected(tmp_path, tiny_weights):
    rc = main(["estimate-range", "--fn", "ackley", "--weights", str(tiny_weights),
               "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [["estimate-range"], ["oracle", "--points-per-dim", "5"], ["compare"], ["generate-data"]],
)
def test_domain_dimension_mismatch_exits_2(tmp_path, capsys, argv):
    rc = main(argv + ["--fn", "ackley", "--domain=-1,1", "--out", str(tmp_path)])
    assert rc == 2
    assert "the objective has dimension 2, the domain 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["estimate-range", "--n-seeds", "1"], ["oracle", "--points-per-dim", "3"]]
)
def test_overflowing_box_exits_2(tmp_path, capsys, argv):
    rc = main(argv + ["--fn", "ackley", "--domain=-1e308,1e308,-1e308,1e308",
                      "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "too wide" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


ESTIMATE = ["estimate-range", "--fn", "ackley"]


@pytest.mark.parametrize("argv, message", [
    # the parser's own errors
    ([*ESTIMATE, "--n-seeds", "abc"], "argument --n-seeds: invalid int value: 'abc'"),
    ([*ESTIMATE, "--n-seeds", "2.5"], "argument --n-seeds: invalid int value: '2.5'"),
    ([*ESTIMATE, "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ([*ESTIMATE, "--delta", "0.9x"], "argument --delta: invalid float value: '0.9x'"),
    ([*ESTIMATE, "--cooling", "sideways"], "argument --cooling: invalid choice: 'sideways'"),
    ([*ESTIMATE, "--config", "x.json"], "unrecognized arguments: --config x.json"),
    ([*ESTIMATE, "--mode", "classical"], "unrecognized arguments: --mode classical"),
    ([*ESTIMATE, "--tmin", "5"], "unrecognized arguments: --tmin 5"),
    (["oracle", "--fn", "ackley"], "the following arguments are required: --points-per-dim"),
    (["train", "--preset", "ackley"], "the following arguments are required: --data"),
    (["sideways"], "argument command: invalid choice: 'sideways'"),
    # domain strings, and the library's check of the box they give
    ([*ESTIMATE, "--domain=5"], "domain needs an even number of values: l1,u1,...,ld,ud"),
    ([*ESTIMATE, "--domain=1,a"], "cannot parse domain '1,a'"),
    ([*ESTIMATE, "--domain=1,0,0,1"], "dimension 0: need lower < upper, got [1.0, 0.0]"),
])
def test_parse_error_exits_2(tmp_path, capsys, argv, message):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-range", "--help"])
    assert exc.value.code == 0
    assert "--n-seeds" in capsys.readouterr().out


@pytest.mark.parametrize("case, message", [
    ("batch", "batch_size 500 exceeds the dataset's 100 rows"),
    ("cell", "malformed dataset"),
    ("no_rows", "malformed dataset"),
    # numpy reads an integer too large for a float as inf, which train refuses
    ("cell_too_large", "training data must be finite and within float32's range"),
])
def test_bad_dataset_exits_2(tmp_path, capsys, case, message):
    data = tmp_path / "ackley_data.csv"
    sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 100, 0.0, 1).save(data)
    if case == "cell":
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:5] + ["0.5,abc,1.0"] + lines[6:]) + "\n")
    elif case == "no_rows":
        data.write_text(data.read_text().splitlines()[0] + "\n")
    elif case == "cell_too_large":
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:5] + [f"0.5,{10**400},1.0"] + lines[6:]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--preset", "ackley", "--data", str(data), "--epochs", "1",
                   "--batch-size", "500" if case == "batch" else "10",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["1e300", "nan"])
def test_training_data_beyond_float32_exits_2(tmp_path, capsys, target):
    data = sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 20, 0.0, 1)
    data.targets[3] = float(target)
    data.save(tmp_path / "ackley_data.csv")
    rc = main(["train", "--preset", "ackley", "--data", str(tmp_path / "ackley_data.csv"),
               "--epochs", "1", "--width-scale", "0.05", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: training data must be finite and within float32's range")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "weights.json").exists()


def _subcommands():
    """Command name -> its subparser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _choices(command, dest):
    return next(a.choices for a in _subcommands()[command]._actions if a.dest == dest)


def test_flag_choices_come_from_the_library():
    for command in ("estimate-range", "compare"):
        assert list(_choices(command, "cooling")) == list(COOLINGS)
    assert list(_choices("train", "preset")) == sorted(PRESETS)


# Per command, a tiny run, and per option a value that differs from the run's. Exempt are
# --out and the inputs that choose the objective or the data.
NO_EFFECT_NEEDED = {"help", "out", "fn", "weights", "preset", "data"}
TINY_ANNEAL = ["--fn", "ackley", "--n-seeds", "1", "--t-min", "1", "--inner-iters", "5"]
TINY_RUNS = {
    "generate-data": ["--fn", "ackley", "--m", "20"],
    "train": ["--preset", "ackley", "--data", "DATA", "--epochs", "2", "--width-scale", "0.05",
              "--batch-size", "10"],
    "evaluate": ["--weights", "WEIGHTS", "--fn", "ackley", "--n", "20"],
    "estimate-range": TINY_ANNEAL,
    "oracle": ["--fn", "ackley", "--points-per-dim", "5"],
    "compare": TINY_ANNEAL,
}
ANNEAL_VALUES = {"seed": "1", "t_max": "5", "t_min": "2", "delta": "0.9", "inner_iters": "6",
                 "proposal_variance": "0.5", "cooling": "algorithm1", "n_seeds": "2",
                 "domain": "-1,1,-1,1"}
OPTION_VALUES = {
    "generate-data": {"seed": "1", "domain": "-1,1,-1,1", "m": "21", "noise_sd": "0.5"},
    "train": {"seed": "1", "epochs": "3", "learning_rate": "0.01", "batch_size": "20",
              "width_scale": "0.1"},
    "evaluate": {"seed": "1", "domain": "-1,1,-1,1", "n": "21"},
    "estimate-range": ANNEAL_VALUES,
    "oracle": {"domain": "-1,1,-1,1", "points_per_dim": "6"},
    "compare": ANNEAL_VALUES,
}


def _results(out):
    """Each file a command wrote, a JSON report without its echoed config."""
    docs = {}
    for path in sorted(out.iterdir()):
        if path.suffix != ".json":
            docs[path.name] = read(path)
        else:
            docs[path.name] = {k: v for k, v in json.loads(path.read_text()).items()
                               if k != "config"}
    return docs


@pytest.mark.parametrize("command", list(_subcommands()))
def test_every_option_changes_a_result(tmp_path, tiny_weights, command):
    data = tmp_path / "ackley_data.csv"
    sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 40, 0.1, 1).save(data)
    base = [command] + [{"WEIGHTS": str(tiny_weights), "DATA": str(data)}.get(a, a)
                        for a in TINY_RUNS[command]]
    assert main(base + ["--out", str(tmp_path / "base")]) == 0
    before = _results(tmp_path / "base")
    options = [a for a in _subcommands()[command]._actions if a.dest not in NO_EFFECT_NEEDED]
    for action in options:
        flag = action.option_strings[0]
        assert action.dest in OPTION_VALUES[command], f"{command} {flag}: no value to try"
        out = tmp_path / action.dest
        assert main(base + [f"{flag}={OPTION_VALUES[command][action.dest]}",
                            "--out", str(out)]) == 0
        assert _results(out) != before, f"{command} {flag} changes no result"


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```\w*\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("rangesa ")]
    assert len(lines) >= 7
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except (SystemExit, ValueError):
            pytest.fail(f"README command does not parse: {line}")


def test_infinite_temperature_exits_2(tmp_path, capsys):
    rc = main(["estimate-range", "--fn", "ackley", "--t-max", "inf", "--out", str(tmp_path)])
    assert rc == 2
    assert "t_max" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["generate-data", "--fn", "ackley", "--m", "0"], "--m"),
        (["estimate-range", "--fn", "ackley", "--n-seeds", "0"], "--n-seeds"),
        (["compare", "--fn", "ackley", "--n-seeds", "0"], "--n-seeds"),
        (["evaluate", "--weights", "WEIGHTS", "--fn", "ackley", "--n", "0"], "--n"),
        (["train", "--preset", "ackley", "--data", "DATA", "--width-scale", "0"], "--width-scale"),
    ],
)
def test_zero_valued_flag_exits_2(tmp_path, capsys, tiny_weights, argv, flag):
    data = tmp_path / "ackley_data.csv"
    sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 20, 0.0, 1).save(data)
    argv = [{"WEIGHTS": str(tiny_weights), "DATA": str(data)}.get(a, a) for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    name = flag[2:].replace("-", "_")  # the library names the argument, not the flag
    message = (f"{name} must be positive and finite, got 0.0" if name == "width_scale"
               else f"{name} must be an integer of at least 1, got 0")
    assert f"error: {message}" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate-data", "--fn", "ackley", "--m", "100000000000"],
         "m = 100000000000 points exceed the budget of 1000000"),
        (["train", "--preset", "ackley", "--data", "DATA", "--epochs", "1000000000"],
         "20 rows x 1000000000 epochs exceed the budget of 10000000 row passes"),
        (["evaluate", "--weights", "WEIGHTS", "--fn", "ackley", "--n", "10000000000"],
         "n = 10000000000 points exceed the budget of 1000000"),
        # 10^7 row passes, within their budget, in as many full-batch steps
        (["train", "--preset", "ackley", "--data", "DATA", "--epochs", "500000"],
         "1 batches x 500000 epochs exceed the budget of 100000 steps"),
        (["oracle", "--fn", "ackley", "--points-per-dim", "100000"],
         "100000^2 = 10000000000 grid points exceed the budget of 100000000 points"),
        (["estimate-range", "--fn", "ackley", "--n-seeds", "100000"],
         "200000 chains of up to 181 temperature levels x 100 steps exceed the budget of "
         "10000000 chain steps"),
    ],
)
def test_over_budget_exits_2(tmp_path, capsys, tiny_weights, argv, message):
    data = tmp_path / "ackley_data.csv"
    sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 20, 0.0, 1).save(data)
    argv = [{"WEIGHTS": str(tiny_weights), "DATA": str(data)}.get(a, a) for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith(f"error: {message}") and err.count("\n") == 1
    assert re.fullmatch(r"error: .+ exceed the budget of \d+ [a-z ]+; lower .+\n", err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--learning-rate", "nan", "learning_rate must be positive and finite, got nan"),
        ("--learning-rate", "inf", "learning_rate must be positive and finite, got inf"),
        ("--width-scale", "inf", "width_scale must be positive and finite, got inf"),
    ],
)
def test_non_finite_training_flag_exits_2(tmp_path, capsys, flag, value, message):
    data = tmp_path / "ackley_data.csv"
    sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 20, 0.0, 1).save(data)
    rc = main(["train", "--preset", "ackley", "--data", str(data), "--epochs", "1",
               flag, value, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["estimate-range", "compare"])
@pytest.mark.parametrize("cooling", ["theorem", "algorithm1"])
def test_annealing_over_budget_exits_2(tmp_path, capsys, command, cooling):
    # about 10^13 (theorem) or 4 x 10^6 (algorithm1) levels: refused before the first step
    rc = main([command, "--fn", "ackley", "--delta", "0.999999999999", "--cooling", cooling,
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exceed the budget" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate-data", "--fn", "ackley", "--seed", "-1"], "seed must be an integer"),
        (["train", "--preset", "ackley", "--data", "DATA", "--seed", "-1"],
         "seed must be an integer"),
        (["evaluate", "--weights", "WEIGHTS", "--fn", "ackley", "--seed", "-1"],
         "seed must be an integer"),
        (["estimate-range", "--fn", "ackley", "--domain=-1e160,1e160,-1e160,1e160"],
         "the default proposal_variance"),
        (["compare", "--fn", "ackley", "--domain=-1e160,1e160,-1e160,1e160"],
         "the default proposal_variance"),
        (["estimate-range", "--fn", "ackley", "--n-seeds", "100000000"], "lower n_seeds"),
        (["compare", "--fn", "ackley", "--n-seeds", "100000000"], "lower n_seeds"),
    ],
)
def test_library_refusal_exits_2(tmp_path, capsys, tiny_weights, argv, message):
    data = tmp_path / "ackley_data.csv"
    sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 20, 0.0, 1).save(data)
    argv = [{"WEIGHTS": str(tiny_weights), "DATA": str(data)}.get(a, a) for a in argv]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["weights_dir", "data_dir", "out_file", "out_under_file"])
def test_bad_path_exits_2(tmp_path, capsys, monkeypatch, case):
    # an input path that is a directory, or an --out that names a file or lies under one;
    # --out is refused by the parser, before any work: the commands' work raises here
    def work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr("rangesa.cli.grid_oracle", work)
    monkeypatch.setattr("rangesa.cli.train", work)
    (tmp_path / "file").write_text("")
    out = {"out_file": tmp_path / "file", "out_under_file": tmp_path / "file" / "sub"}.get(
        case, tmp_path / "out")
    argv = (["train", "--preset", "ackley", "--data", str(tmp_path)] if case == "data_dir" else
            ["oracle", "--weights" if case == "weights_dir" else "--fn",
             str(tmp_path) if case == "weights_dir" else "ackley", "--domain=-1,1,-1,1",
             "--points-per-dim", "3"])
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and err.count("\n") == 1
    if case.endswith("_dir"):
        assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path) in err
        assert not out.exists()
    else:
        assert err == f"error: argument --out: {tmp_path / 'file'} is not a directory\n"
        assert (tmp_path / "file").read_text() == ""


def test_non_finite_report_values_are_null(tmp_path):
    # every output of this network overflows on the box, so every chain's best value is NaN;
    # a report holds it as null, and every report parses as strict JSON
    net = build_resnet([2, 4, 4, 1])
    for lyr in net.layers:
        lyr.weights[:] = 1e300
    net.save(tmp_path / "weights.json")
    assert main(["compare", "--weights", str(tmp_path / "weights.json"), "--domain=1,2,1,2",
                 "--n-seeds", "1", "--t-min", "5", "--out", str(tmp_path / "out")]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads((tmp_path / "out" / "compare_summary.json").read_text(),
                     parse_constant=refuse)
    assert [row["best_value"] for row in doc["rows"]] == [None, None]
    _write_json(tmp_path / "report.json", {"x": np.array([1.5, np.nan, np.inf])},
                y=[-np.inf, (np.float64(np.nan),)], z=BoxDomain.cube(-1, 1, 1))
    assert json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse) == \
        {"x": [1.5, None, None], "y": [None, [None]], "z": [[-1.0, 1.0]]}


def test_diverging_training_prints_one_line(tmp_path, capsys):
    data = tmp_path / "ackley_data.csv"
    sample_dataset(builtin("ackley"), BoxDomain.cube(-4, 4, 2), 20, 0.1, 1).save(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--preset", "ackley", "--data", str(data), "--epochs", "50",
                   "--width-scale", "0.05", "--learning-rate", "1e30",
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite value at layer 2\n"
    assert [str(w.message) for w in caught] == []  # numpy's overflow warnings are silenced


def test_one_point_per_dim_exits_2(tmp_path, capsys):
    rc = main(["oracle", "--fn", "ackley", "--points-per-dim", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "points_per_dim must be an integer of at least 2, got 1" in capsys.readouterr().err


def test_negative_noise_exits_2(tmp_path, capsys):
    rc = main(["generate-data", "--fn", "ackley", "--noise-sd", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "noise_sd must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_evaluate_network_dimension_mismatch_exits_2(tmp_path, capsys, tiny_weights):
    rc = main(["evaluate", "--weights", str(tiny_weights), "--fn", "multimin",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "network input dimension 2 != objective dimension 3" in capsys.readouterr().err


def _malformed(doc, case):
    layer = doc["layers"][1]
    if case == "string_weight":
        layer["weights"][3] = "abc"
    elif case == "short_bias":
        layer["bias"] = layer["bias"][:-1]
    elif case == "missing_weights":
        del layer["weights"]
    elif case == "weights_object":
        layer["weights"] = {"a": 1}
    elif case == "nested_bias":
        layer["bias"] = [[b] for b in layer["bias"]]
    elif case == "null_weight":
        layer["weights"][0] = None
    elif case == "numeric_string_weight":
        layer["weights"][2] = "0.5"
    elif case == "fractional_width":
        layer["in_width"] = 8.7
    elif case == "float_width":
        layer["out_width"] = 8.0
    elif case == "string_flag":
        layer["has_skip"] = "false"
    elif case == "numeric_flag":
        layer["has_activation"] = 1
    elif case == "input_dim":
        doc["input_dim"] = 3
    elif case == "tanh":
        doc["activation"] = "tanh"
    elif case == "int_too_large":
        layer["weights"][1] = 10**400


@pytest.mark.parametrize("case, message", [
    ("string_weight", "weight file {path}: layer 1: field 'weights' must be a list of numbers, "
                      "without null or strings"),
    ("short_bias", "layer 1: field 'bias' has 7 numbers, expected 8"),
    ("missing_weights", "weight file missing field 'weights'"),
    ("weights_object", "weight file {path}: layer 1: field 'weights' must be a list of numbers, "
                       "without null or strings"),
    ("nested_bias", "weights must be (out, in) with matching bias"),
    ("null_weight", "weight file {path}: layer 1: field 'weights' must be a list of numbers, "
                    "without null or strings"),
    ("numeric_string_weight", "weight file {path}: layer 1: field 'weights' must be a list of "
                              "numbers, without null or strings"),
    ("fractional_width", "weight file {path}: layer 1: field 'in_width' must be an integer of "
                         "at least 1, got 8.7"),
    ("float_width", "weight file {path}: layer 1: field 'out_width' must be an integer of "
                    "at least 1, got 8.0"),
    ("string_flag", "weight file {path}: layer 1: field 'has_skip' must be true or false, "
                    "got 'false'"),
    ("numeric_flag", "weight file {path}: layer 1: field 'has_activation' must be true or "
                     "false, got 1"),
    ("input_dim", "weight file {path}: field 'input_dim' is 3, but layer 0 has in_width 2"),
    ("tanh", "weight file {path}: field 'activation' is 'tanh', but only 'relu' is supported"),
    ("int_too_large", "malformed weight file {path}: int too large to convert to float"),
])
def test_malformed_weight_values_exit_2(tmp_path, capsys, tiny_weights, case, message):
    doc = json.loads(tiny_weights.read_text())
    _malformed(doc, case)
    bad = tmp_path / "weights.json"
    bad.write_text(json.dumps(doc))
    rc = main(["oracle", "--weights", str(bad), "--domain=-1,1,-1,1", "--points-per-dim", "3",
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {message.format(path=bad)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [[1, 2], 3, {"format_version": 1, "layers": [1]}])
def test_non_object_weights_exits_2(tmp_path, capsys, doc):
    bad = tmp_path / "weights.json"
    bad.write_text(json.dumps(doc))
    rc = main(["estimate-range", "--weights", str(bad), "--domain=-1,1,-1,1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_evaluate_domain_dimension_mismatch_exits_2(tmp_path, capsys, tiny_weights):
    rc = main(["evaluate", "--weights", str(tiny_weights), "--fn", "ackley", "--domain=-1,1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: the objective has dimension 2, the domain 1\n"
    assert not (tmp_path / "out").exists()


class TestReports:
    """Every report's exact keys, so that a new result field cannot leak into one unseen."""

    AGREEMENT_KEYS = {"best_values", "spread", "spread_share_of_range"}

    def estimate(self, tmp_path, argv):
        assert main(["estimate-range", *argv, "--n-seeds", "2", "--t-min", "1.0",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "range_result.json").read_text())
        assert set(doc) == {"config", "eval_count", "f_max", "f_min", "interval_type",
                            "seed_agreement", "seeds_used", "x_max", "x_min"}
        assert {kind: set(v) for kind, v in doc["seed_agreement"].items()} == \
            {"min": self.AGREEMENT_KEYS, "max": self.AGREEMENT_KEYS}
        return doc["config"]

    def test_range_result_names_the_builtin_and_the_preset_box(self, tmp_path):
        assert self.estimate(tmp_path, ["--fn", "ackley"]) == {
            **asdict(AnnealConfig(t_min=1.0)), "seed": 0, "n_seeds": 2, "fn": "ackley",
            "domain": [[-4.0, 4.0], [-4.0, 4.0]]}

    def test_range_result_names_the_weights_file_and_the_given_box(self, tmp_path, tiny_weights):
        assert self.estimate(tmp_path, ["--weights", str(tiny_weights), "--domain=-1,1,-3,2"]) == {
            **asdict(AnnealConfig(t_min=1.0)), "seed": 0, "n_seeds": 2, "weights": "weights.json",
            "domain": [[-1.0, 1.0], [-3.0, 2.0]]}

    def test_oracle_keys(self, tmp_path):
        assert main(["oracle", "--fn", "ackley", "--points-per-dim", "5",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "oracle.json").read_text())
        assert set(doc) == {"config", "max_point", "max_value", "min_point", "min_value",
                            "n_points"}

    def test_fit_report_keys_of_train_and_evaluate(self, tmp_path):
        assert main(["generate-data", "--fn", "ackley", "--m", "40", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        assert main(["train", "--preset", "ackley", "--data", str(tmp_path / "ackley_data.csv"),
                     "--epochs", "2", "--width-scale", "0.05", "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--weights", str(tmp_path / "weights.json"), "--fn", "ackley",
                     "--n", "50", "--out", str(tmp_path / "eval")]) == 0
        for out in (tmp_path, tmp_path / "eval"):  # both on the preset's eval domain
            doc = json.loads((out / "fit_report.json").read_text())
            assert set(doc) == {"config", "eval_domain", "eval_seed", "mae", "mse",
                                "n_eval_points"}
            assert doc["eval_domain"] == [[-5.0, 5.0], [-5.0, 5.0]]

    def test_compare_summary_keys(self, tmp_path):
        assert main(["compare", "--fn", "ackley", "--n-seeds", "1", "--t-min", "1.0",
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "compare_summary.json").read_text())
        assert set(doc) == {"config", "rows"}
        assert [set(row) for row in doc["rows"]] == \
            [{"seed", "mode", "best_value", "iters_to_best", "max_excursion"}] * len(MODES)

    @pytest.mark.parametrize("value", [{"x": {1, 2}}, {"x": np.float32(1.0)}, object()])
    def test_writer_refuses_an_unknown_type(self, tmp_path, value):
        with pytest.raises(TypeError, match="cannot write a (set|float32|object) to a report"):
            _write_json(tmp_path / "report.json", value)
