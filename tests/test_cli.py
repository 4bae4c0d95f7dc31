import json

import numpy as np
import pytest

from rangesa import BoxDomain, builtin, sample_dataset
from rangesa.cli import main, parse_domain
from rangesa.resnet import build_resnet


def read(path):
    return path.read_bytes()


class TestParseDomain:
    def test_flag_format(self):
        d = parse_domain("-4,4,-4,4")
        assert d.bounds == ((-4.0, 4.0), (-4.0, 4.0))

    def test_config_format(self):
        d = parse_domain([[-1, 1], [0, 2]])
        assert d.bounds == ((-1.0, 1.0), (0.0, 2.0))

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            parse_domain("-4,4,-4")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_domain("a,b")


class TestGenerateData:
    def test_writes_csv_and_sidecar(self, tmp_path):
        rc = main(["generate-data", "--fn", "ackley", "--domain=-4,4,-4,4",
                   "--m", "50", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        csv = tmp_path / "ackley_data.csv"
        assert csv.exists() and (tmp_path / "ackley_data.meta.json").exists()
        rows = csv.read_text().splitlines()
        assert rows[0] == "x1,x2,target"
        assert len(rows) == 51

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
        assert (tmp_path / "trace_min_seed0.csv").exists()
        assert (tmp_path / "trace_max_seed1.csv").exists()

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

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "fn": "ackley", "n_seeds": 1, "t_min": 0.5, "seed": 4,
            "domain": [[-4, 4], [-4, 4]],
        }))
        rc = main(["estimate-range", "--config", str(cfg), "--n-seeds", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "range_result.json").read_text())
        assert doc["seeds_used"] == [4, 5]  # n_seeds overridden to 2, seed from file

    def test_rerun_byte_identical(self, tmp_path):
        args = ["estimate-range", "--fn", "ackley", "--n-seeds", "1",
                "--seed", "2", "--t-min", "0.2"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("range_result.json", "trace_min_seed2.csv", "trace_max_seed2.csv"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


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
        assert (tmp_path / "trace_reflected_seed9.csv").exists()
        assert (tmp_path / "trace_classical_seed9.csv").exists()


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
    assert "domain dimension 1 != objective dimension 2" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_bad_config_file_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    rc = main(["estimate-range", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "config file" in capsys.readouterr().err


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
    assert f"error: {flag} must be positive" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


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


def test_one_point_per_dim_exits_2(tmp_path, capsys):
    rc = main(["oracle", "--fn", "ackley", "--points-per-dim", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "--points-per-dim must be at least 2" in capsys.readouterr().err


def test_negative_noise_exits_2(tmp_path, capsys):
    rc = main(["generate-data", "--fn", "ackley", "--noise-sd", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "--noise-sd must be finite and >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_evaluate_network_dimension_mismatch_exits_2(tmp_path, capsys, tiny_weights):
    rc = main(["evaluate", "--weights", str(tiny_weights), "--fn", "multimin",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "network input dimension 2 != objective dimension 3" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[1, 2], 3, {"format_version": 1, "layers": [1]}])
def test_non_object_weights_exits_2(tmp_path, capsys, doc):
    bad = tmp_path / "weights.json"
    bad.write_text(json.dumps(doc))
    rc = main(["estimate-range", "--weights", str(bad), "--domain=-1,1,-1,1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
