import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PIPELINE = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


def _pipeline_calls(monkeypatch, *args):
    """The CLI commands that run_pipeline.py issues for these arguments, none of them run."""
    spec = importlib.util.spec_from_file_location("run_pipeline", RUN_PIPELINE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    monkeypatch.setattr(script, "cli_main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", *args])
    assert script.main() == 0
    return calls


@pytest.mark.parametrize("name,domain", [
    ("ackley", "-4,4,-4,4"),
    ("dropwave", "-5.12,5.12,-5.12,5.12"),
    ("multimin", "-3,3,-3,3,-3,3"),
])
def test_run_pipeline_commands(monkeypatch, tmp_path, name, domain):
    calls = _pipeline_calls(monkeypatch, "--preset", name, "--reduced", "--out", str(tmp_path))
    assert [argv[0] for argv in calls] == ["generate-data", "train", "estimate-range", "oracle"]
    assert [a for argv in calls for a in argv if a.startswith("--domain")] == [
        f"--domain={domain}"] * 2


@pytest.mark.parametrize("name", ["ackley", "dropwave", "multimin"])
def test_full_run_samples_the_preset_default_rows(monkeypatch, tmp_path, name):
    calls = _pipeline_calls(monkeypatch, "--preset", name, "--out", str(tmp_path))
    assert calls[0][0] == "generate-data" and "--m" not in calls[0]
    assert calls[1][calls[1].index("--epochs") + 1] == "1000"
    assert "--width-scale" not in calls[1]
    assert calls[2][0] == "estimate-range" and "--seed" not in calls[2]
