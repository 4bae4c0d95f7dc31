import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PIPELINE = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"


@pytest.mark.parametrize("name,domain", [
    ("ackley", "-4,4,-4,4"),
    ("dropwave", "-5.12,5.12,-5.12,5.12"),
    ("multimin", "-3,3,-3,3,-3,3"),
])
def test_run_pipeline_commands(monkeypatch, tmp_path, name, domain):
    spec = importlib.util.spec_from_file_location("run_pipeline", RUN_PIPELINE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    monkeypatch.setattr(script, "cli_main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "--preset", name, "--reduced",
                                      "--out", str(tmp_path)])
    assert script.main() == 0
    assert [argv[0] for argv in calls] == ["generate-data", "train", "estimate-range", "oracle"]
    assert [a for argv in calls for a in argv if a.startswith("--domain")] == [
        f"--domain={domain}"] * 2
