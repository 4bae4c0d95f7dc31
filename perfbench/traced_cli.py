"""Run one rangesa CLI command with every public function wrapped by the tracer.

    python3 perfbench/traced_cli.py STATS.json <rangesa command and flags...>

The aggregated spans are written to STATS.json when the command returns,
whatever its exit code; the exit code is passed through.
"""
import json
import sys
from pathlib import Path

from tracer import Recorder


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    from rangesa import cli

    code = 1
    try:
        code = cli.main(argv)
    finally:
        doc = {"wrapped": recorder.names(), "stats": recorder.snapshot()}
        Path(stats_path).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
