"""Start the benchmark's commands from a small process, so their peak RSS is their own.

Linux carries a process's resident-memory high-water mark across exec, so a
command forked straight from the benchmark, which holds reference grids in
memory, would report the benchmark's peak as its own. This helper imports
only the standard library. It reads one JSON request per line on stdin,
{"cmd": [...], "log": path, "env": {...}, "timeout": seconds}, runs the
command to completion, and answers with one JSON line:
{"code": exit code, "seconds": wall time, "maxrss_kb": peak RSS}.
"""
import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=subprocess.STDOUT,
                                    env=req["env"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "seconds": seconds, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
