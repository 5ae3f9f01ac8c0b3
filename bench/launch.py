"""Child-process launcher for the benchmark: times a child and reads its peak RSS.

Linux carries a process's RSS high-water mark across ``exec``, so a child
forked from the benchmark process (which holds numpy and the in-process
runs) would report at least the benchmark's own RSS. This launcher imports
nothing heavy; children forked from it report their own peak.

Protocol: one JSON request per stdin line, ``{"argv", "log", "cwd", "env",
"timeout"}``; one JSON reply per stdout line, ``{"wall_s", "rss_mib",
"code"}``. The child's stdout and stderr go to ``log``; a child still
running after ``timeout`` seconds is killed. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def launch(request: dict) -> dict:
    with open(request["log"], "wb") as sink:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(
            request["argv"],
            stdout=sink,
            stderr=subprocess.STDOUT,
            cwd=request["cwd"],
            env=request["env"],
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_ns = time.perf_counter_ns() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall_ns / 1e9, "rss_mib": usage.ru_maxrss / 1024.0, "code": code}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
