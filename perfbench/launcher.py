"""Small process that starts and times the benchmark's child processes.

A child's peak RSS (ru_maxrss) starts from the high-water mark of the process
that spawned it, because Linux records it when the child execs. run.py grows
large while it builds inputs and checks outputs, so it starts this launcher
first, while small, and has it spawn every timed process. Only the standard
library is imported here, to keep the launcher small.

Protocol: one JSON request per stdin line, {"argv", "env", "cwd", "log",
"kill_after"}; one JSON reply per stdout line, {"wall", "code", "maxrss_kb",
"cpu", "exit_wall"}. Children get PERFBENCH_SPAWNED_AT (time.time() at spawn)
in their environment. The launcher exits at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    env = dict(request["env"])
    with open(request["log"], "w", encoding="utf-8") as log:
        env["PERFBENCH_SPAWNED_AT"] = repr(time.time())
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=env, cwd=request["cwd"], stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(request["kill_after"], os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "cpu": usage.ru_utime + usage.ru_stime, "exit_wall": time.time()}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
