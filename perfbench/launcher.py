"""Spawn the benchmark's children and report each one's resource use.

Linux carries the spawning process's peak resident set size into a child's
`ru_maxrss` across fork and exec. The benchmark process holds corpora and
parsed artifacts, so it does not spawn the measured children itself: it
starts this small process first, before it loads anything, and sends it one
JSON request per line on standard input:

    {"argv": [...], "log": path, "env": {...}, "cwd": path, "timeout": seconds}

For each request it runs the child to completion, with standard output and
standard error in `log`, and answers with one JSON line:

    {"code": exit code or null if killed at the timeout,
     "start": perf_counter at spawn, "end": perf_counter at exit,
     "cpu": user + system seconds, "rss_mb": ru_maxrss in MiB}

`perf_counter` is the system-wide monotonic clock, so the benchmark can
compare these times with its own. It exits when its standard input closes.
"""

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run(request: dict) -> dict:
    with open(request["log"], "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=log, stderr=subprocess.STDOUT, env=request["env"], cwd=request["cwd"]
        )
        signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            return {"code": None, "start": start, "end": time.perf_counter(), "cpu": 0.0, "rss_mb": 0.0}
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "start": start,
        "end": end,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
