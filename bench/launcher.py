"""Start op processes on request, from a process that stays small.

Linux carries a process's resident-set high-water mark across exec, so an
op started by a large process would report that process's size as its own
peak.  The runner starts this launcher before it grows; the launcher then
starts every measured op and keeps nothing but one short report at a time.

Protocol, one JSON object per line: the request on standard input is
``{"argv": [...], "env": {...}, "cwd": "...", "timeout": seconds}``; the reply on
standard output is ``{"spawned_ns": ..., "returncode": ..., "stdout": ..., "stderr": ...}``,
with ``returncode`` null when the op timed out and its process group was killed.
``spawned_ns`` is CLOCK_MONOTONIC, read just before the op process is created.
"""

import json
import os
import signal
import subprocess
import sys
import time


def launch(request: dict) -> dict:
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        request["argv"],
        cwd=request["cwd"],
        env=request["env"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=request["timeout"])
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code = None
    return {"spawned_ns": spawned_ns, "returncode": code, "stdout": out, "stderr": err[-2000:]}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
