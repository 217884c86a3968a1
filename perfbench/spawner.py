"""Lean helper that starts the benchmark's cold children.

run.py starts this script before it imports joinlab, the workloads or
SciPy, and sends it one JSON request per line:

    first line:  {"env": {...}}          environment of every child
    then:        {"argv": [...]}         full argv, program first

For each request it runs the child to completion and answers with one
JSON line {"code", "stdout", "seconds", "maxrss_kib"}.  It exits when its
stdin closes.

Why a separate process: a child's ``ru_maxrss`` is at least the RSS of
the process that started it (fork copies the parent's high-water mark,
and exec records the old memory map's).  This bare interpreter is far
smaller than any joinlab child, so the maximum read here is the child's
own, not the benchmark's.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 150


def run(argv, env):
    """(exit code, stdout, seconds, ru_maxrss in KiB); the child is killed
    after CHILD_TIMEOUT_S."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    lock, reaped = threading.Lock(), []

    def kill():
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            reaped.append(True)
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    return proc.returncode, out.decode("utf-8", "replace"), seconds, usage.ru_maxrss


def main():
    env = json.loads(sys.stdin.readline())["env"]
    for line in sys.stdin:
        code, out, seconds, rss = run(json.loads(line)["argv"], env)
        reply = {"code": code, "stdout": out, "seconds": seconds, "maxrss_kib": rss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
