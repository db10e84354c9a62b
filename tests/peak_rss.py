"""python peak_rss.py COMMAND [ARG ...] runs COMMAND, then prints one JSON
line: its exit code and peak RSS in MB (ru_maxrss / 1024; KiB on Linux
only). Linux carries a process's high-water mark over fork and exec, so a
large process that waits for a command itself reads its own peak; this
stdlib-only parent starts the command from a mark of a few MB."""

import json
import os
import subprocess
import sys


def peak_rss(argv: list[str]) -> dict:
    """Spawn argv and read its exit code and peak RSS with os.wait4."""
    proc = subprocess.Popen(argv)
    _, status, usage = os.wait4(proc.pid, 0)
    return {"returncode": os.waitstatus_to_exitcode(status),
            "peak_rss_mb": usage.ru_maxrss / 1024}


if __name__ == "__main__":
    print(json.dumps(peak_rss(sys.argv[1:])))
