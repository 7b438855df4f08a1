"""Run one command; print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 -I bench/spawn.py <program> <args...>

The benchmark starts every CLI command through this small process
rather than directly. On Linux a child's ru_maxrss includes the peak RSS
of the process that spawned it, and the benchmark process holds parsed
output files; this process stays small, so the figure is the command's
own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
