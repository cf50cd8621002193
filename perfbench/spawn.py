"""Lean launcher: runs one child at a time and reports the child's own rusage.

On Linux a child's ``ru_maxrss`` (from ``wait4``) also covers the
high-water RSS of the address space it replaced at ``exec`` -- the copy
of, or the vfork-shared, address space of the process that started it.
Children started straight from run.py would therefore inherit the
peak of run.py, which grows while it checks large outputs.  This script
starts them instead; its own RSS (a bare interpreter) stays far below any
child's.

Protocol: one JSON request per line on stdin with ``argv``, ``stdout``,
``stderr`` (file paths), ``env`` and ``cwd``; one JSON reply per line on
stdout with ``seconds`` (spawn to reap), ``exit_code`` and ``maxrss_kb``.
The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=req["env"], cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": elapsed, "exit_code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
