"""Child-process launcher for the benchmark's CLI invocations.

On Linux a child's ru_maxrss includes the peak RSS of the process that
spawned it, because the peak is carried across exec. The benchmark process
grows while it generates inputs, so it starts this launcher first, while it
is still small, and spawns every measured CLI child through it.

Protocol: one JSON request per stdin line, {"argv": [...], "stdout": path,
"stderr": path}; one JSON reply per stdout line, {"code": exit code,
"maxrss_kb": the child's ru_maxrss}. The launcher exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def child_env(src) -> dict:
    """This environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
