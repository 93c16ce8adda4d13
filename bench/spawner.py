"""Start commands from a small process and report their wall time and peak RSS.

    python3 spawner.py        (one JSON request per stdin line)

A child's ``ru_maxrss`` starts from the high-water RSS of the process that
started it, because the kernel carries the old address space's peak across
``exec``.  The benchmark's own process holds the generated clouds, so it
starts children through this process, which stays a few MB in size.

Request: ``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``.
Reply: ``{"code": int, "wall_s": float, "rss_mb": float}``.
"""

import json
import os
import signal
import subprocess
import sys
import time

if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"])
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            wall = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": child.returncode, "wall_s": wall,
                          "rss_mb": usage.ru_maxrss / 1024.0}), flush=True)
