"""Start processes for the benchmark and report their peak memory.

    python3 bench/spawner.py

Reads one JSON request per line, ``{"argv": [...], "env": {...}, "cwd": "..."}``,
runs it, and answers with one JSON line: ``elapsed`` (seconds, around the
process), ``returncode`` (null after a 120 s timeout), ``stdout`` and
``children_maxrss_kb``, the largest peak resident set of any process it
has started so far.

Linux starts a child's peak-RSS count from the resident set of the
process that forked it. This interpreter imports nothing but the
standard library, so the count it reports is the polycrit process's own
peak, not the benchmark's, which holds numpy, polycrit and the results.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(request["argv"], capture_output=True, text=True, env=request["env"],
                                  cwd=request["cwd"], timeout=120)
            reply = {"returncode": proc.returncode, "stdout": proc.stdout}
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            reply = {"returncode": None, "stdout": ""}
        reply["elapsed"] = time.perf_counter() - t0
        reply["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
