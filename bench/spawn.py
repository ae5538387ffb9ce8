"""Start the benchmark's timed commands and report their wall time, exit code and peak RSS.

Linux charges a child's ru_maxrss with the memory of the process it was
forked from, so the benchmark, whose memory grows with the inputs and
outputs it handles, starts the timed commands through this small process.

Protocol: one JSON request per line on stdin, {"argv", "stderr", "timeout"};
one JSON reply per line on stdout, {"wall_s", "exit", "maxrss_kb"}.  The
commands inherit this process's working directory and environment.  The
process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "exit": code, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
