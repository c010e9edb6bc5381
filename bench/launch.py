"""Run one command; report its start, wall time, peak resident set and
exit code as a JSON line after the command's own standard output.

    python3 bench/launch.py CMD [ARGS ...]

Every run the benchmark times goes through this small process.  On
Linux a child's ``ru_maxrss`` also counts the peak resident set of the
process it was started from, because exec records the old address
space's high-water mark.  Spawned straight from the benchmark, which
holds the outputs it checks in memory, a run would report the
benchmark's own peak.  This launcher stays near 10 MB, below any levdyn
run, so the figure ``wait4`` returns is the run's own: the largest
resident set of the command and of every descendant it waited for, pool
workers included.
"""

import json
import os
import subprocess
import sys
import time

start = time.monotonic()
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
wall = time.monotonic() - start
proc.returncode = os.waitstatus_to_exitcode(status)
sys.stdout.flush()
print(json.dumps({"start": start, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "exit": proc.returncode}))
