"""Set-up probe: what a fresh levdyn process does before its first
compute call.

    PYTHONPATH=src python3 bench/setup_probe.py <workload argv ...>

Imports ``levdyn.cli``, then parses the workload's arguments and loads,
preset-merges and parses its config (``workloads.prepare``).  It prints
the system-wide monotonic clock at that point; the caller subtracts the
moment it spawned the process.
"""

import sys
import time

import levdyn.cli  # noqa: F401  (importing the CLI is part of set-up)
import workloads

workloads.prepare(sys.argv[1:])
print(repr(time.monotonic()))
