"""One set-up, timed from the caller's start of this process: import phaselearn,
parse the config, build the model.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SPAWN_TIME

SPAWN_TIME is the caller's ``time.monotonic()`` just before it started this
process.  Prints the set-up's seconds at the reference host speed (see
``refclock.py``) and its wall seconds.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refclock import RefClock  # noqa: E402

if __name__ == "__main__":
    spawned = float(sys.argv[3])
    clock = RefClock()
    with clock.running(origin=spawned):
        import workloads

        workloads.set_up(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path("."))
        done = time.monotonic()
    print(repr(clock.scaled(spawned, done)), repr(done - spawned))
