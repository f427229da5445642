"""Set-up probe: a fresh process imports naqc and evaluates one workload's
first state, then exits. ``run.py`` times whole runs of it with ``src/`` on
PYTHONPATH:

    python3 bench/first_state.py <workload> <seed>
"""

import sys

import workloads

if __name__ == "__main__":
    sys.exit(0 if workloads.first_state(sys.argv[1], int(sys.argv[2])) else 1)
