"""Part of a benchmark run in a fresh interpreter.

    worker.py round WORKLOAD SEED SECONDS TRACE   one round of a run of SECONDS; prints one JSON line
    worker.py setup WORKLOAD SEED                 the set-up that setup_s times
"""

import json
import sys

import harness
import workloads

mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
if mode == "setup":
    harness.load_minorbit()
    workloads.generate(name, seed)
else:
    print(json.dumps(harness.run_round(name, seed, float(sys.argv[4]), sys.argv[5] == "1")))
