"""Traced stand-in for one `python -m minorbit.cli` request.

Runs in a fresh interpreter, so every cache starts cold, as under the CLI.
Usage: cli_worker.py SPAWN_MONOTONIC_NS REQUEST_JSON.  It imports minorbit
first (the end of cli.startup), then calls build, levels and every
d_matrix, then minorbit.cli.main on the request's arguments (cohomology
and formatting happen inside main), and prints one JSON line: the exit
code, the stdout digest, the spans and the counters.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from minorbit import cli, long_root_poset, root_system  # noqa: E402

imported = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from harness import cli_args, load_minorbit, sha256  # noqa: E402
from spans import Tracer  # noqa: E402

load_minorbit()  # checks that minorbit came from this checkout
request = json.loads(sys.argv[2])
tracer = Tracer()
now = time.perf_counter_ns()
tracer.record("cli.startup", now - (imported - int(sys.argv[1])), now)
tracer.install()
rs = root_system.build(root_system.parse_type(request["type"]))
long_root_poset.levels(rs)
for i in range(1, long_root_poset.dimension(rs)):
    long_root_poset.d_matrix(rs, i)
buffer = io.StringIO()
with contextlib.redirect_stdout(buffer):
    code = cli.main(cli_args(request))
tracer.uninstall()
if code:
    tracer.counters["cli.errors"] += 1
stdout = buffer.getvalue().encode()
tracer.counters["cli.output_bytes"] += len(stdout)
print(json.dumps({"code": code, "sha256": sha256(stdout), "spans": tracer.spans, "counters": tracer.counters}))
