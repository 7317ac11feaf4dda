"""Run the kochnet CLI in this process while sampling the host's speed.

Usage: ``python3 perfbench/cli_wrapper.py <report.json> <0|1> <kochnet args...>``
with ``src`` on ``PYTHONPATH``.  With ``1`` every public kochnet function
is wrapped in a span first.  Stdout and the exit code are the CLI's own;
the speed factor (see speed.py) and the span summary go to the report.
"""

import json
import sys

import speed
from tracer import Tracer

report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
with speed.Sampler() as sampler:
    import kochnet.cli

    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        code = kochnet.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
with open(report_path, "w") as fp:
    json.dump({"speed_factor": sampler.factor(), "trace": tracer.summary() if traced else None}, fp)
sys.exit(code)
