"""One fresh set-up of a workload, as its timed phase would need it.

Run as ``python3 perfbench/setup_probe.py <workload>`` with ``src`` on
``PYTHONPATH``.  Imports kochnet (and builds the graph for route-k26)
while sampling the host's speed, then prints ``time.monotonic()`` and the
speed factor (see speed.py) and exits at once, so the caller measures
interpreter start + import + build and not the teardown.
"""

import os
import sys
import time

import speed

with speed.Sampler() as sampler:
    import kochnet.cli  # noqa: F401  (the CLI workloads import exactly this)

    if sys.argv[1] == "route-k26":
        import kochnet

        kochnet.build(2, 6)
    ready = time.monotonic()

sys.stdout.write(f"{ready!r} {sampler.factor()!r}\n")
sys.stdout.flush()
os._exit(0)
