"""``repro-idling`` with the benchmark's span wrappers installed.

Run as ``python3 fleetbench/traced_cli.py <repro-idling arguments>`` with
``FLEETBENCH_TRACE_DIR`` set.  The wrappers go in at import time, so a
shard worker started with the ``spawn`` method, which re-imports this
file as its main module before it runs, records spans too.
"""

import sys

import tracing

tracing.install()

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main())
