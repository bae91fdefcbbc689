"""The plkb command line under the host-speed probe.

    BENCH_PROBE_FILE=probes.json python3 bench/cli_child.py classify --kb ...

Runs ``python -m plkb <arguments>`` in this process with the probe of
``pace.py`` sampling every ``pace.INTERVAL_S`` seconds, and writes the
probe record as JSON to the file named by ``BENCH_PROBE_FILE``, so that
the caller can take the probes out of the process's wall time and scale
it by the host speed measured inside the process.  Output and exit code
are the command line's own.
"""

import json
import os
import runpy
import sys
from pathlib import Path

from pace import Pace


def main() -> None:
    pace = Pace()
    pace.start()
    try:
        sys.argv = ["plkb", *sys.argv[1:]]
        runpy.run_module("plkb", run_name="__main__", alter_sys=True)
    finally:
        pace.stop()
        out = os.environ.get("BENCH_PROBE_FILE")
        if out:
            Path(out).write_text(json.dumps(pace.export()), encoding="utf-8")


if __name__ == "__main__":
    main()
