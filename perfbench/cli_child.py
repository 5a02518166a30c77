"""Run one torsol CLI command with the per-layer tracer installed.

    python3 perfbench/cli_child.py STATS.json <torsol command and options>

Needs ``src`` on PYTHONPATH.  The CLI report goes to stdout unchanged and
the exit code is the CLI's; per-layer aggregates and spans go to
STATS.json.
"""

import json
import sys

import tracing
import torsol.cli


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = torsol.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"aggregate": tracer.aggregate(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
