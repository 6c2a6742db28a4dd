"""Runs one ``cgb`` command under the trace, in this fresh interpreter.

    traced_cli.py TRACE_FILE MODULE... -- CGB_ARGS...

Imports the modules the command would import (timed as ``cli.import``),
wraps the layers, runs ``cgb.cli.main(CGB_ARGS)`` as the ``cli.command``
span, writes the aggregated spans to TRACE_FILE and exits with the
command's exit code.  Its standard output is the command's own.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

from tracing import Patches, Tracer


def main(argv: list[str]) -> int:
    split = argv.index("--")
    trace_file, modules, cgb_args = argv[0], argv[1:split], argv[split + 1 :]
    tracer = Tracer()
    start = perf_counter()
    for name in modules:
        importlib.import_module(name)
    tracer.add_time("cli.import", perf_counter() - start)
    cli = sys.modules["cgb.cli"]
    patches = Patches(tracer)
    patches.apply()
    try:
        code = tracer.wrap("cli.command", cli.main)(cgb_args)
    finally:
        patches.restore()
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
