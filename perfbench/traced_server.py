"""Run ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/traced_server.py STATS_JSON serve ARGS...``.
The spans recorded while serving are written to ``STATS_JSON`` when the
server stops (after a protocol ``shutdown``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import require_program

require_program()

from layers import LayerTracer  # noqa: E402
from repro.cli import main  # noqa: E402


def run(argv: list[str]) -> int:
    stats_out, serve_args = Path(argv[0]), argv[1:]
    tracer = LayerTracer().install()
    try:
        code = main(serve_args)
    finally:
        tracer.uninstall()
        tmp = stats_out.with_suffix(".part")
        tmp.write_text(json.dumps(tracer.snapshot()))
        tmp.replace(stats_out)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
