"""Run ``repro serve`` as a child, optionally with the daemon layer clock.

Usage::

    python perfbench/serve_child.py [--trace-out FILE] -- <repro serve args>

With ``--trace-out`` the scheduler's queue, dispatch, cache and journal
boundaries are timed (see :func:`perfbench.layers.install_daemon_clock`)
and the totals are written to FILE as JSON when the daemon exits.
"""

from __future__ import annotations

import atexit
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def main(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out:
        from perfbench.layers import install_daemon_clock

        clock = install_daemon_clock()

        def dump() -> None:
            Path(trace_out).write_text(json.dumps(clock.snapshot()), encoding="utf-8")

        atexit.register(dump)
    from repro.cli import main as repro_main

    return repro_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
