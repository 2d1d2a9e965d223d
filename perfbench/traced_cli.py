"""Run ``repro-tool`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/traced_cli.py <repro-tool arguments>``

The command's own output goes to stdout unchanged. The span totals go
to stderr as the last line, prefixed with ``perfbench-trace``.
``import repro.cli`` and ``repro.cli.main`` are the two root spans of
the ``cli`` layer.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402

TRACE_PREFIX = "perfbench-trace "


def main(argv) -> int:
    rec = layers.Recorder()
    import importlib

    rec.call("cli.import", importlib.import_module, ("repro.cli",), {})
    layers.install_pipeline_layers(rec)
    cli = sys.modules["repro.cli"]
    rc = rec.call("cli.main", cli.main, (argv,), {})
    sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + json.dumps(rec.snapshot()) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
