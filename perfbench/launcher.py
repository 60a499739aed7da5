"""Start ``repro serve`` for the benchmark, optionally with span recording.

``python3 perfbench/launcher.py SPANS_PATH -- serve --snapshot ...`` hands
the arguments after ``--`` to the program's own CLI entry point.  With a
spans path (anything but ``-``) the layer wrappers are installed first and
the recorded spans are written once the daemon has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer, install


def main() -> int:
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launcher.py SPANS_PATH -- serve ARGS...")
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        install(tracer, side="system")
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if tracer:
        tracer.dump(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main())
