"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/servehost.py PREFIX serve --listen ... ``

Everything after ``PREFIX`` is passed to ``repro.cli.main`` unchanged.
Span aggregates are written to ``PREFIX.server.json`` after the server
has drained, and to ``PREFIX.worker.PID.json`` by each forked worker.
"""

import sys

from spans import RECORDER, install_serve


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    install_serve(prefix)
    from repro.cli import main as cli_main

    rc = cli_main(argv)
    RECORDER.dump(f"{prefix}.server.json", "server")
    return rc


if __name__ == "__main__":
    sys.exit(main())
