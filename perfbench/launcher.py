"""Run ``blowring.cli.main`` in this process with the span recorder installed.

Usage: python3 perfbench/launcher.py SPAN_FILE OP_ID CLI_ARG...

The wrappers are installed before the CLI runs; the spans are written to
SPAN_FILE when it returns, and the CLI's exit code becomes this process's.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    span_file, op, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(op)
    tracer.install()
    from blowring.cli import main as cli_main

    try:
        return tracer.window(cli_main, cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
