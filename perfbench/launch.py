"""Run one ``taxogram`` CLI command with span recording.

Usage: ``python perfbench/launch.py --trace-out FILE --role ROLE -- ARGS``

Installs the benchmark's wrappers (:mod:`spans`) around the program's
public functions, runs ``repro.cli.main(ARGS)`` exactly as
``python -m repro ARGS`` would, and writes the recorded spans and
counters to FILE when the command returns (the CLI's services return
normally on SIGTERM).
"""

from __future__ import annotations

import argparse
import sys

import spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--role", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    from repro.cli import main as cli_main

    recorder = spans.install()
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
