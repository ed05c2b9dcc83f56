"""Traced `fbh verify` child for the cli-verify traced run.

Usage: python cli_child.py verify --suite all --params 1,1,1.0 --seed S --json

Installs the tracing shims, runs fbh.cli.main on the arguments, and writes
the span totals as one `PERFBENCH_TRACE {json}` line to stderr.  Exits with
main's code.
"""

import json
import sys

import shims

import fbh.cli


def main():
    tracer = shims.Tracer()
    tracer.install()
    try:
        code = fbh.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print("PERFBENCH_TRACE " + json.dumps(tracer.totals()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
