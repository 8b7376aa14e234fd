"""Traced entry point for one CLI operation.

    python3 perfbench/trace_cli.py SPANS_OUT OP_ID CLI_ARG...

Installs the span recorder of `tracing.py` around toursid's public functions,
then runs `toursid.cli.main(CLI_ARG...)` and exits with its code. The spans
are written to SPANS_OUT as JSON when the process ends.
"""

import sys

from tracing import Recorder


def main() -> int:
    spans_out, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from toursid import cli

    recorder = Recorder(op_id)
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
