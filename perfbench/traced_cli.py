"""Run one cyclic-cdc CLI command with the package's layers traced.

Usage: python3 perfbench/traced_cli.py SPANS_OUT -- CLI_ARGS...

The spans are kept in memory and written to SPANS_OUT as JSON when the
command ends, also when it raises.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from cyclic_cdc import cli

    root = tracer.open("cli.main", "cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.close(root)
        with open(spans_out, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
