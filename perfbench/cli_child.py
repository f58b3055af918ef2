"""Run one flexcon CLI command under the tracer and save its aggregates.

Usage: python perfbench/cli_child.py OUT.json <flexcon arguments...>

stdout and the exit code are the command's own; the per-name aggregates
([calls, total_s, self_s]) go to OUT.json for the parent benchmark to merge.
"""

import json
import sys

from tracer import Tracer

from flexcon import cli

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    with Tracer() as tracer:
        code = cli.main(argv)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.aggregate(), fh)
    sys.exit(code)
