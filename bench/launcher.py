"""The nccum command line with the benchmark's tracing or profiling around it.

    python3 launcher.py --trace RECORD.json -- ARGS...
    python3 launcher.py --profile STATS.prof -- ARGS...

Installs the wrappers of ``tracing.py`` (or starts cProfile) and then calls
``nccumulants.cli.main(ARGS)``, so each ``nccum`` subprocess of the
cli-verify workload is traced from outside the program.  The exit code is
the command's own.
"""

import cProfile
import json
import sys

import tracing
from nccumulants import cli


def main(argv):
    if len(argv) < 3 or argv[2] != "--" or argv[0] not in ("--trace", "--profile"):
        print("usage: launcher.py (--trace|--profile) FILE -- ARGS...", file=sys.stderr)
        return 2
    mode, path, args = argv[0], argv[1], argv[3:]
    if mode == "--profile":
        profile = cProfile.Profile()
        try:
            return profile.runcall(cli.main, args)
        finally:
            profile.dump_stats(path)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        return cli.main(args)
    finally:
        tracer.active = False
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.record(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
