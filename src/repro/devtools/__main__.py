"""``python -m repro.devtools`` — the same command as ``python -m repro devtools``."""

import sys

from repro.devtools.cli import devtools_main

if __name__ == "__main__":
    sys.exit(devtools_main(sys.argv[1:]))
