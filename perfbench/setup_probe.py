"""Cold-start probe: import shiftq.cli and parse the workload's configs, then exit.

Usage: python3 perfbench/setup_probe.py SRC_DIR COMMAND=CONFIG [COMMAND=CONFIG ...]

run.py times this script from spawn to exit for `setup_s`, and runs it under
`-X importtime` for the import split of the traced run.
"""

import sys

sys.path.insert(0, sys.argv[1])

import shiftq.cli  # noqa: E402,F401  the console script's module, with everything it imports
from shiftq.config import parse_config  # noqa: E402
for pair in sys.argv[2:]:
    command, path = pair.split("=", 1)
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read(), default_command=command)
