"""``python -m repro.bench ARGS``: an alias of ``xnf bench ARGS``."""

import sys

from repro.cli import main

sys.exit(main(["bench", *sys.argv[1:]]))
