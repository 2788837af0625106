"""``python -m repro.obs ARGS``: an alias of ``xnf obs ARGS``."""

import sys

from repro.cli import main

sys.exit(main(["obs", *sys.argv[1:]]))
