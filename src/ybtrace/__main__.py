"""``python -m ybtrace``: the command-line interface of ``ybtrace.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
