"""`python -m rankfair`: the same entry point as the installed `rankfair` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
