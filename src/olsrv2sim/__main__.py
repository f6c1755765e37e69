"""`python -m olsrv2sim`: the olsrv2-sim command line."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
