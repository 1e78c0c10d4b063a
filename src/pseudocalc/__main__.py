"""`python -m pseudocalc`: the same command-line front-end as the `pseudocalc` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
