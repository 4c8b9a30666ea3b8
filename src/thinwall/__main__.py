"""`python -m thinwall` and the `thinwall` script: the command line at one
OpenBLAS thread unless OPENBLAS_NUM_THREADS is set (README, Command line).

OpenBLAS reads the variable when numpy loads, so it is set before cli is
imported; importing thinwall as a library leaves the environment alone.
"""

import os
import sys


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
