"""The rotortrack command, as the console script and as ``python -m rotortrack``.

Training's matrix products are summed in an order that depends on how many
threads OpenBLAS splits them over, so the model file and everything scored
with it would depend on the thread count.  The command runs OpenBLAS on one
thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS asks for a count.
OpenBLAS reads the variable when numpy loads it, so the pipeline, and numpy
with it, is imported only after the variable is set.  Importing the library
sets nothing.
"""

import os
import sys


def main() -> int:
    if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import cli
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
