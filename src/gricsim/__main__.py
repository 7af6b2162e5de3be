"""The command line entry: ``python -m gricsim`` and the ``gricsim`` script.

numpy starts an OpenBLAS worker thread when it loads. gricsim makes no
BLAS call, yet that idle thread costs each process about a quarter of
its CPU time, so the entry caps OpenBLAS at one thread before anything
imports numpy. A value the user set first is kept. Importing gricsim as
a library leaves the host process's environment alone.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (numpy must load after the cap)

if __name__ == "__main__":
    sys.exit(main())
