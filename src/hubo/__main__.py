"""The `hubo` command's entry point; `python -m hubo` runs it too.

The GP fit factorizes many small matrices, which BLAS threads only slow
down, so the OpenBLAS, OpenMP and MKL thread counts default to 1 here,
before anything imports NumPy.  A value the caller set wins.  Importing
`hubo.cli` as a library leaves the environment alone.
"""

import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .cli import main  # noqa: E402  (NumPy must load after the defaults)

if __name__ == "__main__":
    sys.exit(main())
