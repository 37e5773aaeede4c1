"""Pin the BLAS to one thread for the whole test run, before any test
module imports numpy, as importing ``dualmae`` does for a user's process.
A variable set in the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
