# Pin BLAS to one thread before numpy is imported anywhere, over any value
# the shell exports: criterion 7's floats depend on the thread count, and
# single-threaded timings are meaningful.
import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"
