"""python -m voxflow and the voxflow script: cli.run() with one BLAS thread
unless the environment names another count.

No command calls a BLAS routine, yet OpenBLAS starts a thread per core
when NumPy is imported, and reads the thread variables only then. So this
module loads no NumPy before it gives each unset variable "1"; a value
already set is kept. python -m voxflow.cli leaves the variables alone.
"""

import os

#: the BLAS thread-count variables
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    for name in THREAD_VARS:
        os.environ.setdefault(name, "1")
    from .cli import run
    run()


if __name__ == "__main__":
    main()
