"""Process set-up shared by every benchmark entry script.

Importing this module pins the BLAS/OpenMP pools to one thread (before
numpy is imported anywhere) and puts the checkout's ``src/`` directory on
``sys.path`` so the package is imported from source.  When the checkout
holds no ``src/excitonchain`` the process exits with status 2 and prints
nothing to standard output.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

for _name in THREAD_VARS:
    os.environ[_name] = str(BLAS_THREADS)

if not (SRC / "excitonchain" / "__init__.py").is_file():
    print(f"perfbench: no package source under {SRC}", file=sys.stderr)
    sys.exit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

