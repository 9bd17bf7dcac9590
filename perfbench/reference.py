"""High-precision oracle for steady-state currents.

The package builds the population generator chi in float64; this module
solves chi P = 0 with sum(P) = 1 by Gaussian elimination with partial
pivoting in mpmath at ``DPS`` decimal digits (the ground-state row is
replaced by the normalization row), then forms the extraction current
from the same float64 rates.  The result is the exact steady state of
the package's own generator to far better than float64 precision, so it
measures the error of the package's float64 steady-state solve.

Run as a script to regenerate ``reference_currents.json`` for every clean
point of the benchmark workloads (about ten minutes on one core)::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import platform
import sys
import time

import bootstrap  # pins BLAS threads, puts src/ on the path

import mpmath
import numpy as np
import scipy

from excitonchain import experiments, pme, spectral
from excitonchain.environment import EnvironmentParams
from excitonchain.hamiltonian import HamiltonianParams

DPS = 40
RTOL = 1e-10
HAM = HamiltonianParams()
ENV = EnvironmentParams()
REFERENCE_FILE = bootstrap.BENCH_DIR / "reference_currents.json"


def solve_generator(chi: np.ndarray, dps: int = DPS) -> list:
    """Normalized null vector of chi in mpmath arithmetic."""
    n = chi.shape[0]
    with mpmath.workdps(dps):
        a = [[mpmath.mpf(float(x)) for x in row] for row in chi]
        a[0] = [mpmath.mpf(1)] * n
        b = [mpmath.mpf(0)] * n
        b[0] = mpmath.mpf(1)
        for k in range(n):
            pivot = max(range(k, n), key=lambda i: abs(a[i][k]))
            a[k], a[pivot] = a[pivot], a[k]
            b[k], b[pivot] = b[pivot], b[k]
            row_k = a[k]
            inv = 1 / row_k[k]
            for i in range(k + 1, n):
                row_i = a[i]
                factor = row_i[k] * inv
                if factor:
                    for j in range(k + 1, n):
                        row_i[j] -= factor * row_k[j]
                    b[i] -= factor * b[k]
        x = [mpmath.mpf(0)] * n
        for i in range(n - 1, -1, -1):
            row_i = a[i]
            acc = b[i]
            for j in range(i + 1, n):
                acc -= row_i[j] * x[j]
            x[i] = acc / row_i[i]
        return x


def steady_current(kind: str, n_cells: int, jb: float, disorder_spec=None,
                   dps: int = DPS):
    """Extraction current of the package's generator, solved in mpmath."""
    _, _, es, channels = experiments.build_system(
        kind, n_cells, jb, HAM, ENV, disorder_spec=disorder_spec)
    rates = spectral.transition_matrix(es, channels)
    chi = pme.build_generator(rates).chi
    populations = solve_generator(chi, dps)
    extraction = rates.blocks["extraction"][0]
    with mpmath.workdps(dps):
        return mpmath.fsum(mpmath.mpf(float(extraction[m])) * populations[m]
                           for m in range(1, len(populations)))


def load(path=REFERENCE_FILE) -> dict:
    """{(geometry, jb, n_cells): reference current} from the stored file."""
    with open(path) as handle:
        data = json.load(handle)
    return {(p["geometry"], float(p["jb"]), int(p["n_cells"])):
            float(p["current"]) for p in data["points"]}


def main() -> int:
    import workloads

    points = []
    started = time.perf_counter()
    for kind, jb, n in workloads.reference_points():
        current = steady_current(kind, n, jb)
        points.append({"geometry": kind, "jb": jb, "n_cells": n,
                       "current": mpmath.nstr(current, 25, min_fixed=0,
                                              max_fixed=0)})
        print(f"{kind:7s} jb={jb:<4g} N={n:<3d} {points[-1]['current']}",
              flush=True)
    head = {
        "description": "Extraction currents of the package's float64 "
                       "population generator, solved in mpmath",
        "dps": DPS,
        "rtol": RTOL,
        "generated_with": {"python": platform.python_version(),
                           "numpy": np.__version__,
                           "scipy": scipy.__version__,
                           "mpmath": mpmath.__version__},
        "seconds": round(time.perf_counter() - started, 1),
    }
    write(head, points)
    return 0


def write(head: dict, points: list[dict], path=REFERENCE_FILE) -> None:
    """JSON with one reference point per line."""
    rows = ",\n  ".join(json.dumps(p) for p in points)
    text = json.dumps(head, indent=1)[:-2]
    path.write_text(f'{text},\n "points": [\n  {rows}\n ]\n}}\n')


if __name__ == "__main__":
    sys.exit(main())
