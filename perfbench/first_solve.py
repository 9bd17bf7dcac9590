"""Set-up probe: import the package as the CLI does and complete one solve.

Usage: ``first_solve.py KIND N_CELLS JB SIGMA DISORDER_SEED REALIZATION``.
Prints ``ready`` once the steady state is solved; the caller times a fresh
interpreter from launch to that line.
"""

import sys

import bootstrap  # noqa: F401  (pins BLAS threads, puts src/ on the path)

from excitonchain import cli  # noqa: F401  (the CLI's own import cost)
from excitonchain.environment import EnvironmentParams
from excitonchain.experiments import solve_point
from excitonchain.hamiltonian import DisorderSpec, HamiltonianParams

kind, n_cells, jb, sigma, seed, realization = sys.argv[1:7]
disorder = (DisorderSpec(float(sigma), int(seed), int(realization))
            if float(sigma) > 0 else None)
solve_point(kind, int(n_cells), float(jb), HamiltonianParams(),
            EnvironmentParams(), disorder_spec=disorder)
print("ready", flush=True)
