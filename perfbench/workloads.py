"""Benchmark workloads: what one timed pass runs and how it is checked.

A pass runs the CLI's own command handlers through ``cli.run`` (the
``disorder``, ``length-sweep`` and ``brme-check`` commands, with
``jobs=1``), so the tables are computed and written exactly as a CLI user
gets them.  After the pass, :meth:`solves` reads those tables back into
one record per attempted steady-state solve and :func:`check_pass` turns
the records into failure counts.

A solve fails when it raised, when it misses its reference current by
more than ``reference.RTOL`` relative, when its flux balance is off by
more than ``FLUX_RTOL`` relative, or, for a density-matrix solve, when it
differs from the population solve of the same point by more than
``AGREEMENT_RTOL``.  The flux balance is checked wherever the table
carries the flux columns: on every ``length-sweep`` solve and on the
re-solved disorder sample.  The ``disorder`` and ``brme-check`` tables
hold currents only.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import bootstrap  # noqa: F401  (pins BLAS threads, puts src/ on the path)

from excitonchain import cli, experiments
from excitonchain.brme import BrmeError
from excitonchain.hamiltonian import DisorderSpec
from excitonchain.pme import SteadyStateError
from excitonchain.spectral import SpectralError

import reference

FLUX_RTOL = 1e-10
AGREEMENT_RTOL = 0.10
LIBRARY_ERRORS = (SpectralError, SteadyStateError, BrmeError)
ERROR_CLASSES = tuple(cls.__name__ for cls in LIBRARY_ERRORS)
FAILURE_CLASSES = ERROR_CLASSES + ("check", "other")
FLUXES = ("injection", "extraction", "radiative", "nonradiative")

JB_VALUES = (0.1, 1.0, 10.0)
DISORDER_GEOMETRIES = ("dimer", "prism")
DISORDER_CELLS = 20
DISORDER_JB = 10.0
DISORDER_SIGMA = 0.9
BRME_CELLS = (2, 5, 10, 20)


@dataclass(frozen=True)
class Grid:
    geometries: tuple[str, ...]
    n_cells: tuple[int, ...]
    jb_values: tuple[float, ...] = JB_VALUES

    def points(self):
        for kind in self.geometries:
            for jb in self.jb_values:
                for n in self.n_cells:
                    yield kind, jb, n


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` its self-test.

    The length-sweep main grid is a contiguous N range (one CLI call);
    each tail length is a call of its own.  The brme-check grid uses the
    CLI's fixed lengths 2, 5, 10, 20 that lie inside its N range.
    """

    realizations: int
    sample: int
    sweep: Grid
    tail: Grid
    brme: Grid


FULL = Size(
    realizations=250,
    sample=3,
    sweep=Grid(("mono", "dimer", "prism", "cuboid"), tuple(range(2, 41))),
    tail=Grid(("prism",), (60, 80, 100)),
    brme=Grid(("mono", "dimer", "prism"), BRME_CELLS),
)
TINY = Size(
    realizations=3,
    sample=1,
    sweep=Grid(("mono", "prism"), (2, 3), (1.0,)),
    tail=Grid(("prism",), (6,), (1.0,)),
    brme=Grid(("mono", "dimer"), (2,), (1.0,)),
)
SIZES = {"full": FULL, "tiny": TINY}


def reference_points(size: Size = FULL):
    """Clean (geometry, jb, n_cells) points whose currents are stored."""
    points = set()
    for grid in (size.sweep, size.tail, size.brme):
        points.update(grid.points())
    points.update((kind, DISORDER_JB, DISORDER_CELLS)
                  for kind in DISORDER_GEOMETRIES)
    return sorted(points)


def _config(command: str, out: Path, grid: Grid, **settings):
    return cli.RunConfig(command=command, out=str(out), jobs=1,
                         geometries=list(grid.geometries),
                         jb_values=list(grid.jb_values),
                         n_min=min(grid.n_cells), n_max=max(grid.n_cells),
                         **settings)


def _run_cli(config) -> str:
    """Run one CLI command; the name of the library error it raised."""
    try:
        cli.run(config)
    except LIBRARY_ERRORS as exc:
        return type(exc).__name__
    return ""


def _read(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _solve(kind, jb, n, method, current, error="", fluxes=None,
           realization=None) -> dict:
    return {"geometry": kind, "jb": float(jb), "n_cells": int(n),
            "method": method, "realization": realization,
            "current": float(current) if current != "" else math.nan,
            "fluxes": fluxes, "error": error}


class Workload:
    """One benchmark workload: the CLI commands of a pass and their tables.

    Subclasses give :meth:`commands` as (config, expected solves) pairs;
    expected solves are (geometry, jb, n_cells, method) tuples, used to
    count every solve of a command that raised as failed.
    """

    name = ""
    methods: tuple[str, ...] = ("pme",)

    def __init__(self, size: Size):
        self.size = size

    def commands(self, seed: int, out: Path) -> list:
        raise NotImplementedError

    def expected_solves(self) -> int:
        return sum(len(expected)
                   for _, expected in self.commands(0, Path(".")))

    def run_pass(self, seed: int, out: Path) -> list[str]:
        """The timed part: run every command; the error each raised."""
        return [_run_cli(config) for config, _ in self.commands(seed, out)]

    def solves(self, seed: int, out: Path, errors: list[str]) -> list[dict]:
        """Read a finished pass's tables into one record per solve."""
        records = []
        for (config, expected), error in zip(self.commands(seed, out),
                                             errors):
            if error:
                records += [_solve(kind, jb, n, method, math.nan,
                                   error=error)
                            for kind, jb, n, method in expected]
            else:
                records += self.read_tables(Path(config.out))
        return records

    def read_tables(self, out: Path) -> list[dict]:
        raise NotImplementedError

    def sample_oracle(self, seed: int) -> dict:
        return {}


class DisorderEnsemble(Workload):
    """Seeded disorder ensembles: many small solves, one per realization."""

    name = "disorder-ensemble"

    def commands(self, seed: int, out: Path) -> list:
        grid = Grid(DISORDER_GEOMETRIES, (DISORDER_CELLS,), (DISORDER_JB,))
        config = _config("disorder", out, grid, seed=seed,
                         n_cells=DISORDER_CELLS, sigma=DISORDER_SIGMA,
                         n_realizations=self.size.realizations,
                         keep_raw=True)
        expected = [(kind, DISORDER_JB, DISORDER_CELLS, "pme")
                    for kind in DISORDER_GEOMETRIES
                    for _ in range(1 + self.size.realizations)]
        return [(config, expected)]

    def read_tables(self, out: Path) -> list[dict]:
        records = [_solve(s["geometry"], s["jb"], DISORDER_CELLS, "pme",
                          s["clean_current"])
                   for s in _read(out / "disorder_stats.csv")]
        records += [_solve(r["geometry"], r["jb"], DISORDER_CELLS, "pme",
                           r["current"], error=r["error"],
                           realization=int(r["realization"]))
                    for r in _read(out / "disorder_raw.csv")]
        return records

    def first_solve(self, seed: int) -> tuple:
        return (DISORDER_GEOMETRIES[0], DISORDER_CELLS, DISORDER_JB,
                DISORDER_SIGMA, experiments.derive_seed(seed, 0, 0), 0)

    def warm_up_points(self, seed: int) -> list[tuple]:
        return [self.first_solve(seed)]

    def sample_oracle(self, seed: int) -> dict:
        """Re-solve a seeded sample of realizations outside the timed pass.

        Returns {(geometry, realization): (reference current, flux-balance
        error of the package's own re-solve)}.
        """
        picks = random.Random(seed).sample(range(self.size.realizations),
                                           self.size.sample)
        oracle = {}
        for gi, kind in enumerate(DISORDER_GEOMETRIES):
            derived = experiments.derive_seed(seed, gi, 0)
            for r in picks:
                disorder = DisorderSpec(sigma=DISORDER_SIGMA, seed=derived,
                                        realization_index=r)
                ref = reference.steady_current(kind, DISORDER_CELLS,
                                               DISORDER_JB, disorder)
                report = experiments.solve_point(
                    kind, DISORDER_CELLS, DISORDER_JB, reference.HAM,
                    reference.ENV, disorder_spec=disorder)
                oracle[(kind, r)] = (float(ref), flux_imbalance(report.fluxes))
        return oracle


class LengthSweep(Workload):
    """Clean length sweeps up to dimension 161, plus a long-chain tail."""

    name = "length-sweep"

    def commands(self, seed: int, out: Path) -> list:
        grids = [self.size.sweep] + [
            Grid(self.size.tail.geometries, (n,), self.size.tail.jb_values)
            for n in self.size.tail.n_cells]
        return [(_config("length-sweep", out / f"sweep-{k}", grid,
                         method="pme"),
                 [p + ("pme",) for p in grid.points()])
                for k, grid in enumerate(grids)]

    def read_tables(self, out: Path) -> list[dict]:
        return [_solve(r["geometry"], r["jb"], r["n_cells"], r["method"],
                       r["current"],
                       fluxes={k: float(r[f"flux_{k}"]) for k in FLUXES})
                for r in _read(out / "length_sweep.csv")]

    def first_solve(self, seed: int) -> tuple:
        grid = self.size.sweep
        return (grid.geometries[0], grid.n_cells[0], grid.jb_values[0],
                0.0, 0, 0)

    def warm_up_points(self, seed: int) -> list[tuple]:
        tail = self.size.tail
        return [self.first_solve(seed), (tail.geometries[-1],
                                         max(tail.n_cells),
                                         tail.jb_values[-1], 0.0, 0, 0)]


class BrmeCheck(Workload):
    """Population versus density-matrix solver on the criterion-7 grid."""

    name = "brme-check"
    methods = ("pme", "brme")

    def commands(self, seed: int, out: Path) -> list:
        grid = self.size.brme
        config = _config("brme-check", out, grid,
                         brme_max_cells=max(grid.n_cells))
        return [(config, [p + (m,) for p in grid.points()
                          for m in self.methods])]

    def read_tables(self, out: Path) -> list[dict]:
        records = []
        for r in _read(out / "brme_check.csv"):
            for method in self.methods:
                records.append(_solve(r["geometry"], r["jb"], r["n_cells"],
                                      method, r[f"current_{method}"]))
        return records

    def first_solve(self, seed: int) -> tuple:
        g = self.size.brme
        return (g.geometries[0], g.n_cells[0], g.jb_values[0], 0.0, 0, 0)

    def warm_up_points(self, seed: int) -> list[tuple]:
        g = self.size.brme
        return [self.first_solve(seed), (g.geometries[-1], max(g.n_cells),
                                         g.jb_values[-1], 0.0, 0, 0)]


WORKLOADS = {cls.name: cls for cls in (DisorderEnsemble, LengthSweep,
                                       BrmeCheck)}


def flux_imbalance(fluxes: dict) -> float:
    """|injection - (extraction + radiative + nonradiative)| / injection."""
    inflow = fluxes.get("injection", 0.0)
    outflow = sum(fluxes.get(k, 0.0) for k in FLUXES[1:])
    return abs(inflow - outflow) / abs(inflow) if inflow else math.inf


def _rel(value: float, ref: float) -> float:
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref) if ref else abs(value)


@dataclass
class Verdict:
    """Check outcome of one pass."""

    attempted: int
    completed: int
    failed: Counter
    misses: list[dict]

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def check_pass(solves: list[dict], references: dict,
               oracle: dict) -> Verdict:
    """Classify every solve of a pass as passed or failed (by class)."""
    failed: Counter = Counter()
    misses: list[dict] = []
    pme = {(s["geometry"], s["jb"], s["n_cells"]): s["current"]
           for s in solves
           if s["method"] == "pme" and s["realization"] is None}
    completed = 0
    for s in solves:
        key = (s["geometry"], s["jb"], s["n_cells"])
        if s["error"]:
            failed[s["error"] if s["error"] in ERROR_CLASSES else "other"] += 1
            misses.append({"solve": _label(s), "reason": s["error"]})
            continue
        completed += 1
        reasons = []
        if s["fluxes"] is not None:
            imbalance = flux_imbalance(s["fluxes"])
            if not imbalance <= FLUX_RTOL:
                reasons.append(("flux_balance", imbalance))
        if s["realization"] is not None:
            if (s["geometry"], s["realization"]) in oracle:
                ref, imbalance = oracle[(s["geometry"], s["realization"])]
                err = _rel(s["current"], ref)
                if not err <= reference.RTOL:
                    reasons.append(("reference", err))
                if not imbalance <= FLUX_RTOL:
                    reasons.append(("flux_balance", imbalance))
        elif s["method"] == "pme":
            err = _rel(s["current"], references[key])
            if not err <= reference.RTOL:
                reasons.append(("reference", err))
        else:
            err = _rel(s["current"], pme.get(key, math.nan))
            if not err <= AGREEMENT_RTOL:
                reasons.append(("pme_agreement", err))
        if reasons:
            failed["check"] += 1
            misses.append({"solve": _label(s),
                           "reason": ", ".join(f"{name} {err:.3g}"
                                               for name, err in reasons)})
    return Verdict(attempted=len(solves), completed=completed,
                   failed=failed, misses=misses)


def _label(s: dict) -> str:
    text = f"{s['geometry']} N={s['n_cells']} jb={s['jb']:g} {s['method']}"
    if s["realization"] is not None:
        text += f" r={s['realization']}"
    return text
