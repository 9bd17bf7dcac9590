"""Figure-level studies: sweeps, fits, ensembles and regime grids.

Every experiment is a pure function of its spec: runs are keyed by
(geometry, coupling, size, realization) and aggregated in deterministic
order, so identical specs reproduce identical tables.

Sweeps and disorder ensembles share one row runner, :func:`_solve_rows`:
it cuts a point's rows of one geometry (excited blocks or a clean
chain's cell halves) into fixed-size stacks (:func:`_chunk_size`),
shares them out to ``jobs`` threads, diagonalizes each with the one
diagonalizer ``spectral._eigen_rows`` and measures it with
:func:`_measure`: one rate pass and one set of generators per stack,
read by both solvers.  Every
row comes back as its value or the error it failed with, unwarned; a row
warns where it is put together, in the calling thread.

- A single point (:func:`solve_point`) is a stack of one.
- A length sweep solves each chain (geometry, N) as one task: the
  geometry and channels are built once, each coupling jb is diagonalized
  once, and that eigensystem is measured with both solvers.  Every
  chain of a sweep is clean (its dipole scheme is None or "transport")
  and solved from its factors: the cell block and its centroid rule once
  per (geometry, jb), before the chains are shared out, and the chain
  block once per chain; no dense Hamiltonian is built, one site per cell
  included.  Couplings with equal cell blocks (every coupling, for one
  site per cell) are one system, solved once per chain.  Its rows equal
  :func:`solve_point`'s reports exactly.  A failing point raises what
  :func:`solve_point` raises there: the first such point of its geometry
  in grid order.
- An ensemble point (:func:`_ensemble`) builds its geometry, channels and
  clean Hamiltonian once and solves the clean row first, on the same
  runner and measure as its realizations, so the clean value is
  :func:`solve_point`'s exactly; a failure there is raised.  Disorder
  only shifts the excited diagonal, so each realization is the clean
  excited block plus its seeded draw (the same numbers ``apply_disorder``
  adds), diagonalized in stacks; at sigma = 0 every realization is the
  clean value.  A realization that fails a check is recorded with its
  error class and the others are unaffected.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .defaults import DARK_THRESHOLD, FIT_MIN_CELLS, MIN_GROUND_POPULATION
from .environment import EnvironmentParams, build_channels
from .hamiltonian import (DisorderSpec, HamiltonianParams, _finite_scale,
                          apply_disorder, build_hamiltonian, cell_block,
                          chain_block)
from .lattice import assign_dipoles, build_geometry
from .pme import SteadyStateReport, _generator_rows, _steady_reports, \
    _warn_low_ground
from .spectral import (_brightness_rows, _cell_modes, _check_dark_threshold,
                       _dark_mask, _eigen_rows, _eigen_stack, _factor_eigen,
                       _rate_rows, diagonalize)

# rows per stacked chunk: each (R, dim, dim) array stays near 49152
# doubles (384 KiB), 13 rows at dimension 61; about 4.5 such arrays are
# alive at once (at a stack's phonon overlap product, in its rate pass),
# so larger chunks raise peak memory while saving little per-row overhead
_CHUNK_ELEMENTS = 49152


def _chunk_size(dim: int) -> int:
    """Rows of (dim, dim) arrays per stacked chunk, at least one."""
    return max(1, _CHUNK_ELEMENTS // dim**2)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a batch of steady-state runs, at the
    couplings ``jb_values``; an ensemble draws ``n_realizations``
    Gaussian on-site disorders of width ``sigma`` from the base ``seed``.
    ``dipole_scheme`` is None or "transport", so every chain is clean."""

    geometries: tuple[str, ...] = ("mono",)
    n_cells_values: tuple[int, ...] = tuple(range(2, 41))
    jb_values: tuple[float, ...] = (1.0,)
    ham: HamiltonianParams = HamiltonianParams()
    env: EnvironmentParams = EnvironmentParams()
    dipole_scheme: str | None = None
    injection_mode: str = "site"
    sigma: float = 0.0
    n_realizations: int = 1
    seed: int = 0
    method: str = "pme"
    fit_min_cells: int = FIT_MIN_CELLS
    brme_max_cells: int = 20
    dark_threshold: float = DARK_THRESHOLD
    jobs: int = 1

    def __post_init__(self):
        DisorderSpec(self.sigma)  # rejects a negative or non-finite width
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.geometries or not self.n_cells_values or not self.jb_values:
            raise ValueError("sweep grids must be non-empty")
        for name in ("geometries", "n_cells_values", "jb_values"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        for jb in self.jb_values:
            _finite_scale("jb", jb)
        scheme = self.dipole_scheme
        if not (scheme is None or isinstance(scheme, str)
                and scheme == "transport"):
            raise ValueError("dipole_scheme must be None or 'transport', not "
                             + (repr(scheme) if isinstance(scheme, str)
                                else type(scheme).__name__))
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.method not in ("pme", "brme", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        _check_dark_threshold(self.dark_threshold)


@dataclass(frozen=True)
class FitResult:
    """Exponential decay fit current = alpha * exp(-beta * n_cells)."""

    alpha: float
    beta: float
    residual_norm: float
    n_range: tuple[int, int]
    n_points: int


def fit_exponential(n_cells, currents, min_cells: int | None = None
                    ) -> FitResult:
    """Ordinary least squares on log current versus chain length.

    Points below ``min_cells`` and points with non-positive current are
    excluded (the latter with a warning).
    """
    n_cells = np.asarray(n_cells, dtype=float)
    currents = np.asarray(currents, dtype=float)
    mask = np.ones(n_cells.shape, dtype=bool)
    if min_cells is not None:
        mask &= n_cells >= min_cells
    bad = mask & ~(currents > 0)
    if bad.any():
        warnings.warn(
            f"excluding {int(bad.sum())} non-positive currents from the "
            "exponential fit", stacklevel=2)
        mask &= currents > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive points to fit")
    ns = n_cells[mask]
    logs = np.log(currents[mask])
    design = np.column_stack([np.ones_like(ns), -ns])
    coeffs, _, _, _ = np.linalg.lstsq(design, logs, rcond=None)
    resid = float(np.linalg.norm(design @ coeffs - logs))
    return FitResult(alpha=float(np.exp(coeffs[0])), beta=float(coeffs[1]),
                     residual_norm=resid,
                     n_range=(int(ns.min()), int(ns.max())),
                     n_points=int(mask.sum()))


def build_system(kind: str, n_cells: int, jb: float,
                 ham: HamiltonianParams, env: EnvironmentParams,
                 dipole_scheme: str | None = None,
                 injection_mode: str = "site",
                 disorder_spec: DisorderSpec | None = None):
    """Assemble geometry, Hamiltonian, eigensystem and channels for one run."""
    geometry, channels = _chain(kind, n_cells, ham, env, dipole_scheme,
                                injection_mode)
    h = build_hamiltonian(geometry, ham, jb)
    if disorder_spec is not None and disorder_spec.sigma > 0:
        h = apply_disorder(h, disorder_spec)
    return geometry, h, diagonalize(h), channels


def _chain(kind: str, n_cells: int, ham: HamiltonianParams,
           env: EnvironmentParams, dipole_scheme: str | None,
           injection_mode: str) -> tuple:
    """The geometry (with its dipoles) and the channels of one chain,
    which do not depend on the coupling jb."""
    geometry = _geometry(kind, n_cells, dipole_scheme)
    channels = build_channels(geometry, env, delta_e=ham.delta_e,
                              injection_mode=injection_mode)
    return geometry, channels


def _geometry(kind: str, n_cells: int, dipole_scheme: str | None):
    geometry = build_geometry(kind, n_cells)
    if dipole_scheme is None:
        return geometry
    return assign_dipoles(geometry, dipole_scheme)


def solve_point(kind: str, n_cells: int, jb: float,
                ham: HamiltonianParams, env: EnvironmentParams,
                dipole_scheme: str | None = None,
                injection_mode: str = "site",
                disorder_spec: DisorderSpec | None = None,
                method: str = "pme") -> SteadyStateReport:
    """Solve one steady state with either solver."""
    return _solve_system(method, partial(
        build_system, kind, n_cells, jb, ham, env,
        dipole_scheme=dipole_scheme, injection_mode=injection_mode,
        disorder_spec=disorder_spec))[1]


def _solve_system(method: str, build) -> tuple:
    """(system, report) of one point: ``method`` is checked before
    ``build()`` makes the :func:`build_system` tuple, whose eigensystem
    :func:`_measure` solves as a stack of one; its error is raised and a
    population report warns (``pme._warn_low_ground``)."""
    if method not in ("pme", "brme"):
        raise ValueError(f"a point solves with 'pme' or 'brme', not "
                         f"{method!r}")
    system = build()
    _, _, es, channels = system
    report = _measure([method], channels, es.energies[None],
                      es.vectors[None])[0][method]
    if isinstance(report, Exception):
        raise report
    if method == "pme":
        _warn_low_ground(report)
    return system, report


def _measure(methods: list[str], channels, energies, vectors) -> list[dict]:
    """Per row of a stack of eigensystems, {method: its report or the
    error it failed with} for each of ``methods``, without a warning.
    The stack's one rate pass (``spectral._rate_rows``) becomes its
    generators in place (``pme._generator_rows``), which both solvers
    read and leave as they were: "pme" is the stacked population solve
    (``pme._steady_reports``), "brme" the density-matrix one; neither
    reads the sign of an eigenvector.  A failed rate pass raises."""
    w, ground, densities = _rate_rows(energies, vectors, channels)
    chi = _generator_rows(w)
    if "brme" not in methods:
        densities = None  # freed before the population solve
    solved: list[dict] = [{} for _ in energies]
    if "pme" in methods:
        for out, report in zip(solved, _steady_reports(chi, ground)):
            out["pme"] = report
    if "brme" in methods:
        from . import brme  # imported by the density-matrix solve only
        try:
            liouvillian = brme.build_liouvillian(energies, vectors, channels,
                                                 (chi, ground, densities))
            densities = None  # copied into the Liouvillian: freed
            reports = brme.brme_steady_state(liouvillian)
        except Exception as exc:  # raised by the caller
            reports = [exc] * len(energies)
        for out, report in zip(solved, reports):
            out["brme"] = report
    return solved


def _pme_only(spec: SweepSpec, study: str) -> None:
    if spec.method != "pme":
        raise ValueError(f"{study} solves with 'pme' only, "
                         f"not {spec.method!r}")


def _map_in_order(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], shared out to ``jobs`` threads."""
    if jobs <= 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def length_sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Steady current versus chain length, plus exponential fits.

    Returns (rows, fits).  With ``method = "both"`` each grid point is
    solved with both solvers (the density-matrix one only up to
    ``brme_max_cells``) and rows are tagged by method; fits are computed
    per (geometry, jb, method) over points with n_cells >= fit_min_cells.
    A row also carries its report's ``extras``: none for a PME row, the
    density-matrix diagnostics (Krylov iterations, coherence fraction,
    ...) for a BRME row.
    Each distinct cell block is solved once per geometry, before the
    geometry's chains are shared out (:func:`_cell_solves`).
    Failures are settled per geometry: once all chains of a geometry are
    solved, its first failing point in grid order raises what
    :func:`solve_point` raises there, and no later geometry is solved.
    Each population row warns as :func:`solve_point` does there.  A
    method with the density-matrix solver fails before any solve when no
    chain length is at or below ``brme_max_cells``.
    """
    methods = ["pme", "brme"] if spec.method == "both" else [spec.method]
    if "brme" in methods and min(spec.n_cells_values) > spec.brme_max_cells:
        raise ValueError(f"method {spec.method!r} needs a chain length at "
                         f"or below brme_max_cells = {spec.brme_max_cells}")
    # the methods solved at each chain length, BRME only up to its cap
    at = {n: [m for m in methods if m == "pme" or n <= spec.brme_max_cells]
          for n in spec.n_cells_values}
    ns = [n for n in at if at[n]]

    def run(chain: tuple):
        kind, n, cells = chain
        try:
            return _chain_reports(spec, kind, n, at[n], cells)
        except Exception as exc:  # raised below, in grid order
            return exc

    rows: list[dict] = []
    fits: list[dict] = []
    for kind in spec.geometries:
        cells = _cell_solves(spec, kind)
        chains = dict(zip(ns, _map_in_order(
            run, [(kind, n, cells) for n in ns], spec.jobs)))
        series: dict = {}
        for jb in spec.jb_values:
            for n in spec.n_cells_values:
                for method in at[n]:
                    report = chains[n]
                    for key in (jb, method):
                        if not isinstance(report, Exception):
                            report = report[key]
                    if isinstance(report, Exception):
                        raise report
                    if method == "pme":
                        _warn_low_ground(report)
                    rows.append({
                        "geometry": kind, "jb": jb, "n_cells": n,
                        "method": method, "current": report.current,
                        "ground_population": report.ground_population,
                        "residual": report.residual,
                        **{f"flux_{flux}": report.fluxes.get(flux, 0.0)
                           for flux in ("injection", "extraction",
                                        "radiative", "nonradiative")},
                        **report.extras,
                        "run_id": len(rows),
                    })
                    series.setdefault((jb, method), []).append(
                        (n, report.current))
        for (jb, method), points in series.items():
            if len(points) < 2:
                continue
            try:
                fit = fit_exponential(*zip(*points),
                                      min_cells=spec.fit_min_cells)
            except ValueError:
                continue
            fits.append({
                "geometry": kind, "jb": jb, "method": method,
                "alpha": fit.alpha, "beta": fit.beta,
                "fit_residual": fit.residual_norm,
                "n_min": fit.n_range[0], "n_max": fit.n_range[1],
                "n_points": fit.n_points,
            })
    return rows, fits


def _cell_solves(spec: SweepSpec, kind: str) -> tuple[list, list[int]]:
    """The distinct cell halves of a sweep's couplings for one kind (B
    with its eigh and cell modes, ``spectral._cell_modes``) and, per
    coupling, the index of its own.  B has no N, so it is built on a
    one-cell geometry.  Couplings with equal B (every coupling, for one
    site per cell) share one half."""
    geometry = _geometry(kind, 1, spec.dipole_scheme)
    blocks = [cell_block(geometry, jb) for jb in spec.jb_values]
    first = [next(k for k, seen in enumerate(blocks)
                  if np.array_equal(seen, block)) for block in blocks]
    distinct = sorted(set(first))
    return ([_cell_modes(blocks[k], geometry.positions) for k in distinct],
            [distinct.index(k) for k in first])


def _chain_reports(spec: SweepSpec, kind: str, n_cells: int,
                   methods: list[str], cells: tuple) -> dict:
    """Reports of one chain at every coupling of a sweep.

    The geometry, channels and chain block T are built once, and the
    chain is one clean stack, (T with its eigh, the distinct cell halves
    of ``cells``) (:func:`_cell_solves`), cut by :func:`_solve_rows` and
    measured by :func:`_measure`, as :func:`solve_point` measures its
    point; no dense Hamiltonian is built.  Couplings that share a cell
    half share its value.  Returns {jb: its :func:`_measure` value or the
    error it failed with}.
    """
    geometry, channels = _chain(kind, n_cells, spec.ham, spec.env,
                                spec.dipole_scheme, spec.injection_mode)
    chain = _factor_eigen(chain_block(geometry, spec.ham))
    halves, index = cells
    values = _solve_rows(
        lambda rows: (chain, [halves[r] for r in rows]), len(halves),
        spec.ham.eg, geometry, partial(_measure, methods, channels), 1)
    return {jb: values[k] for jb, k in zip(spec.jb_values, index)}


def _solve_rows(rows, count: int, eg: float, geometry, measure,
                jobs: int) -> list:
    """Per row 0..count-1 of one geometry, its value or the error it
    failed with.

    The row indices are cut into stacks of :func:`_chunk_size` rows, which
    ``jobs`` threads share out.  ``rows(indices)`` makes the stack of
    those rows (excited blocks or a clean stack, see
    ``spectral._eigen_rows``); it is diagonalized and freed, and
    ``measure(energies, vectors)`` then gives the values of its rows that
    diagonalized.
    """
    size = _chunk_size(geometry.n_sites + 1)

    def run(indices: range) -> list:
        energies, vectors, out = _eigen_rows(rows(indices), eg, geometry)
        good = [r for r, error in enumerate(out) if error is None]
        if len(good) == len(out):
            return measure(energies, vectors)
        if good:
            for r, value in zip(good, measure(energies[good], vectors[good])):
                out[r] = value
        return out

    stacks = [range(lo, min(lo + size, count)) for lo in range(0, count, size)]
    return [value for values in _map_in_order(run, stacks, jobs)
            for value in values]


def derive_seed(base_seed: int, *indices: int) -> int:
    """Stable per-grid-point seed derived from the base seed."""
    state = np.random.SeedSequence([int(base_seed), *map(int, indices)])
    return int(state.generate_state(1, dtype=np.uint64)[0])


def _ensemble(spec: SweepSpec, kind: str, jb: float, seed: int,
              measure) -> tuple:
    """(clean value, per realization its value or error) of one grid
    point at the spec's one chain length, each measured on
    :func:`_solve_rows` by ``measure(channels, energies, vectors)``; a
    spec with more lengths is rejected before any solve.

    The clean row (``spectral._eigen_stack``) is solved first, alone, and
    its failure is raised.  Realization r adds ``DisorderSpec(sigma, seed,
    r).draw(n_sites)`` to the clean excited diagonal, as ``apply_disorder``
    does; at ``sigma = 0`` it is the clean value.
    """
    if len(spec.n_cells_values) != 1:
        raise ValueError("an ensemble solves one chain length, not "
                         f"n_cells_values = {spec.n_cells_values}")
    geometry, channels = _chain(kind, spec.n_cells_values[0], spec.ham,
                                spec.env, spec.dipole_scheme,
                                spec.injection_mode)
    h = build_hamiltonian(geometry, spec.ham, jb)
    sigma, count = spec.sigma, spec.n_realizations
    measure = partial(measure, channels)
    [clean] = _solve_rows(lambda _: _eigen_stack(h), 1, spec.ham.eg,
                          geometry, measure, 1)
    if isinstance(clean, Exception):
        raise clean
    if sigma == 0:
        return clean, [clean] * count
    sites = np.arange(geometry.n_sites)

    def stack(indices: range) -> np.ndarray:
        # the built block is symmetric, and a diagonal shift keeps it so
        blocks = np.repeat(h.excited_block[None], len(indices), axis=0)
        blocks[:, sites, sites] += np.array(
            [DisorderSpec(sigma, seed, r).draw(sites.size) for r in indices])
        return blocks

    return clean, _solve_rows(stack, count, spec.ham.eg, geometry, measure,
                              spec.jobs)


def _census_rows(dark_threshold: float | None, channels, energies,
                 vectors) -> list:
    """PME reports (or errors) of a stack of eigensystems, from
    :func:`_measure`; unless ``dark_threshold`` is None, each report's
    ``extras`` also holds ``n_dark``: its eigensystem's count of excited
    states darker than ``dark_threshold`` times the brightest
    (``spectral._dark_mask``)."""
    reports = [row["pme"] for row in _measure(["pme"], channels, energies,
                                              vectors)]
    if dark_threshold is None:
        return reports
    b = _brightness_rows(vectors, channels)[:, 1:]
    for report, dark in zip(reports, _dark_mask(b, dark_threshold)[0]):
        if isinstance(report, SteadyStateReport):
            report.extras["n_dark"] = int(dark.sum())
    return reports


def _realization_rows(point: dict, reports: list) -> list[dict]:
    """One row per realization: ``point``, the realization index, and its
    current, report ``extras`` and "", or NaN and the name of the error
    class it failed with.  One warning counts the realizations whose
    ground population is at or below ``MIN_GROUND_POPULATION``."""
    rows, low = [], 0
    for r, report in enumerate(reports):
        ok = isinstance(report, SteadyStateReport)
        if ok and report.ground_population <= MIN_GROUND_POPULATION:
            low += 1
        rows.append({**point, "realization": r,
                     "current": report.current if ok else np.nan,
                     **(report.extras if ok else {}),
                     "error": "" if ok else type(report).__name__})
    if low:
        warnings.warn(
            f"{low} of {len(reports)} disorder realizations have a ground "
            f"population <= {MIN_GROUND_POPULATION}; the single-excitation "
            "treatment may not be justified at these rates", stacklevel=3)
    return rows


def disorder_ensemble(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Current distributions over seeded disorder realizations.

    The chain length is the one entry of ``spec.n_cells_values``.
    Returns (stats, raw): stats hold the clean current plus median,
    quartiles and extrema per (geometry, jb); realizations that fail to
    produce a unique steady state are counted and excluded.  Raw rows hold
    one realization each: its current and the census ``n_dark``
    (:func:`_census_rows`), empty when it failed.
    """
    _pme_only(spec, "a disorder ensemble")
    stats: list[dict] = []
    raw: list[dict] = []
    for gi, kind in enumerate(spec.geometries):
        for ji, jb in enumerate(spec.jb_values):
            clean, reports = _ensemble(
                spec, kind, jb, derive_seed(spec.seed, gi, ji),
                partial(_census_rows, spec.dark_threshold))
            _warn_low_ground(clean)
            point = {"geometry": kind, "jb": jb}
            rows = _realization_rows(point, reports)
            raw.extend(rows)
            solved = np.array([row["current"] for row in rows
                               if not row["error"]])
            entry = {
                **point,
                "sigma": spec.sigma,
                "n_realizations": spec.n_realizations,
                "n_failed": len(rows) - solved.size,
                "clean_current": clean.current,
            }
            if solved.size:
                q1, q2, q3 = np.percentile(solved, [25, 50, 75])
                entry.update(median=float(q2), q1=float(q1), q3=float(q3),
                             min=float(solved.min()),
                             max=float(solved.max()))
            else:
                entry.update(median=np.nan, q1=np.nan, q3=np.nan,
                             min=np.nan, max=np.nan)
            stats.append(entry)
    return stats, raw


def regime_grid(spec: SweepSpec, gamma_nr_factors=(0.1, 1.0, 10.0)
                ) -> list[dict]:
    """Currents over loss-rate regimes x dipole alignment x coupling.

    For every (geometry, gamma_nr factor, dipole on/off, jb) the clean
    system is solved (realization -1) together with the disorder ensemble
    from the spec.  The non-radiative rate is ``factor * gamma_rad`` with
    the radiative rate held fixed; "dipole on" aligns every dipole with
    the transport axis, for both the couplings and the emission.  Each
    row's ``error`` names the error class of a failed realization (its
    current is NaN) and is empty otherwise.
    """
    _pme_only(spec, "a regime grid")
    rows: list[dict] = []
    for gi, kind in enumerate(spec.geometries):
        for fi, factor in enumerate(gamma_nr_factors):
            env_point = replace(spec.env,
                                gamma_nr=factor * spec.env.gamma_rad)
            for di, scheme in enumerate((None, "transport")):
                point_spec = replace(spec, env=env_point, dipole_scheme=scheme)
                for ji, jb in enumerate(spec.jb_values):
                    clean, reports = _ensemble(
                        point_spec, kind, jb,
                        derive_seed(spec.seed, gi, fi, di, ji),
                        partial(_census_rows, None))
                    _warn_low_ground(clean)
                    point = {"geometry": kind, "jb": jb,
                             "gamma_nr": env_point.gamma_nr,
                             "dipoles": "on" if scheme else "off"}
                    rows.append({**point, "realization": -1,
                                 "current": clean.current, "error": ""})
                    if spec.sigma > 0:
                        rows.extend(_realization_rows(point, reports))
    return rows

