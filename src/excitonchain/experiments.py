"""Figure-level studies: sweeps, fits, ensembles and regime grids.

Every experiment is a pure function of its spec: runs are keyed by
(geometry, coupling, size, realization) and aggregated in deterministic
order, so identical specs reproduce identical tables.  Disorder seeds are
derived per grid point from the base seed, which makes realizations
independent of each other and safe to evaluate in parallel.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .brme import BrmeError, build_liouvillian, brme_steady_state
from .defaults import DARK_THRESHOLD, FIT_MIN_CELLS
from .environment import EnvironmentParams, build_channels
from .hamiltonian import (DisorderSpec, Hamiltonian, HamiltonianParams,
                          apply_disorder, build_hamiltonian)
from .lattice import assign_dipoles, build_geometry
from .pme import SteadyStateError, SteadyStateReport, site_populations, \
    solve_steady_state
from .spectral import SpectralError, brightness, classify_bright_dark, \
    diagonalize, transition_matrix

# numerical failures a disorder realization may raise; it is recorded as
# failed and the ensemble goes on, while any other exception propagates
_REALIZATION_ERRORS = (SpectralError, SteadyStateError, BrmeError,
                      np.linalg.LinAlgError)


@dataclass(frozen=True)
class DisorderEnsembleSpec:
    """Gaussian on-site disorder ensemble: width, size and base seed."""

    sigma: float = 0.0
    n_realizations: int = 1
    base_seed: int = 0


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a batch of steady-state runs."""

    geometries: tuple[str, ...] = ("mono",)
    n_cells_values: tuple[int, ...] = tuple(range(2, 41))
    jb_values: tuple[float, ...] = (1.0,)
    ham: HamiltonianParams = HamiltonianParams()
    env: EnvironmentParams = EnvironmentParams()
    dipole_scheme: str | None = None
    injection_mode: str = "site"
    disorder: DisorderEnsembleSpec = DisorderEnsembleSpec()
    method: str = "pme"
    fit_min_cells: int = FIT_MIN_CELLS
    brme_max_cells: int = 20
    dark_threshold: float = DARK_THRESHOLD
    keep_raw: bool = True
    jobs: int = 1

    def __post_init__(self):
        if not self.geometries or not self.n_cells_values or not self.jb_values:
            raise ValueError("sweep grids must be non-empty")
        if self.disorder.n_realizations < 1:
            raise ValueError("n_realizations must be >= 1")
        if self.method not in ("pme", "brme", "both"):
            raise ValueError(f"unknown method {self.method!r}")

    def to_json_dict(self) -> dict:
        out = {
            "geometries": list(self.geometries),
            "n_cells_values": [int(v) for v in self.n_cells_values],
            "jb_values": [float(v) for v in self.jb_values],
            "dipole_scheme": self.dipole_scheme,
            "injection_mode": self.injection_mode,
            "method": self.method,
            "fit_min_cells": self.fit_min_cells,
            "brme_max_cells": self.brme_max_cells,
            "dark_threshold": self.dark_threshold,
            "keep_raw": self.keep_raw,
            "disorder": {
                "sigma": self.disorder.sigma,
                "n_realizations": self.disorder.n_realizations,
                "base_seed": self.disorder.base_seed,
            },
        }
        for name in ("delta_e", "e0", "eg", "ja", "jb"):
            out[name] = getattr(self.ham, name)
        for name in ("gamma_rad", "gamma_nr", "gamma_phonon", "gamma_inj",
                     "gamma_ext", "temperature", "bath_width", "bath_peak"):
            out[name] = getattr(self.env, name)
        return out


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
    geometry = build_geometry(kind, n_cells)
    params = replace(ham, jb=jb, dipole_mode=dipole_scheme is not None)
    if dipole_scheme is not None:
        geometry = assign_dipoles(geometry, dipole_scheme)
    h = build_hamiltonian(geometry, params)
    if disorder_spec is not None and disorder_spec.sigma > 0:
        h = apply_disorder(h, disorder_spec)
    es = diagonalize(h)
    channels = build_channels(geometry, env, delta_e=params.delta_e,
                              injection_mode=injection_mode)
    return geometry, h, es, channels


def solve_point(kind: str, n_cells: int, jb: float,
                ham: HamiltonianParams, env: EnvironmentParams,
                dipole_scheme: str | None = None,
                injection_mode: str = "site",
                disorder_spec: DisorderSpec | None = None,
                method: str = "pme") -> SteadyStateReport:
    """Solve one steady state with either solver."""
    _, _, es, channels = build_system(
        kind, n_cells, jb, ham, env, dipole_scheme=dipole_scheme,
        injection_mode=injection_mode, disorder_spec=disorder_spec)
    if method == "brme":
        return brme_steady_state(build_liouvillian(es, channels))
    rates = transition_matrix(es, channels)
    return solve_steady_state(rates)


def _run_map(fn, items, jobs: int) -> list:
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def population_profile(kind: str, n_cells: int, jb: float,
                       gamma_rad_values, ham: HamiltonianParams,
                       env: EnvironmentParams, jobs: int = 1) -> list[dict]:
    """Per-site steady populations relative to site 1, per radiative rate."""

    def one(gamma_rad: float) -> list[dict]:
        env_point = replace(env, gamma_rad=gamma_rad)
        _, _, es, channels = build_system(kind, n_cells, jb, ham, env_point)
        report = solve_steady_state(transition_matrix(es, channels))
        per_site = site_populations(report.populations, es)
        reference = per_site[0]
        geometry = es.geometry
        rows = []
        for s in range(geometry.n_sites):
            rows.append({
                "gamma_rad": gamma_rad,
                "site_index": s,
                "cell": int(geometry.cells[s]),
                "slot": int(geometry.slots[s]),
                "population": float(per_site[s]),
                "relative_population": float(per_site[s] / reference)
                if reference > 0 else np.nan,
                "ground_population": report.ground_population,
            })
        return rows

    chunks = _run_map(one, list(gamma_rad_values), jobs)
    return [row for chunk in chunks for row in chunk]


def length_sweep(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Steady current versus chain length, plus exponential fits.

    Returns (rows, fits).  With ``method = "both"`` each grid point is
    solved with both solvers (the density-matrix one only up to
    ``brme_max_cells``) and rows are tagged by method; fits are computed
    per (geometry, jb, method) over points with n_cells >= fit_min_cells.
    """
    methods = {"pme": ["pme"], "brme": ["brme"],
               "both": ["pme", "brme"]}[spec.method]
    points = []
    for kind in spec.geometries:
        for jb in spec.jb_values:
            for n in spec.n_cells_values:
                for method in methods:
                    if method == "brme" and n > spec.brme_max_cells:
                        continue
                    points.append((kind, jb, n, method))

    def one(point):
        kind, jb, n, method = point
        report = solve_point(kind, n, jb, spec.ham, spec.env,
                             dipole_scheme=spec.dipole_scheme,
                             injection_mode=spec.injection_mode,
                             method=method)
        return {
            "geometry": kind, "jb": jb, "n_cells": n, "method": method,
            "current": report.current,
            "ground_population": report.ground_population,
            "residual": report.residual,
            "flux_injection": report.fluxes.get("injection", 0.0),
            "flux_extraction": report.fluxes.get("extraction", 0.0),
            "flux_radiative": report.fluxes.get("radiative", 0.0),
            "flux_nonradiative": report.fluxes.get("nonradiative", 0.0),
        }

    rows = _run_map(one, points, spec.jobs)
    for run_id, row in enumerate(rows):
        row["run_id"] = run_id
    fits = []
    for kind in spec.geometries:
        for jb in spec.jb_values:
            for method in methods:
                sel = [r for r in rows
                       if r["geometry"] == kind and r["jb"] == jb
                       and r["method"] == method]
                if len(sel) < 2:
                    continue
                ns = [r["n_cells"] for r in sel]
                cur = [r["current"] for r in sel]
                try:
                    fit = fit_exponential(ns, cur,
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


def derive_seed(base_seed: int, *indices: int) -> int:
    """Stable per-grid-point seed derived from the base seed."""
    state = np.random.SeedSequence([int(base_seed), *map(int, indices)])
    return int(state.generate_state(1, dtype=np.uint64)[0])


def disorder_ensemble(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Current distributions over seeded disorder realizations.

    The chain length is the first entry of ``spec.n_cells_values``.
    Returns (stats, raw): stats hold the clean current plus median,
    quartiles and extrema per (geometry, jb); realizations that fail to
    produce a unique steady state are counted and excluded.  Raw rows are
    retained when ``spec.keep_raw`` is set.
    """
    stats: list[dict] = []
    raw: list[dict] = []
    for gi, kind in enumerate(spec.geometries):
        for ji, jb in enumerate(spec.jb_values):
            clean = solve_point(kind, spec.n_cells_values[0], jb, spec.ham,
                                spec.env, dipole_scheme=spec.dipole_scheme,
                                injection_mode=spec.injection_mode)
            seed = derive_seed(spec.disorder.base_seed, gi, ji)

            def one(r: int):
                disorder_spec = DisorderSpec(sigma=spec.disorder.sigma,
                                             seed=seed, realization_index=r)
                try:
                    report = solve_point(
                        kind, spec.n_cells_values[0], jb, spec.ham, spec.env,
                        dipole_scheme=spec.dipole_scheme,
                        injection_mode=spec.injection_mode,
                        disorder_spec=disorder_spec)
                except _REALIZATION_ERRORS as exc:
                    return (r, None, type(exc).__name__)
                return (r, report.current, "")

            results = _run_map(one, range(spec.disorder.n_realizations),
                               spec.jobs)
            currents = np.array([c for _, c, _ in results if c is not None])
            n_failed = sum(1 for _, c, _ in results if c is None)
            if spec.keep_raw:
                for r, current, error in results:
                    raw.append({"geometry": kind, "jb": jb,
                                "realization": r,
                                "current": np.nan if current is None
                                else current,
                                "error": error})
            entry = {
                "geometry": kind, "jb": jb,
                "sigma": spec.disorder.sigma,
                "n_realizations": spec.disorder.n_realizations,
                "n_failed": n_failed,
                "clean_current": clean.current,
            }
            if currents.size:
                q1, q2, q3 = np.percentile(currents, [25, 50, 75])
                entry.update(median=float(q2), q1=float(q1), q3=float(q3),
                             min=float(currents.min()),
                             max=float(currents.max()))
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
    the transport axis.
    """
    rows: list[dict] = []
    n_cells = spec.n_cells_values[0]
    for gi, kind in enumerate(spec.geometries):
        for fi, factor in enumerate(gamma_nr_factors):
            env_point = replace(spec.env,
                                gamma_nr=factor * spec.env.gamma_rad)
            for di, scheme in enumerate((None, "transport")):
                for ji, jb in enumerate(spec.jb_values):
                    clean = solve_point(kind, n_cells, jb, spec.ham,
                                        env_point, dipole_scheme=scheme,
                                        injection_mode=spec.injection_mode)
                    rows.append({
                        "geometry": kind, "jb": jb,
                        "gamma_nr": env_point.gamma_nr,
                        "dipoles": "on" if scheme else "off",
                        "realization": -1, "current": clean.current,
                    })
                    if spec.disorder.sigma <= 0:
                        continue
                    seed = derive_seed(spec.disorder.base_seed,
                                       gi, fi, di, ji)

                    def one(r: int):
                        disorder_spec = DisorderSpec(
                            sigma=spec.disorder.sigma, seed=seed,
                            realization_index=r)
                        try:
                            report = solve_point(
                                kind, n_cells, jb, spec.ham, env_point,
                                dipole_scheme=scheme,
                                injection_mode=spec.injection_mode,
                                disorder_spec=disorder_spec)
                        except _REALIZATION_ERRORS:
                            return (r, np.nan)
                        return (r, report.current)

                    for r, current in _run_map(
                            one, range(spec.disorder.n_realizations),
                            spec.jobs):
                        rows.append({
                            "geometry": kind, "jb": jb,
                            "gamma_nr": env_point.gamma_nr,
                            "dipoles": "on" if scheme else "off",
                            "realization": r, "current": current,
                        })
    return rows


def brightness_robustness(spec: SweepSpec) -> tuple[list[dict], list[dict]]:
    """Distributions of per-state brightness under on-site disorder.

    Returns (state_rows, census_rows): brightness quantiles per eigenstate
    index, and the bright/dark census of every realization at the spec's
    dark threshold.
    """
    state_rows: list[dict] = []
    census_rows: list[dict] = []
    n_cells = spec.n_cells_values[0]
    for gi, kind in enumerate(spec.geometries):
        for ji, jb in enumerate(spec.jb_values):
            _, _, es_clean, channels = build_system(
                kind, n_cells, jb, spec.ham, spec.env,
                dipole_scheme=spec.dipole_scheme,
                injection_mode=spec.injection_mode)
            clean_b = brightness(es_clean, channels)
            seed = derive_seed(spec.disorder.base_seed, gi, ji)

            def one(r: int):
                disorder_spec = DisorderSpec(sigma=spec.disorder.sigma,
                                             seed=seed, realization_index=r)
                _, _, es, chs = build_system(
                    kind, n_cells, jb, spec.ham, spec.env,
                    dipole_scheme=spec.dipole_scheme,
                    injection_mode=spec.injection_mode,
                    disorder_spec=disorder_spec)
                b = brightness(es, chs)
                census = classify_bright_dark(es, spec.dark_threshold)
                return b, census

            results = _run_map(one, range(spec.disorder.n_realizations),
                               spec.jobs)
            all_b = np.stack([b for b, _ in results])
            for k in range(1, all_b.shape[1]):
                q25, q50, q75 = np.percentile(all_b[:, k], [25, 50, 75])
                state_rows.append({
                    "geometry": kind, "jb": jb, "state_index": k,
                    "clean_brightness": float(clean_b[k]),
                    "q25": float(q25), "median": float(q50),
                    "q75": float(q75),
                    "min": float(all_b[:, k].min()),
                    "max": float(all_b[:, k].max()),
                })
            for r, (_, census) in enumerate(results):
                census_rows.append({
                    "geometry": kind, "jb": jb, "realization": r,
                    "n_bright": census.n_bright, "n_dark": census.n_dark,
                })
    return state_rows, census_rows
