"""Population rate equation: generator, steady state, current and fluxes.

The generator chi acting on the eigenstate population vector has the rate
matrix on its off-diagonal and minus the column sums on its diagonal, so
total probability is conserved by construction.  The steady state is
unique exactly when the rate graph has one closed communicating class;
more than one is reported as an error naming the classes.  A unique
steady state solves chi P = 0 with sum(P) = 1, which is one LU solve of
chi with row 0 replaced by ones against e0; stacks of generators are
solved in one batched call, and their reports (current, fluxes,
residual, ground population) assembled together: one steady state is a
stack of one.  A stack's generators are formed once, in its rate
matrices' place (:func:`_generator_rows`), for both solvers: the LU
swaps row 0 in and restores it bit for bit, and the density-matrix solve
reads them after it.  :func:`solve_steady_state` solves a copy.  A
solution that is negative or out of flux balance at some state
(cancellation in the LU, when rates span many decades) is redone by
state reduction, which subtracts nothing.

Stacked reports do not warn; whoever puts a row together warns once per
report whose ground population is at or below ``MIN_GROUND_POPULATION``
(:func:`_warn_low_ground`), and an ensemble counts those in one warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .defaults import MIN_GROUND_POPULATION
from .spectral import EigenSystem, RateMatrix

_CLIP_TOL = 1e-12
_FLUX_TOL = 1e-10


class SteadyStateError(RuntimeError):
    """Raised when no unique steady state exists."""

    def __init__(self, message: str, components: list[list[int]] | None = None):
        super().__init__(message)
        self.components = components or []


@dataclass(frozen=True)
class Generator:
    """Probability-conserving generator chi for the population dynamics."""

    chi: np.ndarray


@dataclass
class SteadyStateReport:
    """Solved steady state with current and per-channel flux accounting."""

    populations: np.ndarray
    current: float
    fluxes: dict[str, float]
    residual: float
    ground_population: float
    method: str = "pme"
    extras: dict = field(default_factory=dict)
    density_matrix: np.ndarray | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "current": self.current,
            "ground_population": self.ground_population,
            "residual": self.residual,
            "fluxes": {k: float(v) for k, v in self.fluxes.items()},
            "populations": [float(p) for p in self.populations],
            **self.extras,
        }


def build_generator(w) -> Generator:
    """Build chi from a rate matrix (RateMatrix or plain array)."""
    matrix = np.array(w.w if isinstance(w, RateMatrix) else w, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("rate matrix must be square")
    return Generator(chi=_generator_rows(matrix[None])[0])


def _generator_rows(w: np.ndarray) -> np.ndarray:
    """Generators chi of a stack of rate matrices w (R, dim, dim),
    formed in w's place."""
    diag = np.arange(w.shape[-1])
    w[:, diag, diag] = 0.0
    if w.min() < 0:
        raise ValueError("off-diagonal rates must be nonnegative")
    w[:, diag, diag] = -w.sum(axis=1)
    return w


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether every state is reachable from state 0, where ``edges[i, j]``
    marks a rate from i into j."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    frontier = seen.copy()
    frontier[0] = True
    while frontier.any():
        seen |= frontier
        frontier = edges[frontier].any(axis=0) & ~seen
    return bool(seen.all())


def _closed_classes(rates: np.ndarray) -> list[list[int]]:
    """Members of each closed communicating class of a rate graph, where
    ``rates[n, m]`` is the rate from m into n (a generator qualifies),
    ordered by their smallest member."""
    edges = rates.T > 0
    np.fill_diagonal(edges, False)
    if _reaches_all(edges) and _reaches_all(edges.T):
        return [list(range(edges.shape[0]))]
    # reach[i, j]: i reaches j (Warshall's transitive closure)
    reach = edges | np.eye(edges.shape[0], dtype=bool)
    for k in range(reach.shape[0]):
        reach |= reach[:, k, None] & reach[k]
    mutual = reach & reach.T
    # a state's class is closed when the state reaches only its class
    classes = {mutual[i].tobytes(): np.flatnonzero(mutual[i]).tolist()
               for i in np.flatnonzero((reach == mutual).all(axis=1))}
    return list(classes.values())


def _acceptable(chi: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rows of populations p (R, dim) that are finite, nonnegative up to
    _CLIP_TOL times their largest entry, and in flux balance state by
    state: |inflow - outflow| <= _FLUX_TOL (inflow + outflow)."""
    with np.errstate(invalid="ignore"):
        net = (chi @ p[..., None])[..., 0]
        outflow = -np.einsum("rii->ri", chi) * p
        balanced = np.abs(net) <= _FLUX_TOL * (net + 2 * outflow)
        return (np.isfinite(p).all(axis=1) & balanced.all(axis=1)
                & (p.min(axis=1) >= -_CLIP_TOL * p.max(axis=1)))


def _reduce_states(chi: np.ndarray, members: list[int]) -> np.ndarray:
    """Steady populations of the closed class ``members`` of generator chi
    by state reduction (Grassmann, Taksar and Heyman), zero elsewhere.

    States are eliminated one at a time, keeping the rates between the
    remaining ones; only sums, products and quotients of nonnegative
    rates occur, so every population keeps its relative accuracy however
    small it is, where the row-replaced LU can lose it to cancellation.
    """
    rates = chi[np.ix_(members, members)].T.copy()  # [i, j]: rate i -> j
    np.fill_diagonal(rates, 0.0)
    n = len(members)
    leave = np.zeros(n)
    p = np.zeros(n)
    p[0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            leave[k] = rates[k, :k].sum()
            rates[:k, :k] += np.outer(rates[:k, k], rates[k, :k] / leave[k])
        for k in range(1, n):
            p[k] = p[:k] @ rates[:k, k] / leave[k]
    populations = np.zeros(chi.shape[0])
    populations[members] = p / p.sum()
    return populations


def _class_errors(chi: np.ndarray) -> tuple[list, list]:
    """The uniqueness verdict of both solvers on a stack of generators (R,
    dim, dim): (errors, classes), per row None or the SteadyStateError
    naming its closed classes, and the closed classes found (None for a
    row not searched).  A rate from every excited state into the ground
    state proves one class without a search; any other row is searched
    once."""
    errors: list = [None] * len(chi)
    classes: list = [None] * len(chi)
    for r in np.flatnonzero(~(chi[:, 0, 1:] > 0).all(axis=1)):
        found = classes[r] = _closed_classes(chi[r])
        if len(found) > 1:
            errors[r] = SteadyStateError(
                f"degenerate steady state: rate graph has {len(found)} "
                f"disconnected closed classes {found}", components=found)
    return errors, classes


def _steady_rows(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Solve chi P = 0 for the normalized populations of a stack of
    generators (R, dim, dim).

    Returns (populations, residuals, errors): per row its populations,
    nonnegative (negative ones above -1e-12 times the largest clipped to
    zero) and in flux balance state by state, its residual max |chi P|,
    and None or its SteadyStateError (its populations and residual then
    NaN): :func:`_class_errors`'s verdict, or a unique row that state
    reduction does not save.  The whole stack is solved together by LU
    with row 0 replaced by ones (a degenerate row's system by the
    identity, its result then masked); a unique row that comes out
    negative, unbalanced or not finite, or whose LU meets an exactly
    singular pivot, is solved again by state reduction on its closed class
    (the verdict's, or found now for a row the verdict did not search).
    The LU runs on chi, row 0 and degenerate rows swapped in and restored.
    """
    rows, dim = chi.shape[:2]
    errors, classes = _class_errors(chi)
    degenerate = np.array([error is not None for error in errors])
    row0, kept = chi[:, 0].copy(), chi[degenerate]
    chi[:, 0] = 1.0
    # a degenerate row's singular system would fail the whole stacked LU
    chi[degenerate] = np.eye(dim)
    rhs = np.zeros((rows, dim, 1))
    rhs[:, 0] = 1.0
    p = _bordered_solve(chi, rhs)[..., 0]
    chi[:, 0] = row0
    chi[degenerate] = kept
    p[degenerate] = np.nan
    accepted = _acceptable(chi, p)
    if not accepted.all():
        redo = np.flatnonzero(~accepted & ~degenerate)
        for r in redo:
            p[r] = _reduce_states(chi[r],
                                  (classes[r] or _closed_classes(chi[r]))[0])
        accepted[redo] = _acceptable(chi[redo], p[redo])
        for r in redo[~accepted[redo]]:
            errors[r] = SteadyStateError(
                f"no nonnegative, flux-balanced steady state found (smallest "
                f"population {p[r].min():.3e})")
        p[~accepted] = np.nan
    p = np.clip(p, 0.0, None)
    populations = p / p.sum(axis=1, keepdims=True)
    residual = np.abs(chi @ populations[..., None]).max(axis=(1, 2))
    return populations, residual, errors


def _bordered_solve(bordered: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions (R, dim, k) of the stacked systems bordered x = rhs (R,
    dim, k), NaN for a singular one.

    One exactly singular pivot fails a whole batched solve, so a failed
    stack is solved again row by row; every other row then keeps the
    bits its own solve gives.
    """
    try:
        return np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        if len(bordered) == 1:
            return np.full(rhs.shape, np.nan)
        return np.concatenate([_bordered_solve(b[None], r[None])
                               for b, r in zip(bordered, rhs)])


def _flux_rows(populations: np.ndarray, ground: dict[str, tuple]
               ) -> dict[str, np.ndarray]:
    """Ground <-> excited probability flux carried by each channel kind,
    for stacked populations (R, dim) under each kind's (out, into) rate
    vectors (R, dim - 1) (see ``spectral._rate_rows``): one (R,) array
    per kind.

    Injection flows from the ground state into the excited manifold; the
    loss and extraction channels flow back.  In a steady state injection
    balances extraction + radiative + non-radiative exactly.
    """
    fluxes = {}
    for kind, (out, into) in ground.items():
        if kind == "injection":
            fluxes[kind] = into.sum(axis=1) * populations[:, 0]
        else:
            fluxes[kind] = (out[:, None] @ populations[:, 1:, None])[:, 0, 0]
    return fluxes


def site_populations(report: SteadyStateReport, es: EigenSystem) -> np.ndarray:
    """Excited population of each site in a solved state, diag(V rho V^T)
    with V the eigenvectors of ``es``: sum_k V_sk^2 p_k for a population
    report, and with the coherences of a density-matrix report's rho."""
    if report.density_matrix is None:
        return (es.site_amplitudes**2).T @ report.populations[1:]
    vectors = es.vectors[1:]
    return ((vectors @ report.density_matrix.real) * vectors).sum(axis=1)


def solve_steady_state(rates: RateMatrix) -> SteadyStateReport:
    """Build the generator, solve it, and assemble the full report.

    Raises the SteadyStateError :func:`_steady_rows` gives, and warns as
    :func:`_warn_low_ground` does.
    """
    ground = {kind: (block[None, 0, 1:], block[None, 1:, 0])
              for kind, block in rates.blocks.items() if kind != "phonon"}
    report = _steady_reports(_generator_rows(rates.w[None].copy()), ground)[0]
    if isinstance(report, SteadyStateError):
        raise report
    _warn_low_ground(report)
    return report


def _warn_low_ground(report: SteadyStateReport) -> None:
    """Warn, on behalf of the caller's caller, when a report's ground
    population is at or below ``MIN_GROUND_POPULATION``."""
    ground = report.ground_population
    if ground <= MIN_GROUND_POPULATION:
        warnings.warn(
            f"ground population {ground:.4f} <= {MIN_GROUND_POPULATION}; "
            "the single-excitation treatment may not be justified at "
            "these rates", stacklevel=3)


def _steady_reports(chi: np.ndarray, ground: dict[str, tuple]) -> list:
    """:func:`solve_steady_state` of a stack of generators (R, dim, dim)
    and their per-kind ground <-> excited rate vectors (as
    ``spectral._rate_rows`` returns them), without its warning: per row
    its SteadyStateReport or SteadyStateError.  chi keeps its bits."""
    populations, residual, errors = _steady_rows(chi)
    fluxes = {kind: flux.tolist()
              for kind, flux in _flux_rows(populations, ground).items()}
    currents = fluxes.get("extraction", [0.0] * len(chi))
    return [error if error is not None else SteadyStateReport(
        populations=p, current=current, residual=res, ground_population=p0,
        fluxes={kind: flux[r] for kind, flux in fluxes.items()})
        for r, (error, p, current, res, p0) in enumerate(zip(
            errors, populations, currents, residual.tolist(),
            populations[:, 0].tolist()))]
