"""Non-secular weak-coupling density-matrix solver.

Cross-validates the population rate equation by solving the full
Redfield-type master equation, which keeps coherences between
eigenstates.  For each channel with Hermitian coupling operator A and
spectral density S the dissipator is

    D[rho] = sum_{w, w'} S(w)/2 (A(w) rho A(w')^dag - A(w')^dag A(w) rho)
             + h.c.

with A(w) the frequency components of A in the eigenbasis.  The double
frequency sum factorizes exactly: with G = sum_w S(w) A(w) (elementwise,
G_nm = S(eps_m - eps_n) A_nm) and real symmetric A,

    D[rho] = (G rho A + A rho G^T - A G rho - rho G^T A) / 2,

so the superoperator is assembled from a handful of dense products
instead of an explicit frequency decomposition.  The normalization is
fixed so that the secular (diagonal) part reproduces the golden-rule
rates of the population equation exactly.

Everything is represented in the eigenbasis of the system Hamiltonian
and density matrices are vectorized row-major.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .defaults import MAX_BRME_DIMENSION
from .environment import Channel
from .pme import SteadyStateReport
from .spectral import EigenSystem


class BrmeError(RuntimeError):
    """Raised for dimension overflow or degenerate steady states."""


def _eigenbasis_operator(es: EigenSystem, ch: Channel) -> np.ndarray:
    """The channel's coupling operator, built from its site weights, in
    the eigenbasis of ``es``."""
    dim = es.dimension
    op = np.zeros((dim, dim))
    if ch.eigen_target is not None:
        idx = dim - 1 if ch.eigen_target == "highest" else 1
        op[0, idx] = op[idx, 0] = 1.0
        return op
    w = ch.operator
    if w is None or w.shape != (dim - 1,):
        raise BrmeError(f"{ch.kind} channel operator has wrong dimension")
    vex = es.vectors[1:, 1:]
    if ch.kind == "phonon":
        sites = np.flatnonzero(w)
        op[1:, 1:] = vex[sites].T @ (w[sites, None] * vex[sites])
    else:
        op[0, 1:] = op[1:, 0] = w @ vex
    return op


@dataclass
class Liouvillian:
    """Dense superoperator over vectorized density matrices."""

    matrix: np.ndarray
    eigensystem: EigenSystem = field(repr=False)
    channels: list[Channel] = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.eigensystem.dimension


def build_liouvillian(es: EigenSystem, channels: list[Channel],
                      max_dimension: int = MAX_BRME_DIMENSION) -> Liouvillian:
    """Assemble the superoperator for a channel set.

    Channels are grouped by their shared spectral density so each group
    costs one stacked matrix product; this keeps the build time for the
    largest supported systems in seconds.  Raises BrmeError when the
    Hilbert-space dimension exceeds ``max_dimension`` (the superoperator
    memory grows with its fourth power).
    """
    dim = es.dimension
    if dim > max_dimension:
        raise BrmeError(
            f"dimension {dim} exceeds the density-matrix solver cap "
            f"{max_dimension}; raise max_dimension explicitly or use the "
            "population solver for systems this large")
    energies = es.energies
    omega = energies[None, :] - energies[:, None]

    groups: dict[object, list[np.ndarray]] = {}
    for ch in channels:
        groups.setdefault(ch.spectral, []).append(_eigenbasis_operator(es, ch))

    t4 = np.zeros((dim, dim, dim, dim))
    ag = np.zeros((dim, dim))
    for spectral, ops in groups.items():
        stack = np.stack(ops, axis=-1)          # (dim, dim, k)
        smat = np.asarray(spectral(omega), dtype=float)
        gstack = smat[:, :, None] * stack
        k = stack.shape[-1]
        gm = gstack.reshape(dim * dim, k)
        am = stack.reshape(dim * dim, k)
        m4 = (gm @ am.T).reshape(dim, dim, dim, dim)   # [a,c,b,d]
        t4 += 0.5 * (m4.transpose(0, 2, 1, 3) + m4.transpose(2, 0, 3, 1))
        ag += np.einsum('ack,cbk->ab', stack, gstack)
    matrix = t4.reshape(dim * dim, dim * dim).astype(complex)
    del t4
    eye = np.eye(dim)
    matrix -= 0.5 * (np.kron(ag, eye) + np.kron(eye, ag))
    matrix += -1j * (np.kron(np.diag(energies), eye)
                     - np.kron(eye, np.diag(energies)))
    return Liouvillian(matrix=matrix, eigensystem=es, channels=channels)


def _channel_ground_flux(es: EigenSystem, ch: Channel, rho: np.ndarray,
                         omega: np.ndarray) -> float:
    a = _eigenbasis_operator(es, ch)
    g = np.asarray(ch.spectral(omega), dtype=float) * a
    gain = g @ rho @ a + a @ rho @ g.T
    loss = a @ (g @ rho) + rho @ (g.T @ a)
    return float(np.real(gain[0, 0] - loss[0, 0]) / 2.0)


def brme_steady_state(liouvillian: Liouvillian) -> SteadyStateReport:
    """Solve for the steady density matrix and assemble the report.

    The singular system L rho = 0 is solved directly after replacing one
    row with the trace constraint; if that system is singular or leaves a
    large residual, a singular value decomposition identifies the null
    space and a degenerate steady state is reported as an error.  The
    result is Hermitized and trace-normalized; mild negative eigenvalues
    (a known artifact of non-secular weak-coupling equations) are
    reported, while violations beyond 1e-6 raise.
    """
    mat = liouvillian.matrix
    dim = liouvillian.dimension
    es = liouvillian.eigensystem
    size = dim * dim
    trace_row = np.zeros(size)
    trace_row[:: dim + 1] = 1.0
    scale = float(np.abs(mat).max())

    rho_vec = None
    constrained = mat.copy()
    constrained[0, :] = trace_row
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0
    try:
        candidate = np.linalg.solve(constrained, rhs)
        if np.abs(mat @ candidate).max() <= 1e-8 * max(scale, 1.0):
            rho_vec = candidate
    except np.linalg.LinAlgError:
        pass
    if rho_vec is None:
        _, svals, vt = np.linalg.svd(mat)
        null_dim = int(np.sum(svals <= 1e-10 * max(svals[0], 1.0)))
        if null_dim != 1:
            raise BrmeError(
                f"degenerate steady state: null space dimension {null_dim}")
        rho_vec = vt[-1].conj()

    rho = rho_vec.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < 1e-14:
        raise BrmeError("steady-state candidate has vanishing trace")
    rho = rho / trace
    residual = float(np.abs(mat @ rho.reshape(-1)).max())

    eigvals = np.linalg.eigvalsh(rho)
    min_eig = float(eigvals.min())
    if min_eig < -1e-6:
        raise BrmeError(
            f"steady state strongly violates positivity (min eigenvalue "
            f"{min_eig:.3e})")
    if min_eig < -1e-8:
        warnings.warn(
            f"mild positivity violation in steady state (min eigenvalue "
            f"{min_eig:.3e})", stacklevel=2)

    diag = np.clip(np.real(np.diag(rho)), 0.0, None)
    off = rho - np.diag(np.diag(rho))
    diag_mass = float(np.linalg.norm(np.diag(rho)))
    coherence_fraction = (float(np.linalg.norm(off)) / diag_mass
                          if diag_mass > 0 else 0.0)

    energies = es.energies
    omega = energies[None, :] - energies[:, None]
    fluxes: dict[str, float] = {}
    for ch in liouvillian.channels:
        if ch.kind == "phonon":
            continue
        value = _channel_ground_flux(es, ch, rho, omega)
        if ch.kind == "injection":
            value = -value
        fluxes[ch.kind] = fluxes.get(ch.kind, 0.0) + value
    current = fluxes.get("extraction", 0.0)

    return SteadyStateReport(
        populations=diag, current=current, fluxes=fluxes,
        residual=residual, uniqueness_gap=np.inf,
        ground_population=float(np.real(rho[0, 0])), method="brme",
        extras={
            "min_eigenvalue": min_eig,
            "coherence_fraction": coherence_fraction,
            "trace_error": float(abs(np.trace(rho).real - 1.0)),
        },
        density_matrix=rho,
    )
