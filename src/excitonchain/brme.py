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

    D[rho] = (G rho A + A rho G^T - A G rho - rho G^T A) / 2.

The normalization is fixed so that the secular (diagonal) part reproduces
the golden-rule rates of the population equation exactly.

No superoperator is formed.  In the eigenbasis a phonon channel w |s><s|
is the rank-1 operator w u u^T with u the site's row of the eigenvectors,
and every other channel is the rank-2 ground <-> site operator
e0 a^T + a e0^T with a = w @ V (a unit vector for eigenbasis targets).
Applying the Liouvillian to a density matrix therefore costs
O(n_sites dim^2): the phonon gain terms are three products with the
(dim x n_sites) matrix of the u, the ground <-> site gain terms are fixed
(dim x dim) matrices acting on row 0, column 0 and the ground population,
and the loss matrix K = sum A G is summed once.  The steady state comes
from GMRES, preconditioned by the secular part of the Liouvillian and
started from its solution.

Everything is represented in the eigenbasis of the system Hamiltonian and
density matrices are vectorized row-major.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, gmres

from .environment import Channel
from .pme import SteadyStateReport
from .spectral import EigenSystem

# GMRES stops once the residual falls this far below the residual of the
# secular start; restarts bound the Krylov memory at large dimension.
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 40
_GMRES_MAX_RESTARTS = 5


class BrmeError(RuntimeError):
    """Raised for invalid channels, degenerate steady states or a
    Krylov solve that does not converge."""


def _coupling_vector(es: EigenSystem, ch: Channel) -> np.ndarray:
    """The channel's coupling vector in the eigenbasis of ``es``.

    A phonon channel w |s><s| is w u u^T with u = V[s, :]; it is returned
    as sqrt(|w|) u, because the dissipator is quadratic in the operator
    and the sign of w drops out.  Every other channel is e0 a^T + a e0^T
    and returns a.
    """
    dim = es.dimension
    if ch.eigen_target is not None:
        a = np.zeros(dim)
        a[dim - 1 if ch.eigen_target == "highest" else 1] = 1.0
        return a
    w = ch.operator
    if w is None or w.shape != (dim - 1,):
        raise BrmeError(f"{ch.kind} channel operator has wrong dimension")
    if ch.kind != "phonon":
        return w @ es.vectors[1:]
    sites = np.flatnonzero(w)
    if sites.size != 1:
        raise BrmeError("phonon channel must act on a single site")
    site = sites[0]
    return np.sqrt(abs(w[site])) * es.vectors[site + 1]


@dataclass
class Liouvillian:
    """The Liouvillian of an eigensystem and channel set, in factored form.

    Row c of ``matrix`` is channel c's eigenbasis coupling vector (see
    :func:`_coupling_vector`).  For ground <-> site channels, row c of
    ``emission`` is S(eps_m - eps_0) a_m and of ``absorption``
    S(eps_0 - eps_m) a_m (zero rows for phonon channels); ``phonon`` holds
    one (S(omega), U) pair per phonon spectral density, with the coupling
    vectors as the columns of U.  The (dim x dim) pieces :meth:`apply`
    needs, the secular population rates and the diagonal of the
    Liouvillian on the coherences are derived from these on construction.
    """

    matrix: np.ndarray
    emission: np.ndarray = field(repr=False)
    absorption: np.ndarray = field(repr=False)
    phonon: list[tuple[np.ndarray, np.ndarray]] = field(repr=False)
    eigensystem: EigenSystem = field(repr=False)
    channels: list[Channel] = field(repr=False)

    def __post_init__(self):
        a, g, h = self.matrix, self.emission, self.absorption
        energies = self.eigensystem.energies
        dim = energies.shape[0]
        loss = a.T @ g
        loss[0, 0] += np.sum(a * h)
        # rates[n, m]: secular rate from population m into population n
        rates = np.zeros((dim, dim))
        rates[0] = np.sum(a * g, axis=0)
        rates[:, 0] += np.sum(a * h, axis=0)
        dephasing = np.zeros((dim, dim))
        for s, u in self.phonon:
            loss += u @ (u * (s.T @ u**2)).T
            overlap = u**2 @ (u**2).T
            rates += s * overlap
            # G_aa A_bb on the coherences: s[0, 0] = S(0)
            dephasing += s[0, 0] * overlap
        decay = np.diag(loss)
        self._bohr = 1j * (energies[None, :] - energies[:, None])
        self._loss = loss
        self._transfer = a.T @ g + h.T @ a
        self._emission_form = g.T @ a + a.T @ g
        self._pump = h.T @ a + a.T @ h
        self.rates = rates
        self.coherence_diagonal = (self._bohr + dephasing
                                   - 0.5 * (decay[:, None] + decay[None, :]))

    @property
    def dimension(self) -> int:
        return self.eigensystem.dimension

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a (dim x dim) density matrix, in O(n_sites dim^2)."""
        out = self._bohr * rho - 0.5 * (self._loss @ rho
                                        + rho @ self._loss.T)
        for s, u in self.phonon:
            # G rho A and A rho G^T = (G rho^T A)^T, one channel per column
            q = u * (s @ (u * (np.stack([rho, rho.T]) @ u)))
            jump = q @ u.T
            out += 0.5 * (jump[0] + jump[1].T)
        # ground <-> site gain terms: column 0 feeds row 0 and vice versa,
        # excited populations and coherences feed rho_00, rho_00 the pump
        out[0] += 0.5 * (self._transfer @ rho[:, 0])
        out[:, 0] += 0.5 * (self._transfer @ rho[0])
        out[0, 0] += 0.5 * np.sum(self._emission_form * rho)
        out += 0.5 * rho[0, 0] * self._pump
        return out


def build_liouvillian(es: EigenSystem,
                      channels: list[Channel]) -> Liouvillian:
    """Factor the Liouvillian of a channel set in the eigenbasis of ``es``.

    Stores one coupling vector per channel and a few (dim x dim) arrays;
    the build takes O(n_channels dim^2) time.  Raises BrmeError for
    a channel whose weights do not match the system or a phonon channel
    acting on more than one site.
    """
    energies = es.energies
    omega = energies[None, :] - energies[:, None]
    vectors = np.zeros((len(channels), es.dimension))
    emission = np.zeros_like(vectors)
    absorption = np.zeros_like(vectors)
    phonon_groups: dict[object, list[int]] = {}
    for c, ch in enumerate(channels):
        vectors[c] = _coupling_vector(es, ch)
        if ch.kind == "phonon":
            phonon_groups.setdefault(ch.spectral, []).append(c)
        else:
            emission[c] = ch.spectral(omega[0]) * vectors[c]
            absorption[c] = ch.spectral(-omega[0]) * vectors[c]
    phonon = [(np.asarray(spectral(omega), dtype=float), vectors[rows].T)
              for spectral, rows in phonon_groups.items()]
    return Liouvillian(matrix=vectors, emission=emission,
                       absorption=absorption, phonon=phonon,
                       eigensystem=es, channels=channels)


def _closed_classes(rates: np.ndarray) -> int:
    """Number of closed communicating classes of a rate graph, where
    ``rates[n, m]`` is the rate from m into n."""
    edges = rates.T > 0
    np.fill_diagonal(edges, False)
    n_classes, labels = connected_components(edges, directed=True,
                                             connection="strong")
    src, dst = np.nonzero(edges)
    leaving = labels[src][labels[src] != labels[dst]]
    return n_classes - np.unique(leaving).size


def brme_steady_state(liouvillian: Liouvillian) -> SteadyStateReport:
    """Solve for the steady density matrix and assemble the report.

    Solves the bordered system L(rho) + |0><0| tr(rho) = |0><0|, whose
    solution is the trace-one steady state, with GMRES.  The preconditioner
    is the secular part of L: one LU of the population generator
    chi + e0 1^T, and the Liouvillian's diagonal on the coherences.  GMRES
    starts from the secular solution and solves for the correction, so its
    stopping test is relative to that start's residual (injection-sized)
    rather than to the unit right-hand side.  A secular rate graph with
    more than one closed class means a degenerate steady state and raises
    BrmeError, as does a solve that does not converge.  The result is
    Hermitized and trace-normalized; mild negative eigenvalues (a known
    artifact of non-secular weak-coupling equations) are reported, while
    violations beyond 1e-6 raise.
    """
    dim = liouvillian.dimension
    size = dim * dim
    rates = liouvillian.rates
    n_closed = _closed_classes(rates)
    if n_closed != 1:
        raise BrmeError(f"degenerate steady state: the secular rate graph "
                        f"has {n_closed} closed classes")
    chi = rates - np.diag(np.diag(rates))
    chi -= np.diag(chi.sum(axis=0))
    chi[0] += 1.0
    populations = scipy.linalg.lu_factor(chi)
    coherences = liouvillian.coherence_diagonal.copy()
    coherences[coherences == 0] = 1.0

    def precondition(x):
        r = x.reshape(dim, dim)
        z = r / coherences
        np.fill_diagonal(z, scipy.linalg.lu_solve(populations, r.diagonal()))
        return z.reshape(-1)

    def bordered(x):
        rho = x.reshape(dim, dim)
        out = liouvillian.apply(rho)
        out[0, 0] += np.trace(rho)
        return out.reshape(-1)

    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0
    start = precondition(rhs)
    defect = rhs - bordered(start)
    initial_residual = float(np.linalg.norm(defect))
    iterations = 0
    rho_vec = start
    if initial_residual > 0:
        def count(_):
            nonlocal iterations
            iterations += 1

        correction, info = gmres(
            LinearOperator((size, size), matvec=bordered, dtype=complex),
            defect, rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
            maxiter=_GMRES_MAX_RESTARTS,
            M=LinearOperator((size, size), matvec=precondition,
                             dtype=complex),
            callback=count, callback_type="pr_norm")
        if info > 0:
            raise BrmeError(f"GMRES did not converge in {iterations} "
                            f"iterations")
        rho_vec = start + correction

    rho = rho_vec.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < 1e-14:
        raise BrmeError("steady-state candidate has vanishing trace")
    rho = rho / trace
    residual = float(np.abs(liouvillian.apply(rho)).max())

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

    # net flow into the ground state per channel: Re(a^T rho g) - (a.h) rho_00
    a = liouvillian.matrix
    into_ground = (np.real(np.sum(a * (liouvillian.emission @ rho.T), axis=1))
                   - np.sum(a * liouvillian.absorption, axis=1)
                   * rho[0, 0].real)
    fluxes: dict[str, float] = {}
    for ch, value in zip(liouvillian.channels, into_ground):
        if ch.kind == "phonon":
            continue
        if ch.kind == "injection":
            value = -value
        fluxes[ch.kind] = fluxes.get(ch.kind, 0.0) + float(value)
    current = fluxes.get("extraction", 0.0)

    return SteadyStateReport(
        populations=diag, current=current, fluxes=fluxes,
        residual=residual, uniqueness_gap=np.inf,
        ground_population=float(np.real(rho[0, 0])), method="brme",
        extras={
            "min_eigenvalue": min_eig,
            "coherence_fraction": coherence_fraction,
            "trace_error": float(abs(np.trace(rho).real - 1.0)),
            "krylov_iterations": iterations,
            "initial_residual": initial_residual,
        },
        density_matrix=rho,
    )
