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

The secular (diagonal) part is the golden-rule rate matrix of the
population equation by construction: coupling vectors and secular rates
are read from the rate kernel of :mod:`excitonchain.spectral`, the only
code that decides how a channel's rows act in the eigenbasis.

No superoperator is formed.  In the eigenbasis a phonon row w |s><s| is
the rank-1 operator w u u^T with u the site's row of the eigenvectors,
and every other row is the rank-2 ground <-> site operator
e0 a^T + a e0^T with a = w @ V (a unit vector for eigenbasis targets).
Applying the Liouvillian to a density matrix therefore costs
O(n_sites dim^2): the phonon gain terms are three products with the
(dim x n_sites) matrix of the u, the ground <-> site gain terms are fixed
(dim x dim) matrices acting on row 0, column 0 and the ground population,
and the loss matrix K = sum A G is summed once.  The steady state comes
from GMRES, preconditioned by the secular part of the Liouvillian and
started from its solution.  The GMRES is this module's own restarted
iteration (:func:`_gmres`), step for step scipy's, and the preconditioner
applies one stored inverse of the population generator, so the solver
runs on numpy alone.

The solve runs in real arithmetic.  A Hermitian rho = X + iY (X
symmetric, Y antisymmetric) is stored as the one real matrix S = X + Y,
a Frobenius isometry.  Every coefficient of L but the Bohr term is real
and L preserves Hermiticity, so on S it acts as S -> L_r(S) + omega o S^T
with omega_nm = eps_m - eps_n.  The complex GMRES iteration stays on
Hermitian matrices: the right-hand side, the start, the operator and the
preconditioner all preserve Hermiticity, and the Hermitian and
anti-Hermitian parts of a residual are orthogonal.  So the real iteration
produces the same iterates in exact arithmetic, with a quarter of the
flops in every product and half the Krylov memory.

Everything is represented in the eigenbasis of the system Hamiltonian and
density matrices are vectorized row-major.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .environment import Channel
from .pme import SteadyStateReport, _closed_classes, _generator_rows
from .spectral import EigenSystem, SpectralError, _couplings, _rate_rows

# GMRES stops once the residual falls this far below the residual of the
# secular start; restarts bound the Krylov memory at large dimension.
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 40
_GMRES_MAX_RESTARTS = 5


class BrmeError(RuntimeError):
    """Raised for invalid channels, degenerate steady states or a
    Krylov solve that does not converge."""


@dataclass
class Liouvillian:
    """The Liouvillian of an eigensystem and channel set, in factored form.

    Row c of ``matrix`` is the eigenbasis coupling vector of one operator
    row (a zero ground entry, then its ``spectral._couplings`` column),
    and ``kinds[c]`` its channel kind.  For ground <-> site rows, row c of
    ``emission`` is S(eps_m - eps_0) a_m and of ``absorption``
    S(eps_0 - eps_m) a_m (zero rows for phonon rows); ``phonon`` holds one
    (S(omega), U) pair per phonon channel, with its coupling vectors as
    the columns of U.  ``rates`` are the population equation's rates.
    The (dim x dim) pieces :meth:`apply` needs and the diagonal of the
    Liouvillian on the coherences are derived from these on construction.
    """

    matrix: np.ndarray
    emission: np.ndarray = field(repr=False)
    absorption: np.ndarray = field(repr=False)
    phonon: list[tuple[np.ndarray, np.ndarray]] = field(repr=False)
    eigensystem: EigenSystem = field(repr=False)
    kinds: list[str] = field(repr=False)
    rates: np.ndarray = field(repr=False)

    def __post_init__(self):
        a, g, h = self.matrix, self.emission, self.absorption
        energies = self.eigensystem.energies
        loss = a.T @ g
        loss[0, 0] += np.sum(a * h)
        dephasing = np.zeros_like(loss)
        for s, u in self.phonon:
            loss += u @ (u * (s.T @ u**2)).T
            # G_aa A_bb on the coherences: s[0, 0] = S(0)
            dephasing += s[0, 0] * (u**2 @ (u**2).T)
        decay = np.diag(loss)
        self._omega = energies[None, :] - energies[:, None]
        self._bohr = 1j * self._omega
        self._loss = loss
        self._transfer = a.T @ g + h.T @ a
        self._emission_form = g.T @ a + a.T @ g
        self._pump = h.T @ a + a.T @ h
        self.coherence_diagonal = (self._bohr + dephasing
                                   - 0.5 * (decay[:, None] + decay[None, :]))

    @property
    def dimension(self) -> int:
        return self.eigensystem.dimension

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L(rho) for a (dim x dim) density matrix, in O(n_sites dim^2)."""
        return self._dissipate(rho, self._bohr * rho)

    def apply_real(self, s: np.ndarray) -> np.ndarray:
        """L in the real form S = Re rho + Im rho of a Hermitian rho.

        Every coefficient of L but the Bohr term is real, and L keeps rho
        Hermitian, so the dissipator maps S to the real form of its image;
        the Bohr term i omega o rho becomes omega o S^T.
        """
        return self._dissipate(s, self._omega * s.T)

    def _dissipate(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add the dissipator of rho, real-linear in rho, to ``out``."""
        out -= 0.5 * (self._loss @ rho + rho @ self._loss.T)
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

    Stores one coupling vector per operator row and a few (dim x dim)
    arrays; the build takes O(n_rows dim^2) time.  The coupling vectors
    and the secular rates come from the population equation's rate kernel.
    Raises BrmeError for a channel whose weights do not match the system
    or a phonon row acting on more than one site.
    """
    energies = es.energies
    omega = energies[None, :] - energies[:, None]
    try:
        couplings = [_couplings(es.vectors[None], ch)[0].T for ch in channels]
        rates = _rate_rows(energies[None], es.vectors[None], channels)[0][0]
    except SpectralError as exc:
        raise BrmeError(str(exc)) from exc
    vectors = np.zeros((sum(len(c) for c in couplings), es.dimension))
    emission = np.zeros_like(vectors)
    absorption = np.zeros_like(vectors)
    phonon = []
    kinds: list[str] = []
    for ch, c in zip(channels, couplings):
        rows = slice(len(kinds), len(kinds) + len(c))
        kinds += [ch.kind] * len(c)
        vectors[rows, 1:] = c
        a = vectors[rows]
        if ch.kind == "phonon":
            phonon.append((np.asarray(ch.spectral(omega), dtype=float), a.T))
        else:
            emission[rows] = ch.spectral(omega[0]) * a
            absorption[rows] = ch.spectral(-omega[0]) * a
    return Liouvillian(matrix=vectors, emission=emission,
                       absorption=absorption, phonon=phonon,
                       eigensystem=es, kinds=kinds, rates=rates)


def _secular_inverse(liouvillian: Liouvillian):
    """The inverse of the secular part of L on vectorized real forms.

    The bordered population generator chi + e0 1^T is inverted once per
    solve, so the diagonal costs one product per call (a fresh solve per
    call is slower), and 1/c = p + iq with c the Liouvillian's diagonal
    on the coherences (1 where it vanishes) scales them: r / c becomes
    p o S + q o S^T in the real form.  Raises BrmeError when the secular
    rate graph has more than one closed class, which means a degenerate
    steady state.
    """
    dim = liouvillian.dimension
    rates = liouvillian.rates
    n_closed = len(_closed_classes(rates))
    if n_closed != 1:
        raise BrmeError(f"degenerate steady state: the secular rate graph "
                        f"has {n_closed} closed classes")
    chi = _generator_rows(rates[None])[0]
    chi[0] += 1.0
    chi_inverse = np.linalg.inv(chi)
    coherences = liouvillian.coherence_diagonal
    inverse = 1.0 / np.where(coherences == 0, 1.0, coherences)
    p, q = inverse.real, inverse.imag

    def precondition(x):
        s = x.reshape(dim, dim)
        z = p * s + q * s.T
        np.fill_diagonal(z, chi_inverse @ s.diagonal())
        return z.reshape(-1)

    return precondition


def _givens(f: float, g: float) -> tuple[float, float, float]:
    """(c, s, r) with c f + s g = r and c g - s f = 0, rounded as LAPACK's
    dlartg rounds them for arguments of moderate size."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    d = math.sqrt(f * f + g * g)
    r = math.copysign(d, f)
    return abs(f) / d, g / r, r


def _gmres(matvec, psolve, b: np.ndarray, callback) -> tuple[np.ndarray, bool]:
    """Solve matvec(x) = b from x = 0 by left-preconditioned GMRES.

    Restarted every ``_GMRES_RESTART`` iterations, at most
    ``_GMRES_MAX_RESTARTS`` times, and converged once |b - matvec(x)| <=
    ``_GMRES_RTOL`` |b|.  It is scipy's ``gmres`` step for step (its
    modified Gram-Schmidt order, Givens rotations and its inner tolerance
    on the preconditioned residual, which adapts after each restart), so
    it makes the same iterates and calls ``callback`` once per inner
    iteration with the preconditioned residual over |b|, as scipy's
    "pr_norm" callback does.  The Arnoldi basis lives in one preallocated
    array and the small Hessenberg problem in Python floats.  ``b`` is
    nonzero, and ``psolve`` returns a new array, which is overwritten.
    Returns (x, converged).
    """
    n = b.size
    restart = min(_GMRES_RESTART, n)
    eps = float(np.finfo(float).eps)
    bnrm2 = float(np.linalg.norm(b))
    atol = _GMRES_RTOL * bnrm2
    x = np.zeros(n)
    basis = np.empty((restart + 1, n))
    rows = list(basis)
    scaled = np.empty(n)
    z = psolve(b)
    # the inner loop stops on the preconditioned residual (scipy gh-8400)
    ptol_factor = 1.0
    ptol = float(np.linalg.norm(z)) * min(ptol_factor, atol / bnrm2)
    for _ in range(_GMRES_MAX_RESTARTS):
        beta = float(np.linalg.norm(z))
        np.multiply(z, 1 / beta, out=rows[0])
        rhs = [beta]
        columns: list[list[float]] = []
        rotations: list[tuple[float, float]] = []
        breakdown = False
        for col in range(restart):
            w = psolve(matvec(rows[col]))
            h0 = float(np.linalg.norm(w))
            h = []
            for vk in rows[:col + 1]:
                t = float(np.dot(vk, w))
                h.append(t)
                w -= np.multiply(vk, t, out=scaled)
            h1 = float(np.linalg.norm(w))
            if h1 <= eps * h0:
                h.append(0.0)
                breakdown = True
            else:
                h.append(h1)
                np.multiply(w, 1 / h1, out=rows[col + 1])
            for k, (c, s) in enumerate(rotations):
                h[k], h[k + 1] = (c * h[k] + s * h[k + 1],
                                  -s * h[k] + c * h[k + 1])
            c, s, h[col] = _givens(h[col], h[col + 1])
            h[col + 1] = 0.0
            rotations.append((c, s))
            columns.append(h)
            tail = -s * rhs[col]
            rhs[col] *= c
            rhs.append(tail)
            presid = abs(tail)
            callback(presid / bnrm2)
            if presid <= ptol or breakdown:
                break
        # back-substitute the triangular factor, pseudo-solving a zero pivot
        y = rhs[:col + 1]
        if columns[col][col] == 0:
            y[col] = 0.0
        for k in range(col, -1, -1):
            if y[k] != 0:
                y[k] /= columns[k][k]
                for j in range(k):
                    y[j] -= y[k] * columns[k][j]
        x += np.array(y) @ basis[:col + 1]
        r = b - matvec(x)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_factor = max(eps, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, atol / rnorm)
        z = psolve(r)
    return x, rnorm <= atol


def brme_steady_state(liouvillian: Liouvillian) -> SteadyStateReport:
    """Solve for the steady density matrix and assemble the report.

    Solves the bordered system L(rho) + |0><0| tr(rho) = |0><0|, whose
    solution is the trace-one steady state, with GMRES in real arithmetic
    on the real form S = Re rho + Im rho (see :meth:`Liouvillian.apply_real`;
    the border term is tr(S)).  The preconditioner is the secular part of
    L: the inverse of the population generator chi + e0 1^T, and the
    Liouvillian's diagonal on the coherences.  GMRES starts from the
    secular solution and solves for the correction, so its stopping test
    is relative to that start's residual (injection-sized) rather than to
    the unit right-hand side.  A secular rate graph with more than one
    closed class means a degenerate steady state and raises BrmeError, as
    does a solve that does not converge.  The result rho = sym(S) +
    i antisym(S) is exactly Hermitian and trace-normalized; mild negative
    eigenvalues (a known artifact of non-secular weak-coupling equations)
    are reported, while violations beyond 1e-6 raise.
    """
    dim = liouvillian.dimension
    size = dim * dim
    precondition = _secular_inverse(liouvillian)

    def bordered(x):
        s = x.reshape(dim, dim)
        out = liouvillian.apply_real(s)
        out[0, 0] += np.trace(s)
        return out.reshape(-1)

    rhs = np.zeros(size)
    rhs[0] = 1.0
    start = precondition(rhs)
    defect = rhs - bordered(start)
    initial_residual = float(np.linalg.norm(defect))
    iterations = 0
    s_vec = start
    if initial_residual > 0:
        def count(_):
            nonlocal iterations
            iterations += 1

        correction, converged = _gmres(bordered, precondition, defect, count)
        if not converged:
            raise BrmeError(f"GMRES did not converge in {iterations} "
                            f"iterations")
        s_vec = start + correction

    s = s_vec.reshape(dim, dim)
    trace = np.trace(s)
    if abs(trace) < 1e-14:
        raise BrmeError("steady-state candidate has vanishing trace")
    s = s / trace
    rho = 0.5 * (s + s.T) + 0.5j * (s - s.T)
    # |L(rho)|^2 = (W^2 + (W^T)^2) / 2 in the real form W of L(rho)
    w = liouvillian.apply_real(s)
    residual = float(np.sqrt(np.max(w**2 + w.T**2) / 2))

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
    for kind, value in zip(liouvillian.kinds, into_ground):
        if kind == "phonon":
            continue
        if kind == "injection":
            value = -value
        fluxes[kind] = fluxes.get(kind, 0.0) + float(value)
    current = fluxes.get("extraction", 0.0)

    return SteadyStateReport(
        populations=diag, current=current, fluxes=fluxes,
        residual=residual, ground_population=float(np.real(rho[0, 0])),
        method="brme",
        extras={
            "min_eigenvalue": min_eig,
            "coherence_fraction": coherence_fraction,
            "trace_error": float(abs(np.trace(rho).real - 1.0)),
            "krylov_iterations": iterations,
            "initial_residual": initial_residual,
        },
        density_matrix=rho,
    )
