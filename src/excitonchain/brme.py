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
population equation by construction: coupling vectors, secular rates and
the phonon densities at excited transitions are read from the rate
kernel of :mod:`excitonchain.spectral`, the only code that decides how a
channel's rows act in the eigenbasis.

No superoperator is formed.  In the eigenbasis a phonon row w |s><s| is
the rank-1 operator w u u^T with u the site's row of the eigenvectors,
and every other row is the rank-2 ground <-> site operator
e0 a^T + a e0^T with a = w @ V (a unit vector for eigenbasis targets).
The rows are kept by role: a (density, u vectors) pair per phonon
channel, and the ground <-> site rows in one array beside their emission
forms.
Applying the Liouvillian to a density matrix therefore costs
O(n_sites dim^2): the phonon gain terms are three products with the
(dim x n_sites) matrix of the u, the ground <-> site gain terms are fixed
(dim x dim) matrices acting on row 0, column 0 and the ground population,
and the loss matrix K = sum A G is summed once.  The steady state comes
from GMRES, preconditioned by the secular part of the Liouvillian and
started from its solution.  The GMRES is this module's own restarted
iteration (:func:`_gmres`), step for step scipy's, and the preconditioner
applies one stored inverse of the bordered population generator, taken
with the population solver's batched solve, so the solver runs on numpy
alone.

The solver takes stacks of eigensystems only, as the population solver
does, so a single solve is a stack of one.  A :class:`Liouvillian` holds
the factored pieces of R eigensystems as (R, ...) arrays, built with
batched products from the stack's one rate pass and the generators both
solvers read (``pme._generator_rows``), and one lockstep GMRES solves
the R rows: every product runs on the whole stack, while each row keeps
its own Hessenberg matrix, rotations and inner tolerance.  Restarts run in
step: a row whose cycle ends, or that has stopped, rides along with its
result dropped until the cycle's last row ends, and then every
unconverged row restarts together.  Neither batching nor waiting changes
a row's arithmetic, so each row is still scipy's ``gmres`` step for
step, with the iterates, Krylov count and bits of its own solve, and a
row that fails gets its own error while the others solve.

The solve runs in real arithmetic, and L is applied in the real form
only (:meth:`Liouvillian.apply_real`).  A Hermitian rho = X + iY (X
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
from dataclasses import InitVar, dataclass, field

import numpy as np

from .environment import Channel
from .pme import SteadyStateReport, _bordered_solve, _class_errors, \
    _generator_rows
from .spectral import SpectralError, _couplings, _rate_rows

# GMRES stops once the residual falls this far below the residual of the
# secular start; restarts bound the Krylov memory at large dimension.
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 40
_GMRES_MAX_RESTARTS = 5


class BrmeError(RuntimeError):
    """Raised for invalid channels, degenerate steady states or a
    Krylov solve that does not converge."""


def _t(a: np.ndarray) -> np.ndarray:
    """Each matrix of a stack transposed (a view)."""
    return a.swapaxes(-1, -2)


@dataclass
class Liouvillian:
    """The Liouvillians of a stack of R eigensystems, with ``energies``
    (R, dim), and one channel set, in factored form, its rows by role.

    Row c of ``matrix[r]`` is the eigenbasis coupling vector a of one
    ground <-> site row (a zero ground entry, then its
    ``spectral._couplings`` column), ``kinds[c]`` its channel kind and
    row c of ``emission[r]`` its emission form S(eps_m - eps_0) a_m; its
    absorption form S(eps_0 - eps_m) a_m is read on construction, which
    keeps the row's uptake a.h in ``uptake`` (R, C).  ``phonon`` holds
    one (S(omega), vectors) pair per phonon channel: its density (R, dim,
    dim) and its rows' coupling vectors (R, m, dim), zero at the ground
    entry.  ``generators`` (R, dim, dim) are the population equation's
    generators chi, which the solve reads and does not write, and
    ``ground`` its per-kind (out, into) rate vectors, as
    ``spectral._rate_rows`` returns them.  The (dim x dim) pieces
    :meth:`apply_real` needs are derived from these on construction, in
    batched products; the diagonal of the Liouvillian on the coherences
    (``coherence_diagonal``) is formed on request.
    """

    matrix: np.ndarray
    emission: np.ndarray = field(repr=False)
    absorption: InitVar[np.ndarray]
    phonon: list[tuple[np.ndarray, np.ndarray]] = field(repr=False)
    energies: np.ndarray = field(repr=False)
    kinds: list[str] = field(repr=False)
    generators: np.ndarray = field(repr=False)
    ground: dict[str, tuple] = field(repr=False)

    def __post_init__(self, absorption: np.ndarray):
        a, g, h = self.matrix, self.emission, absorption
        ag, ha, ah = _t(a) @ g, _t(h) @ a, a * h
        self.uptake = ah.sum(axis=2)
        loss = ag.copy()
        loss[:, 0, 0] += ah.sum(axis=(1, 2))
        for s, c in self.phonon:
            u = _t(c)
            loss += u @ _t(u * (_t(s) @ u**2))
        # the pieces L applies from: the Bohr frequencies omega, the loss
        # matrix K and the ground <-> site gain matrices
        self._omega = self.energies[:, None, :] - self.energies[:, :, None]
        self._loss = loss
        self._transfer = ag + ha
        self._emission_form = _t(g) @ a + ag
        self._pump = ha + _t(a) @ h

    @property
    def coherence_diagonal(self) -> np.ndarray:
        """The Liouvillian's diagonal on the coherences, (R, dim, dim),
        formed on each call so that a solve does not hold it."""
        dephasing = np.zeros_like(self._loss)
        for s, c in self.phonon:
            u = _t(c)
            # G_aa A_bb on the coherences: s[:, 0, 0] = S(0)
            dephasing += s[:, :1, :1] * (u**2 @ _t(u**2))
        decay = np.diagonal(self._loss, axis1=1, axis2=2)
        return (1j * self._omega + dephasing
                - 0.5 * (decay[:, :, None] + decay[:, None, :]))

    def apply_real(self, s: np.ndarray) -> np.ndarray:
        """L on a stack (R, dim, dim) of real forms S = Re rho + Im rho of
        Hermitian rho, in O(n_sites dim^2) each: the dissipator, real on
        real matrices, maps S to the real form of its image, and the Bohr
        term i omega o rho becomes omega o S^T."""
        out = self._omega * _t(s)
        # in place where it keeps the order of every operation
        loss = self._loss @ s
        loss += s @ _t(self._loss)
        loss *= 0.5
        out -= loss
        for density, a in self.phonon:
            density, a = density[:, None], a[:, None]  # over (S, S^T)
            u = _t(a)
            # G S A and A S G^T = (G S^T A)^T, one channel per column; each
            # stacked temporary is freed as soon as it is used up
            pair = np.empty((len(s), 2) + s.shape[1:])
            pair[:, 0], pair[:, 1] = s, _t(s)
            q = pair @ u
            del pair
            q *= u
            q = density @ q
            q *= u
            jump = q @ a
            del q
            gain = jump[:, 0] + _t(jump[:, 1])
            del jump
            gain *= 0.5
            out += gain
        # ground <-> site gain terms: column 0 feeds row 0 and vice versa,
        # excited populations and coherences feed S_00, S_00 the pump
        out[:, 0] += 0.5 * (self._transfer @ s[:, :, :1])[..., 0]
        out[:, :, 0] += 0.5 * (self._transfer @ s[:, 0, :, None])[..., 0]
        out[:, 0, 0] += 0.5 * (self._emission_form * s).sum(axis=(1, 2))
        out += 0.5 * s[:, :1, :1] * self._pump
        return out


def build_liouvillian(energies: np.ndarray, vectors: np.ndarray,
                      channels: list[Channel], rates: tuple | None = None
                      ) -> Liouvillian:
    """Factor the Liouvillians of a channel set in the eigenbases of a
    stack of R eigensystems, energies (R, dim) and vectors (R, dim, dim).

    Stores one coupling vector per operator row, kept by role, and a few
    (dim x dim) arrays per eigensystem; the build takes O(n_rows dim^2)
    time per eigensystem, in products batched over the stack.  The
    coupling vectors come from the population equation's rate kernel,
    and so do the secular generators and the phonon densities at excited
    transitions: ``rates`` is the stack's rate pass
    (``spectral._rate_rows`` of its energies and vectors) with its rate
    matrices turned into generators (``pme._generator_rows``), made here
    when the caller has none.  Off the excited block a phonon density
    holds S(0) alone, at [0, 0], which ``coherence_diagonal`` reads as
    pure dephasing: every other entry there meets a zero ground coupling,
    so its products vanish exactly.  Raises BrmeError for a channel whose
    weights do not match the system or a phonon row acting on more than
    one site.
    """
    count, dim = energies.shape
    try:
        couplings = [_couplings(vectors, ch) for ch in channels]
        if rates is None:
            w, ground, densities = _rate_rows(energies, vectors, channels)
            rates = _generator_rows(w), ground, densities
    except SpectralError as exc:
        raise BrmeError(str(exc)) from exc
    chi, ground, densities = rates
    densities = iter(densities)
    matrix = np.zeros((count, sum(c.shape[2] for ch, c in zip(
        channels, couplings) if ch.kind != "phonon"), dim))
    emission, absorption = np.empty_like(matrix), np.empty_like(matrix)
    omega0 = energies - energies[:, :1]  # eps_m - eps_0
    phonon, kinds = [], []
    for ch, c in zip(channels, couplings):
        if ch.kind == "phonon":
            s = np.zeros((count, dim, dim))
            s[:, 1:, 1:] = next(densities)
            s[:, 0, 0] = ch.spectral(0.0)
            a = np.zeros((count, c.shape[2], dim))
            a[:, :, 1:] = _t(c)
            phonon.append((s, a))
            continue
        rows = slice(len(kinds), len(kinds) + c.shape[2])
        kinds += [ch.kind] * c.shape[2]
        a = matrix[:, rows]
        a[:, :, 1:] = _t(c)
        emission[:, rows] = ch.spectral(omega0)[:, None] * a
        absorption[:, rows] = ch.spectral(-omega0)[:, None] * a
    return Liouvillian(matrix=matrix, emission=emission,
                       absorption=absorption, phonon=phonon,
                       energies=energies, kinds=kinds, generators=chi,
                       ground=ground)


def _secular_inverse(liouvillian: Liouvillian) -> tuple:
    """The inverses of the secular parts of a stack's L on vectorized real
    forms.

    The bordered population generator chi + e0 1^T of each row, a copy of
    its ``generators`` row, is inverted once per solve, by the population
    solver's batched solve against the identity (``pme._bordered_solve``),
    so the diagonal costs one product per call (a fresh solve per call is
    slower), and 1/c = p + iq with c the Liouvillian's diagonal on the
    coherences (1 where it vanishes) scales them: r / c becomes p o S + q
    o S^T in the real form.  Returns (precondition, errors):
    ``precondition(x)`` applies the inverses of the stack's rows to x (R,
    dim^2), and errors holds per row None or its BrmeError: the population
    solver's verdict of a degenerate steady state (``pme._class_errors``),
    with its message, or a singular bordered generator (a NaN row of the
    solve).  A failed row's inverse is taken as zero.
    """
    chi = liouvillian.generators
    dim = chi.shape[1]
    errors = [None if error is None else BrmeError(str(error))
              for error in _class_errors(chi)[0]]
    bordered = chi.copy()
    bordered[:, 0] += 1.0
    chi_inverse = _bordered_solve(bordered, np.broadcast_to(np.eye(dim),
                                                            chi.shape))
    del bordered
    for r in np.flatnonzero(np.isnan(chi_inverse).any(axis=(1, 2))):
        errors[r] = errors[r] or BrmeError(
            "the bordered secular generator is singular")
    # a failed row's inverse is zero, so its stand-in solve stays finite
    chi_inverse[[error is not None for error in errors]] = 0.0
    coherences = liouvillian.coherence_diagonal
    inverse = 1.0 / np.where(coherences == 0, 1.0, coherences)
    p, q = np.ascontiguousarray(inverse.real), np.ascontiguousarray(
        inverse.imag)
    del inverse

    def precondition(x: np.ndarray) -> np.ndarray:
        s = x.reshape(-1, dim, dim)
        z = (p * s + q * _t(s)).reshape(len(s), dim * dim)
        z[:, ::dim + 1] = (chi_inverse @ x[:, ::dim + 1, None])[..., 0]
        return z

    return precondition, errors


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


def _norms(a: np.ndarray) -> np.ndarray:
    """Row-wise 2-norms of a (k, n) array, with ``np.linalg.norm``'s bits:
    ``np.vecdot`` takes each row's dot with the BLAS dot of ``np.dot``."""
    return np.sqrt(np.vecdot(a, a))


def _gmres(matvec, psolve, b: np.ndarray, callback
           ) -> tuple[np.ndarray, np.ndarray]:
    """Solve matvec(x) = b from x = 0 by left-preconditioned GMRES, for
    each row of a stack b (R, n), in lockstep.

    A row is restarted every ``_GMRES_RESTART`` iterations, at most
    ``_GMRES_MAX_RESTARTS`` times, and converged once |b - matvec(x)| <=
    ``_GMRES_RTOL`` |b|.  Each row is scipy's ``gmres`` step for step (its
    modified Gram-Schmidt order, Givens rotations and its inner tolerance
    on the preconditioned residual, which adapts after each restart), so
    it makes the same iterates and calls ``callback(r, value)`` once per
    inner iteration of row r with the preconditioned residual over |b|,
    as scipy's "pr_norm" callback does.  A zero row of b is solved by
    x = 0 and takes no step.

    The rows share every product: ``matvec`` and ``psolve`` apply the
    operators of the whole stack to (R, n) arrays, and the dot products
    and norms are batched, each row's with the bits of its own.  Restarts
    run in step, so every row of a cycle stands at the same Arnoldi
    column.  A row whose cycle ends rides along on finite stand-in
    vectors, its results dropped, as a stopped row does; once the cycle's
    last row has ended, every row back-substitutes, one residual product
    follows and every unconverged row restarts.  A row keeps its
    Hessenberg matrix, rotations and tolerance in Python floats.  The
    Arnoldi bases live in one (R, n) array per column, allocated as a
    cycle first reaches it.  ``psolve`` returns a new array, which is
    overwritten.  Returns (x, converged), converged an (R,) boolean array.
    """
    count, n = b.shape
    restart = min(_GMRES_RESTART, n)
    eps = float(np.finfo(float).eps)
    bnrm2 = _norms(b).tolist()
    atol = [_GMRES_RTOL * value for value in bnrm2]
    x = np.zeros((count, n))
    converged = np.array([value == 0 for value in bnrm2])
    active = np.flatnonzero(~converged).tolist()
    # basis[k] holds column k of every row's Arnoldi basis, allocated as a
    # cycle first reaches it; zeros, so a row that never reaches it stands
    # in with a finite vector
    basis = [np.zeros((count, n))]
    scaled = np.empty((count, n))
    rhs: list = [None] * count
    columns: list = [None] * count
    rotations: list = [None] * count
    breakdown = [False] * count
    presid = [0.0] * count
    ptol_factor = [1.0] * count
    ptol = [0.0] * count
    z = psolve(b)
    beta = _norms(z).tolist()
    # the inner loop stops on the preconditioned residual (scipy gh-8400)
    for r in active:
        ptol[r] = beta[r] * min(1.0, atol[r] / bnrm2[r])
    for cycle in range(1, _GMRES_MAX_RESTARTS + 1):
        if not active:
            break
        for r in active:
            np.multiply(z[r], 1 / beta[r], out=basis[0][r])
            rhs[r], columns[r], rotations[r] = [beta[r]], [], []
            breakdown[r] = False
        del z
        running = active
        for j in range(restart):
            w = psolve(matvec(basis[j]))
            if len(basis) < j + 2:
                basis.append(np.zeros((count, n)))
            h0 = _norms(w).tolist()
            # modified Gram-Schmidt, batched over the stack
            dots = np.empty((j + 1, count))
            for k, vk in enumerate(basis[:j + 1]):
                w -= np.multiply(vk, np.vecdot(vk, w, out=dots[k])[:, None],
                                 out=scaled)
            dots = dots.T.tolist()
            h1 = _norms(w).tolist()
            going = []
            for r in running:
                h = dots[r]
                if h1[r] > eps * h0[r]:
                    h.append(h1[r])
                    np.multiply(w[r], 1 / h1[r], out=basis[j + 1][r])
                else:
                    h.append(0.0)
                    breakdown[r] = True
                for k, (c, s) in enumerate(rotations[r]):
                    h[k], h[k + 1] = (c * h[k] + s * h[k + 1],
                                      -s * h[k] + c * h[k + 1])
                c, s, h[j] = _givens(h[j], h[j + 1])
                h[j + 1] = 0.0
                rotations[r].append((c, s))
                columns[r].append(h)
                tail = -s * rhs[r][j]
                rhs[r][j] *= c
                rhs[r].append(tail)
                presid[r] = abs(tail)
                callback(r, presid[r] / bnrm2[r])
                if presid[r] > ptol[r] and not breakdown[r]:
                    going.append(r)
            running = going
            if not running:
                break
        del w  # the step's vectors, freed before the cycle's products
        for r in active:
            # back-substitute the triangular factor, pseudo-solving a zero
            # pivot
            triangle = columns[r]
            last = len(triangle) - 1
            y = rhs[r][:last + 1]
            if triangle[last][last] == 0:
                y[last] = 0.0
            for k in range(last, -1, -1):
                if y[k] != 0:
                    y[k] /= triangle[k][k]
                    for i in range(k):
                        y[i] -= y[k] * triangle[k][i]
            x[r] += np.array(y) @ np.array([column[r]
                                            for column in basis[:last + 1]])
        residual = b - matvec(x)
        rnorm = _norms(residual).tolist()
        restarted = []
        for r in active:
            converged[r] = rnorm[r] <= atol[r]
            if converged[r] or breakdown[r]:
                continue
            if presid[r] <= ptol[r]:
                ptol_factor[r] = max(eps, 0.25 * ptol_factor[r])
            else:
                ptol_factor[r] = min(1.0, 1.5 * ptol_factor[r])
            ptol[r] = presid[r] * min(ptol_factor[r], atol[r] / rnorm[r])
            restarted.append(r)
        active = restarted
        if active and cycle < _GMRES_MAX_RESTARTS:
            z = psolve(residual)
            beta = _norms(z).tolist()
    return x, converged


def brme_steady_state(liouvillian: Liouvillian) -> list:
    """Solve each row of a stack for its steady density matrix and
    assemble the reports: per row its SteadyStateReport or the BrmeError
    it failed with.

    Each row solves the bordered system L(rho) + |0><0| tr(rho) = |0><0|,
    whose solution is the trace-one steady state, with GMRES in real
    arithmetic on the real form S = Re rho + Im rho (see
    :meth:`Liouvillian.apply_real`; the border term is tr(S)).  The
    preconditioner is the secular part of L (:func:`_secular_inverse`):
    the inverse of the population generator chi + e0 1^T, and the
    Liouvillian's diagonal on the coherences.  GMRES starts from the
    secular solution and solves for the correction, so its stopping test
    is relative to that start's residual (injection-sized) rather than to
    the unit right-hand side.  The rows of the stack share one lockstep
    GMRES (:func:`_gmres`).  A row fails with the population solver's
    verdict of a degenerate steady state (``pme._class_errors`` on the
    secular generators, the same message), with a singular bordered
    generator, with a solve that does not converge, with a vanishing
    trace, or with a positivity violation beyond 1e-6; milder negative
    eigenvalues (a known artifact of non-secular weak-coupling equations)
    warn on behalf of the caller.  The result rho = sym(S) + i antisym(S)
    is exactly Hermitian and trace-normalized.
    ``extras["population_share"]`` is the share of the extraction current
    that eigenstate populations carry, sum_k out_k rho_kk / J with out
    the secular extraction rates (None when J is zero).
    """
    count, _, dim = liouvillian.matrix.shape
    size = dim * dim
    precondition, errors = _secular_inverse(liouvillian)

    def bordered(x: np.ndarray) -> np.ndarray:
        s = x.reshape(count, dim, dim)
        out = liouvillian.apply_real(s)
        out[:, 0, 0] += np.trace(s, axis1=1, axis2=2)
        return out.reshape(count, size)

    rhs = np.zeros((count, size))
    rhs[:, 0] = 1.0
    s_vec = precondition(rhs)
    defect = rhs - bordered(s_vec)
    del rhs
    defect[[error is not None for error in errors]] = 0.0  # no Krylov step
    initial_residual = _norms(defect).tolist()
    iterations = [0] * count

    def step(r, _):
        iterations[r] += 1

    correction, converged = _gmres(bordered, precondition, defect, step)
    moving = [r for r, value in enumerate(initial_residual) if value > 0]
    s_vec[moving] += correction[moving]
    for r in moving:
        if not converged[r]:
            errors[r] = BrmeError(f"GMRES did not converge in "
                                  f"{iterations[r]} iterations")

    trace = np.trace(s_vec.reshape(count, dim, dim), axis1=1, axis2=2)
    for r, value in enumerate(trace.tolist()):
        if errors[r] is None and abs(value) < 1e-14:
            errors[r] = BrmeError("steady-state candidate has vanishing "
                                  "trace")
    solved = [error is None for error in errors]
    if not any(solved):
        return errors
    # every row goes on, a failed one with a stand-in trace of one
    s = s_vec.reshape(count, dim, dim) / np.where(solved, trace,
                                                  1.0)[:, None, None]
    rho = 0.5 * (s + _t(s)) + 0.5j * (s - _t(s))
    # |L(rho)|^2 = (W^2 + (W^T)^2) / 2 in the real form W of L(rho)
    w = liouvillian.apply_real(s)
    residual = np.sqrt(np.max(w**2 + _t(w)**2, axis=(1, 2)) / 2).tolist()
    min_eig = np.linalg.eigvalsh(rho).min(axis=1).tolist()
    extraction = liouvillian.ground.get("extraction")
    # net flow into the ground state per row: Re(a^T rho g) - (a.h) rho_00
    a, g = liouvillian.matrix, liouvillian.emission
    into_ground = (np.real(np.sum(a * (g @ _t(rho)), axis=2))
                   - liouvillian.uptake * rho[:, :1, 0].real).tolist()
    for r in np.flatnonzero(solved).tolist():
        if min_eig[r] < -1e-6:
            errors[r] = BrmeError(
                f"steady state strongly violates positivity (min eigenvalue "
                f"{min_eig[r]:.3e})")
            continue
        if min_eig[r] < -1e-8:
            warnings.warn(
                f"mild positivity violation in steady state (min eigenvalue "
                f"{min_eig[r]:.3e})", stacklevel=2)
        errors[r] = _report(rho[r], residual[r], min_eig[r],
                            zip(liouvillian.kinds, into_ground[r]),
                            None if extraction is None else extraction[0][r],
                            iterations[r], initial_residual[r])
    return errors


def _report(rho: np.ndarray, residual: float, min_eig: float, flows,
            extraction_out: np.ndarray | None, iterations: int,
            initial_residual: float) -> SteadyStateReport:
    """The report of one solved row: its populations, coherence fraction
    and per-kind fluxes, from the (kind, flow into the ground state) pairs
    ``flows`` of its ground <-> site rows."""
    diag = np.clip(np.real(np.diag(rho)), 0.0, None)
    off = rho - np.diag(np.diag(rho))
    diag_mass = float(np.linalg.norm(np.diag(rho)))
    coherence_fraction = (float(np.linalg.norm(off)) / diag_mass
                          if diag_mass > 0 else 0.0)
    fluxes: dict[str, float] = {}
    for kind, value in flows:
        if kind == "injection":
            value = -value
        fluxes[kind] = fluxes.get(kind, 0.0) + value
    current = fluxes.get("extraction", 0.0)
    share = (float(extraction_out @ diag[1:]) / current
             if extraction_out is not None and current else None)

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
            "population_share": share,
        },
        density_matrix=rho,
    )
