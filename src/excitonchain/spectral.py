"""Eigenstructure analysis and golden-rule transition rates.

Diagonalization keeps the ground state as an exact basis vector (it is
coherently decoupled) and returns excited eigenstates in ascending energy
order.  One diagonalizer, :func:`_eigen_rows`, solves every stack of
rows of one kind, and each row takes one of three paths:

- a clean chain of identical cells has the excited block
  T (x) 1_n + 1_N (x) B, with T the (N x N) chain block and B the (n x n)
  cell block (B = [[0]] for one site per cell).  Clean is decided by
  construction (no disorder, no dipoles or one dipole on every site:
  ``Hamiltonian.factors``), never by testing the block.  A chain's clean
  rows are one stack, (chain half, [cell halves]): T and each B with its
  numpy eigh (LAPACK syevd), solved once per chain length and once per
  coupling: energies t_i + b_j, vectors U_i (x) W_j.  As the centroid
  operator between two of them is delta_ii' W_j^T Y W_j', the rule below
  acts on the cell modes W alone, once per coupling (:func:`_cell_modes`);
- every other row comes as its excited block (disorder, per-site
  dipoles) and is solved with the other such rows of its stack by one
  stacked full-space eigh (LAPACK syevd, divide and conquer); a block
  with a non-finite entry is reported, not solved;
- a clean chain with a multiplet that holds two modes of distinct
  levels of B that no centroid splits is solved alone from the Kronecker
  sum of its factors, which equals its excited block bit for bit, by
  scipy's eigh (LAPACK syevr): that solver's arbitrary mixture inside the
  tie is the basis that stored results pin.  These rows are the
  package's only use of scipy, which they load at their first solve.

Every path then fixes a deterministic basis.  Inside each numerically
degenerate multiplet the centroid rule diagonalizes the in-plane centroid
operators (y, then z among remaining ties), so symmetric parallel chains
give reproducible, spatially distinct states rather than a LAPACK
mixture, and orders the partners by their (x, y, z) site-support
centroids.  The sign rule (:func:`_fix_signs`) runs on exported
eigensystems (:func:`diagonalize`) only: no solver output reads a sign,
since rates and brightness are quadratic in each vector, and negating a
vector negates every product and sum of the density-matrix solve exactly.

Transition rates between eigenstates follow the golden rule: for each
channel the rate from state m into state n is the channel's spectral
density at eps_m - eps_n times the squared operator matrix element,
summed over the channel's operator rows.  How a channel's rows act in the
eigenbasis is decided here only, by :func:`_couplings`: the rates, the
brightness and the density-matrix solver's coupling vectors are all read
from it, so the secular part of that solver is this rate matrix.  Only
phonon rates link excited states; every other channel's rates sit in
row 0 and column 0, and the stacked kernel keeps them as two vectors per
kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DARK_THRESHOLD
from .environment import Channel
from .hamiltonian import Hamiltonian

_DEGENERACY_RTOL = 1e-9


class SpectralError(RuntimeError):
    """Raised when diagonalization or rate construction fails."""


@dataclass
class EigenSystem:
    """Sorted eigenbasis of a transport Hamiltonian.

    ``energies`` is ascending with the ground state first; column k of
    ``vectors`` is the k-th eigenstate in the ground + site basis, and
    ``hamiltonian`` is the Hamiltonian they diagonalize.
    """

    energies: np.ndarray
    vectors: np.ndarray
    hamiltonian: Hamiltonian

    @property
    def dimension(self) -> int:
        return self.energies.shape[-1]

    @property
    def n_excited(self) -> int:
        return self.dimension - 1

    @property
    def excited_energies(self) -> np.ndarray:
        return self.energies[1:]

    @property
    def site_amplitudes(self) -> np.ndarray:
        """(n_excited, n_sites) array: row n holds state n's site amplitudes."""
        return self.vectors[1:, 1:].T

    @property
    def geometry(self):
        return self.hamiltonian.geometry

    def cell_centroids(self) -> np.ndarray:
        """Mean (1-based) cell index of each excited state's site support."""
        return self.site_amplitudes**2 @ self.geometry.cells


def _group_ranges(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    groups = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[start] > tol:
            groups.append((start, k))
            start = k
    return groups


def _degeneracy_tol(eps: np.ndarray):
    """The degeneracy tolerance of a spectrum, or one per row of a stack."""
    return _DEGENERACY_RTOL * np.maximum(1.0, np.abs(eps).max(axis=-1))


def _resolve_degeneracies(eps: np.ndarray, vecs: np.ndarray,
                          positions: np.ndarray) -> np.ndarray:
    """Fix a canonical eigenbasis inside each degenerate multiplet, in
    place: the centroid rule.  Multiplets of one size are rotated
    together, one stacked ``eigh`` per size and axis.  Spectra without a
    multiplet (disorder almost always lifts them) are returned unchanged
    after one vectorized spacing test."""
    tol = _degeneracy_tol(eps)
    if not np.any(np.diff(eps) <= tol):
        return vecs
    multiplets = [(lo, hi) for lo, hi in _group_ranges(eps, tol)
                  if hi - lo > 1]
    ties = multiplets
    for axis in (1, 2):
        coords = positions[:, axis]
        starts_by_size: dict[int, list[int]] = {}
        for lo, hi in ties:
            starts_by_size.setdefault(hi - lo, []).append(lo)
        ties = []
        for size, starts in starts_by_size.items():
            cols = np.add.outer(starts, np.arange(size))
            block = vecs[:, cols].transpose(1, 0, 2)
            centroid_op = block.transpose(0, 2, 1) @ (coords[:, None] * block)
            centroid_vals, rot = np.linalg.eigh(centroid_op)
            vecs[:, cols] = (block @ rot).transpose(1, 0, 2)
            apart = np.all(np.diff(centroid_vals, axis=1) > 1e-9, axis=1)
            for r in np.flatnonzero(~apart):
                ties.extend((starts[r] + a, starts[r] + b)
                            for a, b in _group_ranges(centroid_vals[r], 1e-9)
                            if b - a > 1)
    # order the states of each multiplet by centroid along the transport
    # axis, then in-plane, for reproducible exports
    cols = np.concatenate([np.arange(lo, hi) for lo, hi in multiplets])
    squares = np.ascontiguousarray((vecs[:, cols] ** 2).T)
    keys = np.round((squares[:, None, :] @ positions)[:, 0, :], 9)
    owner = np.repeat(np.arange(len(multiplets)),
                      [hi - lo for lo, hi in multiplets])
    vecs[:, cols] = vecs[:, cols[np.lexsort((*keys.T[::-1], owner))]]
    return vecs


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make each eigenvector's largest-magnitude component positive, in
    place (a strided view too), and return ``vecs``.

    The first site whose magnitude is within ``_DEGENERACY_RTOL`` of the
    largest leads, so mirror components that differ in the eigensolver's
    last bits do not pick the sign.
    """
    mag = np.abs(vecs)
    top = mag.max(axis=-2, keepdims=True) * (1.0 - _DEGENERACY_RTOL)
    lead = np.argmax(mag >= top, axis=-2)
    signs = np.sign(np.take_along_axis(vecs, lead[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    return np.multiply(vecs, signs, out=vecs)


def _eigen_rows(stack, eg: float, geometry) -> tuple:
    """Diagonalize a stack of R rows sharing one geometry.

    The stack is R excited blocks (R, n, n), solved together by
    :func:`_full_eigen` where finite, or one clean chain's (chain half,
    [R cell halves]) (:func:`_eigen_stack`), solved by
    :func:`_sector_rows`.  Masks over the stack then flag failed rows and
    rows whose lowest excited energy does not exceed ``eg``; the sign rule
    is left to exported eigensystems (see the module docstring).  Returns
    (energies, vectors, errors): energies (R, n + 1) with the ground
    energy first, eigenvectors (R, n + 1, n + 1) in the ground + site
    basis, and per row None or its SpectralError (its energies and
    vectors are then NaN).
    """
    clean, n = isinstance(stack, tuple), geometry.n_sites
    count = len(stack[1] if clean else stack)
    energies = np.empty((count, n + 1))
    full = np.zeros((count, n + 1, n + 1))
    if clean:
        finite = np.ones(count, dtype=bool)
        _sector_rows(stack, geometry.positions, energies[:, 1:],
                     full[:, 1:, 1:])
    else:
        blocks = np.asarray(stack)
        finite = np.isfinite(blocks).all(axis=(1, 2))
        solved = slice(None) if finite.all() else finite  # a mask would copy
        energies[~finite, 1:] = full[~finite, 1:, 1:] = np.nan
        energies[solved, 1:], full[solved, 1:, 1:] = _full_eigen(
            blocks[solved], geometry.positions)
    failed = np.isnan(energies[:, 1])
    low = ~failed & ~(energies[:, 1] > eg)
    errors: list = [None] * count
    for r in np.flatnonzero(failed | low):
        errors[r] = SpectralError(
            "excited block has non-finite entries" if not finite[r]
            else "eigendecomposition did not converge" if failed[r]
            else f"lowest excited eigenvalue {energies[r, 1]:g} does not "
                 f"exceed the ground-state energy {eg:g}; increase the "
                 "manifold offset")
    energies[low, 1:] = full[low, 1:, 1:] = np.nan
    energies[:, 0] = eg
    full[:, 0, 0] = 1.0
    return energies, full, errors


def _full_eigen(blocks: np.ndarray, positions: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Excited energies and vectors of a stack of finite blocks (R, n, n)
    from one stacked full-space eigh (LAPACK syevd), put through the
    centroid rule; NaN for a row LAPACK fails on.  One spacing test over
    the stack picks the rows that hold a multiplet, and only those go
    through the rule.

    One row that does not converge fails the whole stacked call, so a
    failed stack is solved again row by row; every other row then keeps
    the bits its own solve gives.
    """
    try:
        eps, vecs = np.linalg.eigh(blocks)
    except np.linalg.LinAlgError:
        if len(blocks) == 1:
            return np.full(blocks.shape[:2], np.nan), np.full(blocks.shape,
                                                              np.nan)
        rows = [_full_eigen(block[None], positions) for block in blocks]
        return (np.concatenate([eps for eps, _ in rows]),
                np.concatenate([vecs for _, vecs in rows]))
    tol = _degeneracy_tol(eps)
    for r in np.flatnonzero(np.any(np.diff(eps, axis=1) <= tol[:, None],
                                   axis=1)):
        _resolve_degeneracies(eps[r], vecs[r], positions)
    return eps, vecs


def _pinned_eigen(block: np.ndarray, positions: np.ndarray) -> tuple:
    """Excited energies and vectors of one block from scipy's full-space
    eigh (LAPACK syevr), put through the centroid rule; NaN if it fails.
    Only a clean chain whose multiplet holds a tied pair of cell modes
    (:func:`_cell_modes`) comes here: syevr's arbitrary mixture inside
    that tie is the basis stored results pin."""
    import scipy.linalg  # only these rows load scipy, at their first solve

    try:
        eps, vecs = scipy.linalg.eigh(block)
    except np.linalg.LinAlgError:  # pragma: no cover - rare
        return np.full(len(block), np.nan), np.full(block.shape, np.nan)
    return eps, _resolve_degeneracies(eps, vecs, positions)


def _factor_eigen(block: np.ndarray) -> tuple:
    """A clean chain's block T or B with its numpy eigh (LAPACK syevd):
    (block, levels, vectors), T's the chain half of a clean stack.  Only
    the pinned rows (:func:`_pinned_eigen`) use syevr."""
    if not np.isfinite(block).all():
        raise SpectralError("excited block has non-finite entries")
    try:
        return (block, *np.linalg.eigh(block))
    except np.linalg.LinAlgError as exc:
        raise SpectralError("eigendecomposition did not converge") from exc


def _cell_modes(block: np.ndarray, positions: np.ndarray) -> tuple:
    """The cell half (B, b, W, labels, tied) of a clean stack from B and
    the cell's site positions: B's eigh (:func:`_factor_eigen`), W
    through the centroid rule inside each level of B, each mode's rounded
    (y, z) centroid as its label, and ``tied[j, j']`` true for modes of
    distinct levels of B with one label, which no centroid splits."""
    block, b, w = _factor_eigen(block)
    w = _resolve_degeneracies(b, w, positions)
    labels = np.round(w.T**2 @ positions[:, 1:], 9)
    distinct = np.abs(b[:, None] - b) > _degeneracy_tol(b)
    return block, b, w, labels, distinct & (labels[:, None] == labels).all(-1)


def _sector_rows(stack: tuple, positions: np.ndarray, eps: np.ndarray,
                 vecs: np.ndarray) -> None:
    """Write into ``eps`` (R, N n) and ``vecs`` (R, N n, N n) the excited
    eigenpairs of a clean stack (chain, cells) (:func:`_eigen_stack`):
    for the chain half (T, t, U) and the cell half ``cells[r]`` (B, b, W,
    labels, tied), t_i + b_j and U[:, i] (x) W[:, j], stably sorted, each
    multiplet ordered by the centroid rule (diagonal on them: U_i's x,
    then W_j's (y, z) label).  A row whose multiplet holds a tied pair is
    :func:`_pinned_eigen` of its Kronecker sum T (x) 1_n + 1_N (x) B, the
    dense excited block bit for bit.  Each row keeps the bits of its stack
    of one."""
    ((t_block, t, u), cells), count = stack, len(stack[1])
    n_cells, n = len(t), len(cells[0][1])
    b, w, labels = (np.array([cell[k] for cell in cells]) for k in (1, 2, 3))
    levels = (t[:, None] + b[:, None]).reshape(count, -1)
    order = np.argsort(levels, kind="stable")
    eps[:] = levels = np.take_along_axis(levels, order, -1)
    # column k of row r is U[:, i] (x) W_r[:, j], (i, j) = divmod(order, n)
    i, j = np.divmod(order, n)
    tol = _degeneracy_tol(levels)[:, None]
    multiplet = np.cumsum(np.diff(levels, prepend=levels[:, :1]) > tol, -1)
    x = np.round(u.T**2 @ positions[::n, 0], 9)
    label = labels[np.arange(count)[:, None], j]
    keys = np.lexsort((label[..., 1], label[..., 0], x[i], multiplet))
    i, j = np.take_along_axis(i, keys, -1), np.take_along_axis(j, keys, -1)
    np.multiply(u[:, i].transpose(1, 0, 2)[:, :, None],
                np.take_along_axis(w, j[:, None], -1)[:, None],
                out=vecs.reshape(count, n_cells, n, -1))
    for r in np.flatnonzero([cell[4].any() for cell in cells]):
        present = np.zeros((multiplet[r, -1] + 1, n), dtype=bool)
        present[multiplet[r], j[r]] = True  # each multiplet's cell modes
        if (present & (present @ cells[r][4])).any():
            eps[r], vecs[r] = _pinned_eigen(
                np.kron(t_block, np.eye(n))
                + np.kron(np.eye(n_cells), cells[r][0]), positions)


def _eigen_stack(h: Hamiltonian):
    """``h`` as an :func:`_eigen_rows` stack of one: its clean stack
    (chain half, [cell half]) when it records factors, as a sweep's
    chain; else its excited block (1, n, n)."""
    if h.factors is None:
        return h.excited_block[None]
    chain, cell = h.factors
    return _factor_eigen(chain), [_cell_modes(
        cell, h.geometry.positions[:len(cell)])]


def diagonalize(h: Hamiltonian) -> EigenSystem:
    """Diagonalize the excited block and assemble the full eigensystem.

    The Hamiltonian is checked for symmetry and its stack of one
    (:func:`_eigen_stack`) solved by :func:`_eigen_rows`,
    and the sign rule applied to its vectors (:func:`_fix_signs`).
    Raises SpectralError if the solver fails or if any excited eigenvalue
    does not exceed the ground-state energy (the one-way ground <->
    excited channels assume a strictly positive gap).
    """
    sym_dev = float(np.abs(h.matrix - h.matrix.T).max())
    if sym_dev > 0.0:
        raise SpectralError(f"Hamiltonian not symmetric (max dev {sym_dev:g})")
    energies, vectors, errors = _eigen_rows(_eigen_stack(h), h.matrix[0, 0],
                                            h.geometry)
    if errors[0] is not None:
        raise errors[0]
    _fix_signs(vectors[0, 1:, 1:])
    return EigenSystem(energies=energies[0], vectors=vectors[0],
                       hamiltonian=h)


def brightness(es: EigenSystem, channels: list[Channel]) -> np.ndarray:
    """Collective optical weight of each eigenstate.

    For the scalar radiative channel this is rate^2 times the squared sum
    of site amplitudes; with dipole weighting it is rate^2 times the
    squared Euclidean norm of the amplitude-weighted dipole sum.  Returns
    one value per state, the ground slot 0.
    """
    return _brightness_rows(es.vectors[None], channels)[0]


def _brightness_rows(vectors: np.ndarray, channels: list[Channel]
                     ) -> np.ndarray:
    """:func:`brightness` of a stack of eigenvectors (R, dim, dim)."""
    radiative = [ch for ch in channels if ch.kind == "radiative"]
    if not radiative:
        raise SpectralError("no radiative channel supplied")
    total = np.zeros(vectors.shape[:2])
    for ch in radiative:
        total[:, 1:] += ch.spectral.rate**2 * (
            _couplings(vectors, ch) ** 2).sum(-1)
    return total


def _couplings(vectors: np.ndarray, channel: Channel) -> np.ndarray:
    """A channel's operator rows in a stack of eigenbases (R, dim, dim).

    Returns (R, n_excited, m): column c is operator row c's amplitude on
    each excited state.  A ground <-> site row w gives amp @ w (its
    ground entry is zero and not stored), read as w_s amp[:, s] when it
    acts on one site s.  A phonon row w |s><s| gives sqrt(|w|) amp[:, s]:
    rates and dissipator are quadratic in it, so the sign of w drops out.
    Such column selections (``Channel.projectors``) are views of
    ``vectors`` when unscaled and contiguous; nothing is written.  An
    eigenbasis target gives the unit column of the highest or lowest
    excited state.  This is the only place that reads a channel's
    operator or target.
    """
    rows, dim = vectors.shape[:2]
    if channel.eigen_target is not None:
        unit = np.zeros((rows, dim - 1, 1))
        unit[:, -1 if channel.eigen_target == "highest" else 0] = 1.0
        return unit
    weights = channel.operator
    if weights is None or weights.ndim != 2 or weights.shape[1] != dim - 1:
        raise SpectralError(
            f"{channel.kind} channel operator has wrong dimension")
    amp = vectors[:, 1:, 1:].transpose(0, 2, 1)
    if channel.projectors is not None:
        scale, sites = channel.projectors
        picked = amp[:, :, sites]
        return picked if scale is None else scale * picked
    if channel.kind == "phonon":
        raise SpectralError("phonon channel must act on a single site")
    return amp @ weights.T


@dataclass
class RateMatrix:
    """Golden-rule rates between eigenstates, with per-kind blocks.

    ``w[n, m]`` is the total rate from state m into state n; ``blocks``
    splits it by channel kind ("phonon", "radiative", ...), summing to
    ``w`` exactly.
    """

    w: np.ndarray
    blocks: dict[str, np.ndarray]


def transition_matrix(es: EigenSystem,
                      channels: list[Channel]) -> RateMatrix:
    """Build the full rate matrix from an eigensystem and a channel set.

    Each channel's rows share one product of their eigenbasis couplings
    (:func:`_couplings`): the phonon rows one overlap product of the
    squared couplings, the rows of every other channel, which couple the
    ground state to the excited states, one sum of squared couplings.
    Only phonon rates link excited states, so the phonon block is the
    excited corner of ``w``.
    """
    w, ground, _ = _rate_rows(es.energies[None], es.vectors[None], channels)
    w = w[0]
    blocks = {}
    for kind in dict.fromkeys(ch.kind for ch in channels):
        block = blocks[kind] = np.zeros_like(w)
        if kind == "phonon":
            block[1:, 1:] = w[1:, 1:]
        else:
            out, into = ground[kind]
            block[0, 1:], block[1:, 0] = out[0], into[0]
    return RateMatrix(w=w, blocks=blocks)


def _rate_rows(energies: np.ndarray, vectors: np.ndarray,
               channels: list[Channel]
               ) -> tuple[np.ndarray, dict[str, tuple], list[np.ndarray]]:
    """:func:`transition_matrix` of stacked eigensystems, without its
    dense blocks: the one rate pass of a stack, which the population and
    the density-matrix solver both read.

    ``energies`` is (R, dim) and ``vectors`` (R, dim, dim); neither is
    written.  Returns the total rates w (R, dim, dim); per ground <->
    excited kind in channel order, the pair (out, into) of (R, dim - 1)
    arrays: out[:, k] is the rate from excited state k + 1 into the
    ground state (w[:, 0, k + 1]), into[:, k] the rate back (w[:, k + 1,
    0]); and per phonon channel, in channel order, its spectral density
    (R, dim - 1, dim - 1) at the excited transitions, [:, n, m] at eps_m
    - eps_n.  Each kind's channels are summed before the kinds are, in
    channel order, so w has the bits of the sum of per-kind blocks.  A
    ground <-> excited channel whose spectral density is zero at every
    transition (a loss channel at rate 0) keeps its kind, with zero
    rates, and its coupling product is skipped.

    Each phonon density is evaluated in place, in a frequency array of
    its own, before w is allocated; the first phonon channel's overlap
    product is formed in w's excited block itself.
    """
    rows, dim = energies.shape
    densities = [ch.spectral._evaluate(energies[:, None, 1:]
                                       - energies[:, 1:, None])
                 for ch in channels if ch.kind == "phonon"]
    omega_from_excited = energies[:, 1:] - energies[:, :1]  # excited -> ground
    omega_into_excited = energies[:, :1] - energies[:, 1:]  # ground -> excited
    w = np.zeros((rows, dim, dim))
    excited, diag = w[:, 1:, 1:], np.arange(dim - 1)
    ground: dict[str, tuple] = {}
    phonon = enumerate(densities)
    for ch in channels:
        if ch.kind == "phonon":
            k, density = next(phonon)
            csq = _couplings(vectors, ch) ** 2
            # |<n| w_s P_s |m>|^2 = (|w_s| c_ns^2) (|w_s| c_ms^2)
            rates = np.matmul(csq, csq.transpose(0, 2, 1),
                              out=None if k else excited)
            del csq
            rates *= density
            rates[:, diag, diag] = 0.0  # the diagonal n = m
            if k:
                excited += rates
            continue
        out, into = ground.setdefault(ch.kind, (np.zeros((rows, dim - 1)),
                                                np.zeros((rows, dim - 1))))
        emission = ch.spectral(omega_from_excited)
        absorption = ch.spectral(omega_into_excited)
        if emission.any() or absorption.any():
            # ground <-> excited rows: sum over the channel's couplings
            # squared, laid out row by row so the sum keeps its order
            c = _couplings(vectors, ch)
            alpha_sq = np.square(c, out=np.empty(c.shape)).sum(-1)
            out += emission * alpha_sq
            into += absorption * alpha_sq
    for out, into in ground.values():
        w[:, 0, 1:] += out
        w[:, 1:, 0] += into
    return w, ground, densities


@dataclass(frozen=True)
class BrightDarkCensus:
    """Partition of the excited states by collective optical weight.

    ``band_gap`` is min(bright energies) - max(dark energies).
    ``band_gap_detrended`` first removes each state's share of the linear
    energy gradient (using its cell centroid), which measures the
    separation of the two bands as local band structure rather than in
    absolute energy; for long chains the gradient span can exceed the
    coupling-induced splitting even though every cell's bright states sit
    well above its dark states.
    """

    n_bright: int
    n_dark: int
    bright_indices: np.ndarray
    dark_indices: np.ndarray
    threshold: float
    band_gap: float | None
    band_gap_detrended: float | None


def classify_bright_dark(es: EigenSystem, brightness: np.ndarray,
                         threshold_fraction: float = DARK_THRESHOLD
                         ) -> BrightDarkCensus:
    """Label each excited state dark iff its ``brightness`` (as returned
    by :func:`brightness`) is below ``threshold_fraction`` times the
    maximum brightness, or when that maximum is zero (no state radiates)."""
    dark_mask, cutoff = _dark_mask(brightness[1:], threshold_fraction)
    dark = np.flatnonzero(dark_mask) + 1
    bright = np.flatnonzero(~dark_mask) + 1
    gap = gap_removed = None
    if dark.size and bright.size:
        energies = es.excited_energies
        gap = float(energies[bright - 1].min() - energies[dark - 1].max())
        params = es.hamiltonian.params
        offsets = (es.geometry.n_cells - es.cell_centroids()) * params.delta_e
        detrended = energies - offsets
        gap_removed = float(detrended[bright - 1].min()
                            - detrended[dark - 1].max())
    return BrightDarkCensus(
        n_bright=int(bright.size), n_dark=int(dark.size),
        bright_indices=bright, dark_indices=dark,
        threshold=float(cutoff), band_gap=gap,
        band_gap_detrended=gap_removed,
    )


def _dark_mask(b: np.ndarray, threshold_fraction: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Dark-state mask of excited brightnesses (..., n) and the cutoff."""
    _check_dark_threshold(threshold_fraction)
    cutoff = threshold_fraction * b.max(axis=-1, keepdims=True)
    # with no brightness at all no state radiates: every state is dark
    return (b < cutoff) | (cutoff == 0), cutoff[..., 0]


def _check_dark_threshold(fraction: float) -> None:
    """Reject a dark threshold outside (0, 1), naming the setting."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"dark_threshold must lie in (0, 1), got {fraction}")


def eigenstructure_tables(es: EigenSystem, brightness: np.ndarray
                          ) -> tuple[list[dict], list[dict]]:
    """Flatten an eigensystem and its :func:`brightness` into per-state
    and per-amplitude rows.

    Returns (states, amplitudes): one row per eigenstate with energy and
    brightness, and one row per (excited state, site) pair with the
    site-basis amplitude.
    """
    states = [
        {"state_index": k, "energy": float(es.energies[k]),
         "brightness": float(brightness[k])}
        for k in range(es.dimension)
    ]
    geometry = es.geometry
    amp = es.site_amplitudes
    amplitudes = []
    for n in range(es.n_excited):
        for s in range(geometry.n_sites):
            amplitudes.append(
                {"state_index": n + 1, "energy": float(es.energies[n + 1]),
                 "brightness": float(brightness[n + 1]), "site_index": s,
                 "cell": int(geometry.cells[s]),
                 "slot": int(geometry.slots[s]),
                 "amplitude": float(amp[n, s])}
            )
    return states, amplitudes
