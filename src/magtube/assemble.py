"""Sparse self-adjoint operators: container, banded factor, eigensolvers.

The banded factor works on real ends, complex middle: a field or twist with
compact support leaves the rows outside it real, and those are factored and
swept in real arithmetic (see banded_cholesky).

All quadratic-form terms are assembled as F* diag(w) F from first-order
difference factors, so Hermiticity is exact by construction.  Covariant
derivatives use link phases (e^{i h a} on the lattice edge).  On planar and
untwisted spatial tubes that makes discrete gauge transforms exact unitary
conjugations and preserves the diamagnetic inequality at the matrix level.
The twist and R terms of a twisted tube average node values onto the
s-links without the link phase: a gauge transform moves its spectrum by
O(ds^2), and its diamagnetic floor is not proven.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.linalg.blas as blas
import scipy.sparse as sp

from .errors import EigensolverDiverged, GridBudgetError, NotPositiveDefinite

# Band storage (kd + 1) per row of one Cholesky factor, 8 bytes per entry on
# its real ends and 16 on a complex middle.  The largest shipped case, the
# full3d tube (n = 57,399, kd = 399; a complex middle of 25,620 rows), needs
# 266 MB (367 MB all complex).
BAND_BUDGET_BYTES = 2 * 1024**3

# Bandwidth from which a complex ?pbtrf gains from a second BLAS thread.  On
# 2 cores (n = 15,000, complex) 2 threads take 3.6x the one-thread time at
# kd = 39, 1.05x at kd = 192, 0.85x at kd = 256 and 0.66-0.74x at
# kd = 361-399.  Real bands gain at no width: 2 threads take 1.07-1.34x
# the one-thread time at kd = 320-399.
# Shipped 2D bands have kd 39-79, 3D bands kd 361-399.
WIDE_BAND = 256

# Basis rows of every Lanczos run (lanczos), ARPACK's default Krylov
# dimension.  A full basis restarts from its LANCZOS_ROWS // 2 largest Ritz
# vectors, so one run finds at most that many pairs.
LANCZOS_ROWS = 20


# -- BLAS thread pools ------------------------------------------------------------

# Counts each open blas_threads block found on entry; the first entry holds
# the counts in force outside every block.  OpenBLAS pools are per process.
_SAVED_COUNTS: list = []


@functools.cache
def _blas_pools() -> tuple:
    """(name, get, set) of every OpenBLAS pool mapped into the process:
    numpy's libscipy_openblas64_, scipy's libscipy_openblas and a system
    libopenblas.  Empty when there is none (MKL, Accelerate, no procfs)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return ()
    pools = []
    for path in sorted(p for p in paths if os.path.isfile(p)):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((os.path.basename(path), get, set_))
                break
    return tuple(pools)


@contextlib.contextmanager
def blas_threads(n: int | None):
    """Run the block with every OpenBLAS pool at ``n`` threads, restoring
    the previous counts on exit.  ``n = None`` selects the counts in force
    outside the outermost open block (``OPENBLAS_NUM_THREADS`` unless a
    caller set them).  Re-entrant and usable as a decorator; a no-op without
    an OpenBLAS pool.  Not safe across Python threads: the pools are
    process-wide."""
    pools = _blas_pools()
    saved = [get() for _, get, _ in pools]
    if n is None:
        target = _SAVED_COUNTS[0] if _SAVED_COUNTS else saved
    else:
        target = [n] * len(pools)
    _SAVED_COUNTS.append(saved)
    try:
        for (_, _, set_), k in zip(pools, target):
            set_(k)
        yield
    finally:
        _SAVED_COUNTS.pop()
        for (_, _, set_), k in zip(pools, saved):
            set_(k)


def blas_report() -> dict:
    """Each OpenBLAS pool found, with the thread count that the complex
    middles of band factors of kd >= WIDE_BAND get from it; all other
    solver work runs on one thread."""
    pools = _blas_pools()
    ambient = _SAVED_COUNTS[0] if _SAVED_COUNTS else [g() for _, g, _ in pools]
    return {"pools": {name: k for (name, _, _), k in zip(pools, ambient)},
            "wide_band": WIDE_BAND}


@dataclass
class RegimeParams:
    """Scaling regime: cross-section scale eps, field intensity b = eps^-delta.

    delta <= 1 is the supported range; eps*b >> 1 is out of scope.
    An explicit b overrides the eps^-delta coupling (used at eps = 1).
    """

    eps: float = 1.0
    delta: float = 1.0
    b: float | None = None
    K: float | None = None

    def __post_init__(self):
        if self.delta > 1.0 + 1e-12:
            raise ValueError("delta <= 1 required (eps*b >> 1 regime unsupported)")
        if self.b is None:
            self.b = self.eps ** (-self.delta)


@dataclass
class AssembledOperator:
    """Sparse Hermitian operator plus grid/regime bookkeeping.

    shift is the energy shift already applied to ``matrix`` (e.g.
    -eps^-2 lam1 + K); bc tags the boundary condition per face.
    """

    matrix: sp.spmatrix
    grid: dict
    bc: dict
    shift: float = 0.0
    regime: RegimeParams | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.matrix)

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.getH()
        scale = max(1.0, abs(self.matrix).max())
        return float(abs(d).max() / scale) if d.nnz else 0.0


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    ess_threshold: float | None = None

    @property
    def discrete_flags(self) -> np.ndarray:
        if self.ess_threshold is None:
            return np.zeros(len(self.eigenvalues), dtype=bool)
        return self.eigenvalues < self.ess_threshold


def cov_link_matrix(n_cols, idx_l, idx_r, h, phases=None):
    """Covariant forward difference on lattice links.

    With phases: row per link (D u)_link = (-i/h)(e^{i phi} u_right - u_left),
    the first-order factor of (-i d/dx + a)^2 with phi = h * a(midpoint).
    Without phases: the plain forward difference (u_right - u_left)/h.
    Dirichlet endpoints (index -1) contribute zero.
    """
    idx_l = np.asarray(idx_l)
    idx_r = np.asarray(idx_r)
    nlinks = len(idx_l)
    if phases is None:
        coef_r = np.full(nlinks, 1.0 / h)
        coef_l = np.full(nlinks, -1.0 / h)
    else:
        coef_r = (-1j / h) * np.exp(1j * np.asarray(phases))
        coef_l = np.full(nlinks, 1j / h, dtype=complex)
    rows, cols, vals = [], [], []
    for idx, coef in ((idx_r, coef_r), (idx_l, coef_l)):
        sel = idx >= 0
        rows.append(np.nonzero(sel)[0])
        cols.append(idx[sel])
        vals.append(coef[sel])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nlinks, n_cols),
    )


def form_term(factor: sp.spmatrix, weights=None) -> sp.csr_matrix:
    """F* diag(w) F, exactly Hermitian."""
    if weights is None:
        return (factor.getH() @ factor).tocsr()
    W = sp.diags(np.asarray(weights))
    return (factor.getH() @ (W @ factor)).tocsr()


def dirichlet_links(n_nodes: int):
    """(idx_l, idx_r) of the n + 1 links of a chain of n nodes whose two
    end links reach a Dirichlet ghost (index -1)."""
    idx = np.arange(-1, n_nodes + 1)
    idx[0] = idx[-1] = -1
    return idx[:-1], idx[1:]


def dirichlet_second_difference(n_nodes: int, h: float) -> sp.csr_matrix:
    """-d^2/dx^2 on n interior nodes, Dirichlet ends, via D^T D on links."""
    D = cov_link_matrix(n_nodes, *dirichlet_links(n_nodes), h)
    return form_term(D)


def _band(kd: int, width: int, rows, cols, values) -> np.ndarray:
    """Upper band storage (kd + 1) x width, Fortran-ordered, of the entries
    (rows, cols, values), rows <= cols."""
    ab = np.zeros((kd + 1, width), dtype=values.dtype, order="F")
    ab[kd + rows - cols, cols] = values
    return ab


def _factor(ab: np.ndarray, threads: int | None, row_of, n: int):
    """?pbtrf of the band ``ab``, in place, on ``threads`` BLAS threads.
    ``row_of`` maps LAPACK's 1-based pivot to a row of the n-row matrix."""
    try:
        with blas_threads(threads):
            return la.cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except la.LinAlgError as exc:
        pivot = row_of(int(re.match(r"\d+", str(exc)).group()))
        raise NotPositiveDefinite(
            f"the minor ending at row {pivot} (of {n}) is not positive; "
            "the operator is not positive definite",
            pivot=pivot,
        ) from exc


@blas_threads(1)
def _real_end(kd: int, n: int, width: int, band, coupling, row_of):
    """Factor U of a real end of ``width`` rows, numbered toward the
    middle, and W = T^-T C: T the trailing t x t triangle of U, t =
    min(kd, width), and C (t x kd) the end's coupling to the kd middle rows
    next to it.  ``band`` and ``coupling`` are (rows, cols, values) in those
    numberings; coupling rows count from the end's first row."""
    cb = _factor(_band(kd, width, *band), 1, row_of, n)
    t = min(kd, width)
    rows, cols, vals = coupling
    C = np.zeros((t, kd))
    C[rows - (width - t), cols] = vals
    i, j = np.triu_indices(t)
    T = np.zeros((t, t))
    T[i, j] = cb[kd + i - j, width - t + j]
    return cb, la.solve_triangular(T, C, trans="T", check_finite=False)


def _cho_solve(cb: np.ndarray, x: np.ndarray) -> np.ndarray:
    """?pbtrs with the band factor ``cb``; a complex x on a real factor is
    solved as its real and imaginary parts."""
    if np.iscomplexobj(x) and not np.iscomplexobj(cb):
        return _cho_solve(cb, x.real) + 1j * _cho_solve(cb, x.imag)
    return la.cho_solve_banded((cb, False), x, check_finite=False)


def _sweep(cb: np.ndarray, y: np.ndarray, trans: int) -> None:
    """y <- U^-T y (trans = 1) or U^-1 y (trans = 0) in place by ?tbsv, U
    the real band factor ``cb`` and y contiguous; a complex y is swept as
    its real and its imaginary part, read in place with stride 2."""
    kd = cb.shape[0] - 1
    if np.iscomplexobj(y):
        for part in (0, 1):
            blas.dtbsv(kd, cb, y.view(np.float64), offx=part, incx=2,
                       trans=trans, overwrite_x=1)
    else:
        blas.dtbsv(kd, cb, y, trans=trans, overwrite_x=1)


def banded_cholesky(matrix: sp.spmatrix):
    """Factor a Hermitian positive-definite sparse matrix; return its solve.

    LAPACK ?pbtrf on the upper band, whose width kd is read from the matrix.
    Tube operators in s-major order have kd = section size, so the band
    holds n (kd + 1) entries where SuperLU's fill is several times larger.
    Finiteness is checked once here, not on every solve.

    Real ends, complex middle.  A field or twist with compact support makes
    only the rows [lo, hi) complex: lo the first row and hi - 1 the last
    column of an entry with a nonzero imaginary part, widened to kd rows so
    that the two ends never couple.  The real ends L = [0, lo) and
    R = [hi, n), R in reverse order, are factored as real bands and
    eliminated toward the middle.  With T the trailing triangle of an end's
    factor and C its coupling to the middle, the Schur term W^T W,
    W = T^-T C, comes off the middle's leading or trailing kd x kd corner;
    only the middle is factored in the matrix dtype.  A matrix without a
    complex entry is one real band, one with complex entries in its first
    and last rows one complex band.  The block elimination is a congruence,
    so (Sylvester's law of inertia) positive pivots in all three factors
    prove the matrix positive definite.  A solve sweeps the real ends with
    ?tbsv, on the real and the imaginary part of a complex right-hand side.

    Raises NotPositiveDefinite, whose ``pivot`` is the 1-based row of the
    matrix at which a minor is not positive, and GridBudgetError when the
    bands (8 bytes per real entry) would exceed BAND_BUDGET_BYTES.  A
    complex middle of kd >= WIDE_BAND is factored with the thread counts in
    force outside every blas_threads block, every other band on one BLAS
    thread.
    """
    if not np.isfinite(matrix.data).all():
        raise ValueError("matrix has non-finite entries")
    upper = sp.triu(matrix, format="csr").tocoo()
    row, col, data = upper.row, upper.col, upper.data
    n = matrix.shape[0]
    kd = int((col - row).max(initial=0))
    lo, hi = 0, n
    if np.iscomplexobj(data) and data.imag.any():
        lo = int(row[data.imag != 0].min())
        hi = int(col[data.imag != 0].max()) + 1
        if hi - lo < kd:
            lo = min(max((lo + hi - kd) // 2, 0), n - kd)
            hi = lo + kd
    else:
        data = data.real
    m = hi - lo
    nbytes = (kd + 1) * (8 * (n - m) + data.itemsize * m)
    if nbytes > BAND_BUDGET_BYTES:
        raise GridBudgetError(
            f"band storage of {nbytes} bytes (n = {n}, kd = {kd}) exceeds "
            f"the budget {BAND_BUDGET_BYTES}; coarsen the grid"
        )
    # (middle corner, view of a vector on the end, factor, W) per real end
    ends = []
    if lo > 0:
        inner, cross = col < lo, (row < lo) & (col >= lo)
        ends.append((slice(0, kd), lambda x: x[:lo], *_real_end(
            kd, n, lo, (row[inner], col[inner], data.real[inner]),
            (row[cross], col[cross] - lo, data.real[cross]), lambda p: p)))
    if hi < n:
        inner, cross = row >= hi, (row < hi) & (col >= hi)
        ends.append((slice(m - kd, m), lambda x: x[::-1][:n - hi], *_real_end(
            kd, n, n - hi,
            (n - 1 - col[inner], n - 1 - row[inner], data.real[inner]),
            (n - 1 - col[cross], row[cross] - (hi - kd), data.real[cross]),
            lambda p: n + 1 - p)))
    if ends:
        inner = (row >= lo) & (col < hi)
        row, col, data = row[inner] - lo, col[inner] - lo, data[inner]
    ab = _band(kd, m, row, col, data)
    for corner, _, _, W in ends:
        i, j = np.triu_indices(kd)
        ab[kd + i - j, corner.start + j] -= (W.T @ W)[i, j]
    wide = kd >= WIDE_BAND and np.iscomplexobj(ab)
    cb = _factor(ab, None if wide else 1, lambda p: lo + p, n)

    def solve(rhs):
        if not ends:
            return _cho_solve(cb, rhs)
        x = np.array(rhs, dtype=np.result_type(rhs, cb))
        ys = [view(x).copy() for _, view, _, _ in ends]
        for (corner, _, cb_end, W), y in zip(ends, ys):
            _sweep(cb_end, y, 1)
            x[lo:hi][corner] -= W.T @ y[len(y) - len(W):]
        x[lo:hi] = _cho_solve(cb, x[lo:hi])
        for (corner, view, cb_end, W), y in zip(ends, ys):
            y[len(y) - len(W):] -= W @ x[lo:hi][corner]
            _sweep(cb_end, y, 0)
            view(x)[:] = y
        return x

    return solve


def lanczos(apply, start: np.ndarray, product: np.ndarray, k: int,
            tol: float, maxiter: int):
    """The k <= LANCZOS_ROWS // 2 largest-magnitude eigenpairs of a
    Hermitian operator D.

    ``apply`` maps a vector x to D x; ``start`` is a unit vector and
    ``product`` its image D start, the first Krylov step.  The basis of at
    most LANCZOS_ROWS rows is fully reorthogonalized (classical
    Gram-Schmidt, twice).  After each application the k largest-magnitude
    Ritz pairs (theta_i, s_i) of the projected matrix T are tested with
    ARPACK's criterion beta_j |e_j^T s_i| <= tol |theta_i|, the left side
    being the residual norm ||D y_i - theta_i y_i|| of the Ritz vector y_i.
    A basis that spans an invariant subspace (beta_j = 0, or all n
    dimensions) holds exact pairs.

    A full basis restarts thick (Wu & Simon 2000) from its LANCZOS_ROWS // 2
    largest-magnitude Ritz vectors and q = w / beta_j: as
    D y_i = theta_i y_i + beta_j (e_j^T s_i) q, T becomes diag(theta)
    bordered by the arrow beta_j e_j^T s_i, solved by a small dense eigh.

    Returns ``(theta, Y, applications)``: the k Ritz values by decreasing
    magnitude, the unit Ritz vectors as rows of Y, and the applications of
    D, ``product`` included.  Raises EigensolverDiverged, carrying the k
    residual norms, when ``maxiter`` applications do not converge or the
    Krylov space of the start has fewer than k dimensions.
    """
    n = start.size
    keep = LANCZOS_ROWS // 2
    basis = np.empty((LANCZOS_ROWS, n), dtype=product.dtype)
    T = np.zeros((LANCZOS_ROWS, LANCZOS_ROWS))
    basis[0] = start
    w = product
    applications, j = 1, 0
    while True:
        Q = basis[:j + 1]
        # Q^H w as conj(Q conj(w)), so the basis is never copied
        coef = (Q @ w.conj()).conj()
        T[j, j] = coef[j].real
        w = w - coef @ Q
        w -= (Q @ w.conj()).conj() @ Q
        beta = np.linalg.norm(w)
        vals, vecs = np.linalg.eigh(T[:j + 1, :j + 1])
        order = np.argsort(-np.abs(vals))
        top = order[:k]
        residuals = beta * np.abs(vecs[j, top])
        if j + 1 == n:
            residuals[:] = 0.0  # w is roundoff: the basis spans the space
        if j + 1 >= k and (residuals <= tol * np.abs(vals[top])).all():
            Y = vecs[:, top].T @ Q
            Y /= np.linalg.norm(Y, axis=1)[:, None]
            return vals[top], Y, applications
        if beta == 0.0:
            raise EigensolverDiverged(
                f"the Krylov space of the start has {j + 1} < k = {k} "
                "dimensions", residuals=residuals)
        if applications >= maxiter:
            raise EigensolverDiverged(
                f"Lanczos did not converge in {maxiter} applications "
                f"(residuals {residuals}, theta {vals[top]}, tol {tol:g})",
                residuals=residuals,
            )
        if j + 1 < LANCZOS_ROWS:
            j += 1
            T[j, j - 1] = T[j - 1, j] = beta
        else:
            S = vecs[:, order[:keep]]
            # Y = S^T Q in place, by column blocks: no second basis in memory
            for c in range(0, n, 4096):
                block = basis[:, c:c + 4096]
                block[:keep] = S.T @ block
            T[:] = 0.0
            T[:keep, :keep] = np.diag(vals[order[:keep]])
            T[keep, :keep] = T[:keep, keep] = beta * S[-1]
            j = keep
        basis[j] = w / beta
        w = apply(basis[j])
        applications += 1


def random_start(n: int, seed: int, complex_: bool) -> np.ndarray:
    """Lanczos start vector drawn from ``seed``: standard normal entries,
    with a standard normal imaginary part drawn after them when
    ``complex_``."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if complex_:
        v0 = v0 + 1j * rng.standard_normal(n)
    return v0


@blas_threads(1)
def lowest_eigenpairs(
    matrix: sp.spmatrix,
    k: int = 1,
    sigma: float = 0.0,
    seed: int = 7,
    v0: np.ndarray | None = None,
    M: sp.spmatrix | None = None,
):
    """k lowest eigenpairs of the Hermitian pencil matrix v = lam M v.

    ``M`` is a diagonal positive mass matrix D, the identity by default;
    any other ``M`` raises ValueError.  Shift-invert Lanczos (lanczos) on
    y -> D^1/2 solve(D^1/2 y), where solve is the banded Cholesky solve of
    ``matrix - sigma M``, at every size; its pairs give
    (sigma + 1/theta, D^-1/2 y), M-normalized.  Callers shift below the
    spectrum, so the factor exists.  By Sylvester's law of inertia its
    positive pivots (real ends, complex middle: every band's) prove that no
    eigenvalue lies below sigma, which makes the k pairs nearest
    sigma the k lowest; a sigma above the bottom of the spectrum raises
    NotPositiveDefinite.  Lanczos runs at machine epsilon, ARPACK's default
    tolerance, for at most 10 n applications.  Returns the eigenvalues
    (ascending), the eigenvectors as columns and the residuals
    ||matrix v - lam M v||.

    Lanczos starts from ``v0`` (say, a fiber ground state just above its
    proven floor) or else from a random vector drawn from ``seed``;
    1 <= k <= min(n, LANCZOS_ROWS // 2).  Deterministic given the start, and
    runs on one BLAS thread (see blas_threads).
    """
    n = matrix.shape[0]
    kmax = min(n, LANCZOS_ROWS // 2)
    if not 1 <= k <= kmax:
        raise ValueError(f"k = {k} is outside 1..{kmax}: at most "
                         f"min(n, LANCZOS_ROWS // 2) = {kmax} pairs at n = {n}")
    mass = sp.eye(n, format="csr") if M is None else M
    diag = mass.diagonal()
    if (mass != sp.diags(diag)).nnz or not (diag > 0).all():
        raise ValueError("the mass matrix M must be diagonal and positive")
    d = np.sqrt(diag)
    try:
        solve = banded_cholesky(matrix - sigma * mass)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            f"sigma = {sigma:g} lies above the lowest eigenvalue: {exc}",
            pivot=exc.pivot,
        ) from exc
    if v0 is None:
        v0 = random_start(n, seed, np.iscomplexobj(matrix))
    start = d * v0
    start = start / np.linalg.norm(start)

    def apply(y):
        return d * solve(d * y)

    theta, Y, _ = lanczos(apply, start, apply(start), k,
                          np.finfo(float).eps, 10 * n)
    vals = sigma + 1.0 / theta
    order = np.argsort(vals)
    vals, vecs = vals[order], (Y[order] / d).T
    mvecs = mass @ vecs
    residuals = np.array([
        np.linalg.norm(matrix @ vecs[:, j] - vals[j] * mvecs[:, j])
        for j in range(k)
    ])
    return vals, vecs, residuals
