"""Sparse self-adjoint operators: container, eigensolvers, export format.

All quadratic-form terms are assembled as F* diag(w) F from first-order
difference factors, so Hermiticity is exact by construction.  Covariant
derivatives use link phases (e^{i h a} on the lattice edge), which makes
discrete gauge transforms exact unitary conjugations and preserves the
diamagnetic inequality at the matrix level.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence

from .errors import EigensolverDiverged, GridBudgetError, NotPositiveDefinite

# Band storage n (kd + 1) of one Cholesky factor.  The largest shipped case,
# the 3D criterion-4 tube (n = 57,399, kd = 399, complex), needs 367 MB.
BAND_BUDGET_BYTES = 2 * 1024**3

# Bandwidth from which a complex ?pbtrf gains from a second BLAS thread.  On
# 2 cores (n = 15,000, complex) 2 threads take 3.6x the one-thread time at
# kd = 39, 1.05x at kd = 192, 0.85x at kd = 256 and 0.66-0.74x at
# kd = 361-399.  Real bands gain at no width: 2 threads take 1.07-1.34x
# the one-thread time at kd = 320-399.
# Shipped 2D bands have kd 39-79, 3D bands kd 361-399.
WIDE_BAND = 256

# Krylov dimension of a Lanczos run started near its target vector: a
# resolvent Lanczos from a neighbouring sweep point's maximizer or from the
# fiber start of a full/effective pair (see operators.resolvent_distance),
# and a shift-invert eigensolve from a fiber state at a shift just below a
# proven floor (the Hardy segment at its diamagnetic floor, the positive
# Hardy pencil at 0; see hardy.assemble_segment).  Such a start
# converges in a handful of solves, and each restart of a small basis costs
# few of them.  A random start keeps ARPACK's default of 20, which always
# builds all 20 vectors before its first convergence check: with 6, the
# clustered top of nrc2d's first points took 355-403 matvecs from a random
# start, not 131.
WARM_NCV = 6


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
    """Each OpenBLAS pool found, with the thread count that complex band
    factors of kd >= WIDE_BAND get from it; all other solver work runs on
    one thread."""
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

    def as_dict(self):
        return {"eps": self.eps, "delta": self.delta, "b": self.b, "K": self.K}


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


def banded_cholesky(matrix: sp.spmatrix):
    """Factor a Hermitian positive-definite sparse matrix; return its solve.

    LAPACK ?pbtrf on the upper band, whose width kd is read from the matrix.
    Tube operators in s-major order have kd = section size, so the band
    holds n (kd + 1) entries where SuperLU's fill is several times larger.
    The band array is Fortran-ordered and factored in place.  Finiteness is
    checked once here, not on every solve.  Raises NotPositiveDefinite when
    a leading minor is not positive and GridBudgetError when the band would
    exceed BAND_BUDGET_BYTES.

    A complex band of kd >= WIDE_BAND is factored with the thread counts in
    force outside every blas_threads block, every other band on one BLAS
    thread.
    """
    if not np.isfinite(matrix.data).all():
        raise ValueError("matrix has non-finite entries")
    upper = sp.triu(matrix, format="csr").tocoo()
    n = matrix.shape[0]
    kd = int((upper.col - upper.row).max(initial=0))
    nbytes = n * (kd + 1) * upper.dtype.itemsize
    if nbytes > BAND_BUDGET_BYTES:
        raise GridBudgetError(
            f"band storage of {nbytes} bytes (n = {n}, kd = {kd}) exceeds "
            f"the budget {BAND_BUDGET_BYTES}; coarsen the grid"
        )
    ab = np.zeros((kd + 1, n), dtype=upper.dtype, order="F")
    ab[kd + upper.row - upper.col, upper.col] = upper.data
    wide = kd >= WIDE_BAND and np.iscomplexobj(ab)
    try:
        with blas_threads(None if wide else 1):
            cb = la.cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except la.LinAlgError as exc:
        pivot = int(re.match(r"\d+", str(exc)).group())
        raise NotPositiveDefinite(
            f"leading minor of order {pivot} (of {n}) is not positive; "
            "the operator is not positive definite",
            pivot=pivot,
        ) from exc

    def solve(rhs):
        return la.cho_solve_banded((cb, False), rhs, check_finite=False)

    return solve


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
    tol: float = 0.0,
    dense_threshold: int = 3000,
    maxiter: int | None = None,
    v0: np.ndarray | None = None,
    M: sp.spmatrix | None = None,
):
    """k lowest eigenpairs of the Hermitian pencil matrix v = lam M v.

    ``M`` is a positive-definite mass matrix, the identity by default.
    Shift-invert Lanczos whose OPinv is the banded Cholesky solve of
    ``matrix - sigma M``; dense fallback below ``dense_threshold`` unknowns.
    Callers shift below the spectrum, so the factor exists.  By Sylvester's
    law of inertia it proves that no eigenvalue lies below sigma, which
    makes the k pairs nearest sigma the k lowest; a sigma above the bottom
    of the spectrum raises NotPositiveDefinite.  Residuals are
    ||matrix v - lam M v||.

    A ``v0`` (say, a fiber ground state just above its proven floor) starts
    Lanczos with a Krylov dimension of WARM_NCV; without it Lanczos starts
    from a random vector drawn from ``seed`` with ARPACK's default.
    Deterministic given the start, and runs on one BLAS thread (see
    blas_threads).
    """
    n = matrix.shape[0]
    if k >= n:
        raise ValueError("k must be below the matrix dimension")
    if n <= dense_threshold:
        # scipy's "evd" solve gives np.linalg.eigh's values, but in Fortran
        # order, which rounds the callers' later products differently
        if M is None:
            vals, vecs = np.linalg.eigh(matrix.toarray())
        else:
            vals, vecs = la.eigh(matrix.toarray(), M.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
    else:
        mass = sp.eye(n, format="csr") if M is None else M
        try:
            # scipy's complex ARPACK solver can hold OPinv in a reference
            # cycle, which the cyclic collector frees only when it next runs;
            # OPinv reads the solve through this list, so emptying it
            # releases the factor at once
            held = [banded_cholesky(matrix - sigma * mass)]
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"sigma = {sigma:g} lies above the lowest eigenvalue: {exc}",
                pivot=exc.pivot,
            ) from exc
        ncv = WARM_NCV if v0 is not None else None
        if v0 is None:
            v0 = random_start(n, seed, np.iscomplexobj(matrix))
        try:
            with warnings.catch_warnings():
                # ARPACK's generalized-mode bookkeeping casts the real Ritz
                # values through the complex work arrays
                warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
                vals, vecs = sla.eigsh(
                    matrix, k=k, M=M, sigma=sigma, which="LM", v0=v0,
                    ncv=ncv, tol=tol, maxiter=maxiter,
                    OPinv=sla.LinearOperator(
                        matrix.shape, matvec=lambda x: held[0](x),
                        dtype=matrix.dtype),
                )
        except ArpackNoConvergence as exc:
            got = len(exc.eigenvalues)
            raise EigensolverDiverged(
                f"shift-invert Lanczos converged {got}/{k} pairs "
                f"(sigma={sigma}); increase maxiter or adjust the shift",
                residuals=exc.eigenvalues,
            ) from exc
        finally:
            held.clear()
            if M is not None:
                # scipy's complex generalized ARPACK mode keeps its workspace
                # (the n x ncv Lanczos basis) in a reference cycle; collect it
                # while it is young, or a sweep of pencils piles them up
                gc.collect(1)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    mvecs = vecs if M is None else M @ vecs
    residuals = np.array(
        [
            np.linalg.norm(matrix @ vecs[:, j] - vals[j] * mvecs[:, j])
            for j in range(k)
        ]
    )
    return vals, vecs, residuals


# -- sparse triplet text export ------------------------------------------------


def save_triplets(op: AssembledOperator, path) -> None:
    """Documented text format: header then one 'i j re im' line per entry.

    Header line: ``rows cols nnz shift`` followed by ``key=value`` regime
    metadata tokens.
    """
    coo = op.matrix.tocoo()
    meta = dict(op.meta)
    if op.regime is not None:
        meta.update(op.regime.as_dict())
    tokens = " ".join(
        f"{k}={v}" for k, v in sorted(meta.items()) if np.isscalar(v) and v is not None
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz} {op.shift:.17g} {tokens}\n")
        data = coo.data.astype(complex)
        for i, j, v in zip(coo.row, coo.col, data):
            f.write(f"{i} {j} {v.real:.17g} {v.imag:.17g}\n")


def load_triplets(path):
    """Inverse of :func:`save_triplets`; returns (matrix, shift, meta)."""
    with open(path, "r", encoding="utf-8") as f:
        head = f.readline().split()
        rows, cols, nnz = int(head[0]), int(head[1]), int(head[2])
        shift = float(head[3])
        meta = {}
        for tok in head[4:]:
            k, _, v = tok.partition("=")
            meta[k] = v
        I = np.empty(nnz, dtype=np.int64)
        J = np.empty(nnz, dtype=np.int64)
        V = np.empty(nnz, dtype=complex)
        for m in range(nnz):
            parts = f.readline().split()
            I[m], J[m] = int(parts[0]), int(parts[1])
            V[m] = float(parts[2]) + 1j * float(parts[3])
    if np.abs(V.imag).max(initial=0.0) == 0.0:
        V = V.real
    return sp.csr_matrix((V, (I, J)), shape=(rows, cols)), shift, meta
