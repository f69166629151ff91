"""Sparse self-adjoint operators: container, banded factor, eigensolvers.

The banded factor works on straight ends, split rest: the straight,
field-free slices at either end of a tube, their size read off the matrix,
are eliminated exactly, one real tridiagonal per mode of their section
block, each end held in one record (_StraightEnd), and the rest is factored
as one band in the matrix dtype, or, when that band is wide, as two halves
factored and swept at the same time on two threads, each on one BLAS thread,
and a separator between them (see banded_cholesky).  The mode tridiagonals
are factored by dpttrf and solved by dpttrs (_tridiagonal,
_tridiagonal_solve), a complex right-hand side as its two real parts, every
band by ?pbtrf and ?tbsv (_factor, _sweep), all through one binding
(_kernel) of the entry points scipy exports to Cython.

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

import concurrent.futures
import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.linalg import cython_blas, cython_lapack

from .errors import EigensolverDiverged, GridBudgetError, NotPositiveDefinite

# Bytes held by one factor: band storage (kd + 1) per row of the rest, 8
# bytes per entry of a real band and 16 of a complex one (a split rest: its
# two bands of nr - kd rows together, plus W_L, W_R and S', kd x kd each),
# plus each straight end's V (m x m) and, per row, 8 bytes for each of its
# tridiagonal factor's d and e and its interface column g, real for a real
# and a complex matrix alike; two ends of the same block share V, and of the
# same slices also d, e and g.  The largest shipped case, the full3d tube
# (n = 57,399, kd = 399; 44 straight slices of 361 rows at each end, a
# complex rest of 25,631 rows, split), holds 171 MB (165 MB with the rest
# as one band, 367 MB as one complex band).
BAND_BUDGET_BYTES = 2 * 1024**3

# A rest whose band holds more bytes than this splits in two halves that are
# factored and swept at the same time (see _split_rest).  Complex tube-like
# bands on one BLAS thread per half, 2-core x86-64, medians of 7 (one band
# -> split): 8.3 MB (kd 80, 6,399 rows, nrc2d's largest rest) factor 17.1
# -> 11.4 ms and solve 0.95 -> 0.78 ms, for 27% more CPU per solve; 32.4 MB
# (kd 361, 5,600 rows) factor 102 -> 104 ms, the dense separator eating the
# gain; 86 MB (kd 361, 14,801 rows, a 3D Hardy segment) factor 275 -> 221
# ms and solve 18.8 -> 12.4 ms.  So 2D rests stay one band, 3D ones split.
SPLIT_BAND_BYTES = 32 * 1024**2

# Basis rows of every Lanczos run (lanczos), ARPACK's default Krylov
# dimension.  A full basis restarts from its LANCZOS_ROWS // 2 largest Ritz
# vectors, so one run finds at most that many pairs.
LANCZOS_ROWS = 20


# -- BLAS thread pools ------------------------------------------------------------


@functools.cache
def _blas_pools() -> tuple:
    """(name, get, set) of every OpenBLAS pool mapped into the process:
    numpy's libscipy_openblas64_, scipy's libscipy_openblas and a system
    libopenblas; empty when there is none (MKL, Accelerate, no procfs)."""
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
def blas_threads(n: int):
    """Run the block with every OpenBLAS pool at ``n`` threads, restoring
    the previous counts on exit.  Re-entrant and usable as a decorator; a
    no-op without an OpenBLAS pool.  Not safe across Python threads: the
    pools are process-wide."""
    pools = _blas_pools()
    saved = [get() for _, get, _ in pools]
    try:
        for _, _, set_ in pools:
            set_(n)
        yield
    finally:
        for (_, _, set_), k in zip(pools, saved):
            set_(k)


def blas_report() -> dict:
    """Each OpenBLAS pool found, with its thread count in force: 1 inside a
    run, which holds every pool there (see blas_threads)."""
    return {"pools": {name: get() for name, get, _ in _blas_pools()}}


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

    @property
    def critical(self) -> bool:
        """delta = 1, eps b = 1: the only regime whose effective models
        carry the field."""
        return abs(self.delta - 1.0) < 1e-12


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
    idx = np.stack([idx_l, idx_r], axis=1)
    coef = np.stack(link_coefficients(len(idx), h, phases), axis=1)
    # canonical CSR written directly: each row's columns ascending
    swap = idx[:, 0] > idx[:, 1]
    idx[swap], coef[swap] = idx[swap, ::-1], coef[swap, ::-1]
    sel = idx >= 0
    indptr = np.concatenate([[0], np.cumsum(sel.sum(axis=1))])
    return sp.csr_matrix((coef[sel], idx[sel], indptr),
                         shape=(len(idx), n_cols))


def link_coefficients(nlinks: int, h, phases=None):
    """(coef_l, coef_r): the entries of :func:`cov_link_matrix` at the left
    and the right end of each link."""
    if phases is None:
        return np.full(nlinks, -1.0 / h), np.full(nlinks, 1.0 / h)
    return (np.full(nlinks, 1j / h, dtype=complex),
            (-1j / h) * np.exp(1j * np.asarray(phases)))


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


def _band(kd: int, width: int, rows, cols, values) -> np.ndarray:
    """Upper band storage (kd + 1) x width, Fortran-ordered, of the entries
    (rows, cols, values), rows <= cols."""
    ab = np.zeros((kd + 1, width), dtype=values.dtype, order="F")
    ab[kd + rows - cols, cols] = values
    return ab


def _not_positive(pivot: int, n: int) -> NotPositiveDefinite:
    return NotPositiveDefinite(
        f"the minor ending at row {pivot} (of {n}) is not positive; "
        "the operator is not positive definite",
        pivot=pivot,
    )


# The arguments of each bound kernel, every one by pointer as in Fortran: c a
# char, i an int, p an array.
_KERNEL_ARGUMENTS = {
    "dpbtrf": "ciipii", "zpbtrf": "ciipii",
    "dtbsv": "ccciipipi", "ztbsv": "ccciipipi",
    "dpttrf": "ippi", "dpttrs": "iipppii",
}


@functools.cache
def _kernel(routine: str):
    """The BLAS or LAPACK ``routine`` (a key of _KERNEL_ARGUMENTS) that
    scipy's own wrappers call, read from the C entry points scipy exports to
    Cython (scipy.linalg.cython_blas and cython_lapack) and called through
    ctypes, which releases the GIL for the length of the call."""
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
             "p": ctypes.c_void_p}
    module = cython_blas if routine.endswith("tbsv") else cython_lapack
    capsule = module.__pyx_capi__[routine]
    return ctypes.CFUNCTYPE(None, *(types[k] for k in _KERNEL_ARGUMENTS[routine]))(
        pointer(capsule, name(capsule)))


def _kernel_type(a: np.ndarray, layout: str) -> str:
    """"d" or "z", the kernel type of ``a``.  The kernels read and write its
    memory raw, so anything but a writable float64 or complex128 array in
    ``layout`` ("F_CONTIGUOUS" or "C_CONTIGUOUS") raises ValueError."""
    if a.dtype not in (np.float64, np.complex128) or not a.flags[layout] \
            or not a.flags.writeable:
        raise ValueError(f"the kernels take a writable {layout} float64 "
                         f"or complex128 array, not this {a.dtype} one")
    return "z" if a.dtype == np.complex128 else "d"


def _factor(ab: np.ndarray, row_of, n: int) -> np.ndarray:
    """?pbtrf of the upper band ``ab`` (Fortran-ordered) in place; returns
    ``ab``.  ``row_of`` maps LAPACK's 1-based pivot to a row of the n-row
    matrix."""
    pbtrf = _kernel(_kernel_type(ab, "F_CONTIGUOUS") + "pbtrf")
    kd, info = ab.shape[0] - 1, ctypes.c_int()
    pbtrf(b"U", ctypes.c_int(ab.shape[1]), ctypes.c_int(kd), ab.ctypes.data,
          ctypes.c_int(kd + 1), info)
    if info.value > 0:
        raise _not_positive(row_of(info.value), n)
    return ab


def _tridiagonal_args(d: np.ndarray, e: np.ndarray, *rhs) -> None:
    """Refuse, by ValueError, a diagonal ``d`` or off-diagonal ``e`` that is
    not a writable contiguous float64 vector, or a right-hand side (``rhs``)
    that is not a float64 or complex128 one, or any of another length."""
    vectors = (d, e, *rhs)
    kinds = "".join(_kernel_type(v, "C_CONTIGUOUS") for v in vectors)
    if kinds[:2] != "dd" or {v.shape for v in vectors} != {(d.size,)}:
        raise ValueError(f"a tridiagonal of {d.dtype} {d.shape} takes a "
                         "float64 off-diagonal and vectors of its length, not "
                         f"{[(v.dtype.name, v.shape) for v in vectors[1:]]}")


def _tridiagonal(d: np.ndarray, e: np.ndarray, row_of, n: int) -> None:
    """dpttrf of the real tridiagonal with diagonal ``d`` and off-diagonal
    ``e`` (e[k] joins rows k and k + 1; its last entry is not read) in
    place: L diag(d) L^T, e holding L's subdiagonal.  ``row_of`` maps
    LAPACK's 1-based pivot to a row of the n-row matrix."""
    _tridiagonal_args(d, e)
    info = ctypes.c_int()
    _kernel("dpttrf")(ctypes.c_int(d.size), d.ctypes.data, e.ctypes.data, info)
    if info.value > 0:
        raise _not_positive(row_of(info.value), n)


def _tridiagonal_solve(d: np.ndarray, e: np.ndarray, y: np.ndarray) -> None:
    """y <- T^-1 y in place by one dpttrs call, T = L diag(d) L^T the
    factor (d, e) of _tridiagonal and y a contiguous vector of its length; a
    complex y is solved as its real and its imaginary part, the two columns
    of that call."""
    _tridiagonal_args(d, e, y)
    parts = np.stack([y.real, y.imag]) if np.iscomplexobj(y) else y
    n, info = ctypes.c_int(d.size), ctypes.c_int()
    _kernel("dpttrs")(n, ctypes.c_int(parts.size // d.size), d.ctypes.data,
                      e.ctypes.data, parts.ctypes.data, n, info)
    if parts is not y:
        y.real, y.imag = parts


def _sweep(cb: np.ndarray, y: np.ndarray, trans: int) -> None:
    """y <- U^-T y (trans = 1), U^-H y (2) or U^-1 y (0) in place by ?tbsv,
    U the band factor ``cb`` and y a contiguous vector of its length; a
    complex y on a real factor is swept as its real and its imaginary part,
    read in place with stride 2."""
    tbsv = _kernel(_kernel_type(cb, "F_CONTIGUOUS") + "tbsv")
    _kernel_type(y, "C_CONTIGUOUS")
    if y.size != cb.shape[1] or np.promote_types(cb.dtype, y.dtype) != y.dtype:
        raise ValueError(f"a {y.dtype} vector of {y.size} entries does not "
                         f"fit a {cb.dtype} band of {cb.shape[1]} columns")
    by_parts = y.dtype != cb.dtype
    n, kd, ld, inc = (ctypes.c_int(v) for v in (
        y.size, cb.shape[0] - 1, cb.shape[0], 1 + by_parts))
    for offset in (0, 8) if by_parts else (0,):
        tbsv(b"U", b"NTC"[trans:trans + 1], b"N", n, kd, cb.ctypes.data, ld,
             y.ctypes.data + offset, inc)


# -- the two halves of a wide rest -------------------------------------------------


@functools.cache
def _worker() -> concurrent.futures.ThreadPoolExecutor:
    """The thread that runs the left half of every split rest."""
    return concurrent.futures.ThreadPoolExecutor(
        1, thread_name_prefix="magtube-half")


def _halves(left, right) -> tuple:
    """(left(), right()): left on the worker thread while right runs on
    this one, the band kernels releasing the GIL (_kernel).  A left half
    that the worker has not started when right is done runs here, so a busy
    machine that keeps the worker off a core never stalls the pair.  left's
    exception is raised before right's, as when they run in turn."""
    future = _worker().submit(left)

    def left_result():
        return left() if future.cancel() else future.result()

    try:
        got = right()
    except BaseException:
        left_result()
        raise
    return left_result(), got


def _schur_factor(cb: np.ndarray, rows, cols, values) -> np.ndarray:
    """W = T^-H C, T the trailing kd x kd triangle of the band factor ``cb``
    and C the kd x kd coupling of entries (rows, cols, values)."""
    kd = cb.shape[0] - 1
    i, j = np.triu_indices(kd)
    T = np.zeros((kd, kd), dtype=cb.dtype, order="F")
    T[i, j] = cb[kd + i - j, cb.shape[1] - kd + j]
    C = np.zeros_like(T)
    C[rows, cols] = values
    return la.solve_triangular(T, C, trans=2, overwrite_b=True,
                               check_finite=False)


def _split_rest(row, col, data, kd: int, nr: int, a: int, n: int):
    """Factor of a rest of nr rows and half-width kd split at a separator;
    returns its solve, in place on a contiguous vector of the rest's dtype
    or complex.  (row, col, data) are the rest's upper entries, and its row
    0 is row a of the n-row matrix.

    With p = (nr - kd) // 2 the left part L holds rows [0, p), the
    separator S rows [p, p + kd) and the right part R rows [p + kd, nr),
    numbered from its last row.  L and R do not touch: each is a band of
    width kd, built and factored U^H U by ?pbtrf at the same time as the
    other (_halves).  T the trailing kd x kd triangle of a part's factor and
    C the part's coupling to S, W = T^-H C gives its Schur term W^H W on S,
    and S' = A_SS - W_L^H W_L - W_R^H W_R is factored densely.  A solve
    sweeps L and R forward at once, solves S', takes W x_S off the last kd
    rows of each part and sweeps them back at once.  A failed pivot raises
    NotPositiveDefinite at its row of the matrix."""
    p = (nr - kd) // 2
    q = p + kd
    on_l, on_r = col < p, row >= q
    ab_l = _band(kd, p, row[on_l], col[on_l], data[on_l])
    # the right part numbered from its last row: upper entry (r, c) of R
    # lies at (nr - 1 - c, nr - 1 - r), conjugated
    cb_l, cb_r = _halves(
        lambda: _factor(ab_l, lambda k: a + k, n),
        lambda: _factor(_band(kd, nr - q, nr - 1 - col[on_r],
                              nr - 1 - row[on_r], data[on_r].conj()),
                        lambda k: a + nr + 1 - k, n))
    # C by rows among the part's last kd, numbered along the part
    on_l, on_r = (row < p) & (col >= p), (row < q) & (col >= q)
    W_l = _schur_factor(cb_l, row[on_l] - (p - kd), col[on_l] - p, data[on_l])
    W_r = _schur_factor(cb_r, q + kd - 1 - col[on_r], row[on_r] - p,
                        data[on_r].conj())
    on = (row >= p) & (col < q)
    S = np.zeros((kd, kd), dtype=data.dtype, order="F")
    S[row[on] - p, col[on] - p] = data[on]
    # S' in place on its upper triangle: S <- S - W^H W by ?herk (?syrk)
    herk, trans = ("herk", 2) if np.iscomplexobj(S) else ("syrk", 1)
    rank_k = la.get_blas_funcs(herk, (S,))
    for W in (W_l, W_r):
        S = rank_k(-1.0, W, beta=1.0, c=S, trans=trans, overwrite_c=1)
    cs, info = la.get_lapack_funcs("potrf", (S,))(S, lower=False, clean=True,
                                                   overwrite_a=True)
    if info > 0:
        raise _not_positive(a + p + info, n)

    def solve(x):
        x_l, x_r = x[:p], x[q:][::-1].copy()
        _halves(lambda: _sweep(cb_l, x_l, 2), lambda: _sweep(cb_r, x_r, 2))
        # W^H y as conj(conj(y) W), so W is not copied
        x_s = x[p:q] - (x_l[-kd:].conj() @ W_l
                        + x_r[-kd:].conj() @ W_r).conj()
        x[p:q] = x_s = la.cho_solve((cs, False), x_s, check_finite=False)
        x_l[-kd:] -= W_l @ x_s
        x_r[-kd:] -= W_r @ x_s
        _halves(lambda: _sweep(cb_l, x_l, 0), lambda: _sweep(cb_r, x_r, 0))
        x[q:] = x_r[::-1]

    return solve


def _straight_run(ptr, idx, data, m: int, order) -> int:
    """Length of the straight run of slices (m lines each) that starts at
    slice ``order[0]`` and goes on along ``order``.

    ``ptr``, ``idx`` and ``data`` compress the upper triangle by lines: by
    rows for a leading run, by columns for a trailing one.  The first slice
    qualifies when its entries are real and those outside its own block are
    c I, one per line at distance m.  Each slice after it belongs to the run
    while its lines hold the first slice's entries bitwise, shifted by m per
    slice; so a perturbed entry ends the run there."""
    ref = order[0]
    lines = ptr[ref * m:(ref + 1) * m + 1]
    ref_idx, ref_data = idx[lines[0]:lines[-1]], data[lines[0]:lines[-1]]
    line = np.repeat(np.arange(ref * m, (ref + 1) * m), np.diff(lines))
    out = (ref_idx < ref * m) | (ref_idx >= (ref + 1) * m)
    coupling = ref_data[out].view(np.uint64).reshape(out.sum(), -1)
    if (np.iscomplexobj(ref_data) and ref_data.imag.any()) or out.sum() != m \
            or (np.abs(ref_idx[out] - line[out]) != m).any() \
            or (coupling != coupling[0]).any():
        return 0
    counts = np.diff(ptr[::m])
    later = np.asarray(order[1:])
    same = counts[later] == len(ref_idx)
    ks = later[:len(later) if same.all() else int(np.argmin(same))]
    per_line = np.diff(ptr)[ks[:, None] * m + np.arange(m)] == np.diff(lines)
    at = ptr[ks * m][:, None] + np.arange(len(ref_idx))
    ok = (per_line.all(axis=1)
          & (idx[at] - ((ks - ref) * m)[:, None] == ref_idx).all(axis=1)
          & (data[at].view(np.uint64) == ref_data.view(np.uint64)).all(axis=1))
    return 1 + (len(ks) if ok.all() else int(np.argmin(ok)))


def _straight_runs(upper: sp.csr_matrix, m: int) -> tuple:
    """(lead, trail): the slices of the leading and the trailing straight
    run of the upper triangle ``upper`` with slices of m rows, at most
    n / m - 1 together.  A straight slice repeats the first (last) slice of
    its run bitwise: a real block, and c I coupling it to the next slice
    (to the previous one in a trailing run)."""
    n = upper.shape[0]
    slices = n // m
    if slices < 2 or n % m:
        return 0, 0
    if not upper.has_sorted_indices:
        upper.sort_indices()
    order = np.arange(slices)
    lead = _straight_run(upper.indptr, upper.indices, upper.data, m, order)
    # the trailing run needs a real last slice and a real coupling to it
    # before it pays for the column-compressed copy
    tail = upper.indptr[n - 2 * m]
    last = upper.data[tail:][upper.indices[tail:] >= n - m]
    if lead == slices - 1 or (np.iscomplexobj(last) and last.imag.any()):
        return lead, 0
    columns = upper.tocsc()
    trail = _straight_run(columns.indptr, columns.indices, columns.data, m,
                          order[::-1])
    return lead, min(trail, slices - 1 - lead)


@dataclass
class _StraightEnd:
    """One straight end of banded_cholesky: ``at`` its slices (of m rows),
    numbered toward the rest (step 1 at the leading end, -1 at the trailing
    one), so that slice at.stop is the rest's next to it; the coupling c of
    its slices, the eigenvectors V (m x m) of its slice block, the factor
    (d, e) of its mode tridiagonals and its interface column g, by modes
    (m x slices)."""

    at: slice
    c: float
    V: np.ndarray
    d: np.ndarray
    e: np.ndarray
    g: np.ndarray

    def pivot_row(self, p: int) -> int:
        """The 1-based row that the failed 1-based pivot p of the mode
        tridiagonals reports: the row next to the rest of p's slice."""
        m, k = len(self.V), (p - 1) % self.g.shape[1]
        first = (self.at.start + k * self.at.step) * m
        return first + (m if self.at.step == 1 else 1)


def _straight_ends(upper: sp.csr_matrix, m: int, lead: int,
                   trail: int) -> list:
    """The factors (_StraightEnd) of the leading run of ``lead`` slices and
    the trailing run of ``trail`` slices (those of one or more) of the upper
    triangle ``upper``, slices of m rows, each of the real block T0 (upper
    triangle) coupled by c I.

    With T0 = V diag(lam) V^T an end is the congruence (I (x) V) of the
    tridiagonals T_j = tridiag(c, lam_j, c) of the modes j, one per mode.
    They are factored by one dpttrf call (_tridiagonal), mode-major with the
    interface slice last in each mode and e = 0 between modes.  g_j =
    T_j^-1 e_last, one dpttrs call for all modes, is the interface column:
    the end's Schur term on the interface block of the rest is c^2 V
    diag(g_last) V^T.  Two ends of the same block bitwise share V, and of
    the same c and slice count also d, e and g.

    lam_j is the Rayleigh quotient of V's column j, summed in extended
    precision.  eigh's eigenvalues err by up to ~eps ||T0|| (2.7e-9 on
    nrc2d's thinnest tube, ||T0|| = 1e7), and a mode repeats its error on
    every slice, where the errors of a band factor's pivots partly cancel:
    it made a straight end's solve 13 times less accurate than the band's.
    The quotients are exact to 1e-12 there."""
    n, last = upper.shape[0], upper.shape[0] // m - 1
    ends, bits = [], None
    for slices, at in ((lead, slice(0, lead, 1)),
                       (trail, slice(last, last - trail, -1))):
        if not slices:
            continue
        outer = at.start * m
        block = upper[outer:outer + m, outer:outer + m].toarray().real
        c = upper[tuple(sorted((outer, outer + at.step * m)))].real
        if block.tobytes() != bits:
            bits = block.tobytes()
            _, V = la.eigh(block, lower=False, check_finite=False)
            i, j = np.nonzero(block)
            Vx = V.astype(np.longdouble)
            terms = block[i, j].astype(np.longdouble)[:, None] * Vx[i] * Vx[j]
            lam = ((terms.sum(axis=0) + terms[i != j].sum(axis=0))
                   / (Vx * Vx).sum(axis=0)).astype(np.float64)
        elif c == ends[0].c and ends[0].g.shape[1] == slices:
            ends.append(replace(ends[0], at=at))
            continue
        end = _StraightEnd(at, c, V, np.repeat(lam, slices),
                           np.full(m * slices, c), np.zeros((m, slices)))
        end.e[slices - 1::slices] = 0.0
        _tridiagonal(end.d, end.e, end.pivot_row, n)
        end.g[:, -1] = 1.0
        _tridiagonal_solve(end.d, end.e, end.g.reshape(-1))
        # g decays geometrically away from the interface, into 330 subnormal
        # entries on nrc2d's thinnest tube.  Flushed to zero they keep
        # subnormal arithmetic out of every solve; each moves its entry of
        # the end's solution by less than tiny |c V^T x_corner|.
        end.g[np.abs(end.g) < np.finfo(float).tiny] = 0.0
        ends.append(end)
    return ends


def _real_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A X for a real A and a C-contiguous X; a complex X in one real
    product on its float view."""
    if np.iscomplexobj(X):
        return (A @ X.view(np.float64)).view(X.dtype)
    return A @ X


def _fold(row, col, data, start: int, S: np.ndarray):
    """The upper entries (row, col, data) with the m x m diagonal block at
    ``start`` less S: the block's entries give way to all m (m + 1) / 2
    entries of its upper triangle."""
    m = len(S)
    block = (row >= start) & (col < start + m)
    D = np.zeros((m, m), dtype=data.dtype)
    D[row[block] - start, col[block] - start] = data[block]
    D -= S
    i, j = np.triu_indices(m)
    keep = ~block
    return (np.concatenate([row[keep], start + i]),
            np.concatenate([col[keep], start + j]),
            np.concatenate([data[keep], D[i, j]]))


@blas_threads(1)
def banded_cholesky(matrix: sp.spmatrix, sigma: float = 0.0,
                    mass: np.ndarray | None = None):
    """Factor the Hermitian positive-definite A = matrix - sigma diag(mass)
    (mass the diagonal of a mass matrix, the identity by default); return
    its solve.

    A is never formed: sigma mass comes off the diagonal of the upper
    triangle's copy that the factor makes anyway, before anything reads it.
    So the straight ends, the rest, the pivots and the budget see the upper
    entries of the sparse difference matrix - sigma M bit for bit, for a
    matrix without explicit zeros (the difference drops those), and a
    factor at many shifts rebuilds no sparse matrix.

    LAPACK ?pbtrf on the upper band, whose width kd is read from the matrix,
    and per solve ?pbtrs's two ?tbsv sweeps, U^-H then U^-1; every band is
    factored by _factor and swept by _sweep, scipy's own kernels (_kernel).
    Tube operators in s-major order have kd = section size, so the band
    holds n (kd + 1) entries where SuperLU's fill is several times larger.
    Finiteness is checked once here, not on every solve.  ``solve`` takes
    one right-hand side, real or complex.

    Straight ends, banded rest.  The slice size m of an s-major tube lattice
    is read off the matrix: the largest column of row 0's upper entries, the
    coupling of the first node to its copy in the next slice.  Only m > 1 is
    looked at, so a tridiagonal matrix (a 1D operator or an interval
    section) is the rest alone.  Curvature, twist and field act through
    bumps with compact support, so a tube is straight and free of field in
    its leading and trailing runs of slices: slices whose upper-triangle
    rows (columns, at the trailing end) repeat those of the run's first
    (last) slice bitwise, a real block T0 coupled to the next slice by c I.
    A run of p slices is I_p (x) T0 + c (shift) (x) I; in the eigenbasis V
    of T0 (one eigh, shared when both ends hold the same block) it is one
    tridiagonal T_j = tridiag(c, lam_j, c) per mode, all factored by one
    dpttrf call (one factor for both ends when they also hold the same c and
    slice count).  The end is eliminated as a block with an interface column
    g_j = T_j^-1 e_last: its Schur term c^2 V diag(g_last) V^T comes off the
    adjacent m x m block of the rest.  Each end is one record
    (_StraightEnd, built by _straight_ends): its slices and their direction
    toward the rest, c, V, the factor d, e and g; the fold and both halves
    of a solve read it, the fold g_last from it.  A solve takes an end's
    right-hand side to modes, y = T^-1 V^T X^T by one dpttrs call (a complex
    y as its real and imaginary parts, two columns of that call), subtracts
    c V y_last from the rest's right-hand side, solves the rest, and sets
    the end to V (y - g (c V^T x_corner)), each product with V in one real
    product.  The detection compares bits: a perturbed entry ends a run
    there, and a wrong m finds no coupling c I at that distance, so it can
    miss a run, never produce a wrong factor.  The rest is a band in the
    matrix dtype, real when no entry has a nonzero imaginary part.  When
    that band holds more than SPLIT_BAND_BYTES (every 3D tube, no 2D one)
    and at least 3 kd rows, it splits at a separator of kd rows into two
    halves, factored and swept at the same time on two threads (see
    _split_rest); otherwise it is one band.

    V acts slice by slice, and the elimination of the ends is a congruence;
    the split's order is a permutation followed by a congruence.  So
    (Sylvester's law of inertia) positive dpttrf pivots of the mode
    tridiagonals and positive pivots in the band of the rest, or in both
    halves' bands and the separator's S', prove the matrix positive
    definite.

    Raises NotPositiveDefinite, whose ``pivot`` is the 1-based row of the
    matrix at which a minor is not positive (in a straight end, the last
    row of the slice whose mode failed; at the trailing end rows count from
    the last, as n + 1 - p; in a split rest the row of the failed pivot in
    whichever block it lies, the right half counted from its last row), and
    GridBudgetError when the arrays held (8 bytes per real and 16 per
    complex band entry, a split rest's W_L, W_R and S', and the straight
    ends' V, d, e and g, each array once; see BAND_BUDGET_BYTES) would
    exceed BAND_BUDGET_BYTES; the straight ends are factored before that
    check, their arrays no larger than the rest's band and the matrix.
    Every kernel runs on one
    BLAS thread (see blas_threads); the two halves of a split rest run on
    this thread and on one worker thread, whose kernels release the GIL,
    and give the same bytes as in turn.
    """
    shift = sigma * (1.0 if mass is None else mass)
    if not (np.isfinite(matrix.data).all() and np.isfinite(shift).all()):
        raise ValueError("matrix has non-finite entries")
    # in the dtype of the difference: an integer matrix turns float
    upper = sp.triu(matrix, format="csr").astype(
        np.result_type(matrix.dtype, np.float64), copy=False)
    if sigma:
        upper.setdiag(upper.diagonal() - shift)
    n = matrix.shape[0]
    m = int(upper.indices[:upper.indptr[1]].max(initial=0))
    lead, trail = _straight_runs(upper, m) if m > 1 else (0, 0)
    ends = _straight_ends(upper, m, lead, trail) if lead or trail else []
    a, b = lead * m, n - trail * m
    upper = upper.tocoo()
    row, col, data = upper.row, upper.col, upper.data
    del upper
    if ends:
        inside = (row >= a) & (col < b)
        row, col, data = row[inside] - a, col[inside] - a, data[inside]
    # the Schur terms of straight ends fill the m x m blocks they fold into
    kd = int((col - row).max(initial=m - 1 if ends else 0))
    if not (np.iscomplexobj(data) and data.imag.any()):
        data = data.real
    nr = b - a
    split = (kd + 1) * nr * data.itemsize > SPLIT_BAND_BYTES and nr >= 3 * kd
    # a split rest holds two bands of nr - kd rows together, W_L, W_R and S';
    # the straight ends what they hold, each array once
    rest = ((kd + 1) * (nr - kd) + 3 * kd * kd if split else (kd + 1) * nr)
    held = {id(v): v.nbytes for end in ends for v in (end.V, end.d, end.e, end.g)}
    nbytes = rest * data.itemsize + sum(held.values())
    if nbytes > BAND_BUDGET_BYTES:
        raise GridBudgetError(
            f"band storage of {nbytes} bytes (n = {n}, kd = {kd}) exceeds "
            f"the budget {BAND_BUDGET_BYTES}; coarsen the grid"
        )
    for i, end in enumerate(ends):
        if not i or end.g is not ends[0].g:  # one term for one shared factor
            schur = (end.V * (end.c * end.c * end.g[:, -1])) @ end.V.T
        row, col, data = _fold(row, col, data, end.at.stop * m - a, schur)
    if split:
        rest = _split_rest(row, col, data, kd, nr, a, n)
    else:
        cb = _factor(_band(kd, nr, row, col, data), lambda p: a + p, n)

        def rest(x):  # ?pbtrs's two sweeps
            _sweep(cb, x, 2)
            _sweep(cb, x, 0)
    dtype = data.dtype
    del row, col, data

    def solve(rhs):
        x = np.array(rhs, dtype=np.result_type(rhs, dtype))
        X, ys = x.reshape(-1, m) if ends else None, []  # x by slices
        for end in ends:
            # y = T^-1 V^T x_end by modes, and its coupling off the rest
            y = _real_matmul(end.V.T, np.ascontiguousarray(X[end.at].T))
            _tridiagonal_solve(end.d, end.e, y.reshape(-1))
            X[end.at.stop] -= end.c * _real_matmul(end.V, y[:, -1:].copy())[:, 0]
            ys.append(y)
        rest(x[a:b])
        for end, y in zip(ends, ys):
            y -= end.g * (end.c * _real_matmul(end.V.T,
                                               X[end.at.stop].reshape(-1, 1)))
            X[end.at] = _real_matmul(end.V, y).T
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
    ``matrix - sigma M``, factored from ``matrix``, sigma and D's diagonal
    without forming the difference (banded_cholesky), at every size; its
    pairs give
    (sigma + 1/theta, D^-1/2 y), M-normalized.  Callers shift below the
    spectrum, so the factor exists.  By Sylvester's law of inertia its
    positive pivots (straight ends, split rest: every mode tridiagonal's,
    and the rest's band or its halves' bands and separator's) prove that no
    eigenvalue lies below sigma, which makes the k
    pairs nearest sigma the k lowest; a sigma above the bottom of the
    spectrum raises NotPositiveDefinite.  Lanczos runs at machine epsilon,
    ARPACK's default tolerance, for at most 10 n applications.  Returns the
    eigenvalues (ascending), the eigenvectors as columns and the residuals
    ||matrix v - lam M v||.

    Lanczos starts from ``v0`` (say, a fiber ground state just above its
    proven floor) or else from a random vector drawn from ``seed``;
    1 <= k <= min(n, LANCZOS_ROWS // 2).  Deterministic given the start, and
    runs on one BLAS thread (see blas_threads); the solves of a split rest
    sweep its halves on two threads, one BLAS thread each.
    """
    n = matrix.shape[0]
    kmax = min(n, LANCZOS_ROWS // 2)
    if not 1 <= k <= kmax:
        raise ValueError(f"k = {k} is outside 1..{kmax}: at most "
                         f"min(n, LANCZOS_ROWS // 2) = {kmax} pairs at n = {n}")
    diag = np.ones(n) if M is None else M.diagonal()
    if M is not None and (M != sp.diags(diag)).nnz or not (diag > 0).all():
        raise ValueError("the mass matrix M must be diagonal and positive")
    d = np.sqrt(diag)
    try:
        solve = banded_cholesky(matrix, sigma=sigma, mass=diag)
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
    residuals = np.array([
        np.linalg.norm(matrix @ vecs[:, j] - vals[j] * (diag * vecs[:, j]))
        for j in range(k)
    ])
    return vals, vecs, residuals
