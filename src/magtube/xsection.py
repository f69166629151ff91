"""Cross-section eigenproblem and the constants consumed by effective models.

Solves the Dirichlet eigenproblem on the cross section omega, builds the
angular derivative d_alpha = tau3 d/dtau2 - tau2 d/dtau3, solves the reduced
(real) R_omega problem, and collects every cross-sectional constant: lowest
eigenvalues, the positive ground mode J1, first/second moments of J1, the
twist constant p = ||d_alpha J1||^2, and the magnetic correction
kappa_mag = <rho, d_alpha J1> entering M(omega) = ||tau J1||^2/4 - kappa_mag.

The complex R_omega of the axial-field problem satisfies R_omega = -i rho
with rho real solving (-Lap - lam1) rho = d_alpha J1, <rho, J1> = 0.  Then
<D_alpha R_omega, J1> = <rho, d_alpha J1> = <rho, (-Lap - lam1) rho> >= 0,
which is the form computed here (nonnegative by construction on J1-perp).

Disk cross sections get an exact symmetry reduction to a radial 1D problem:
on a Cartesian staircase mask the angular-derivative constants carry O(h)
symmetry-breaking noise that no desk-scale refinement removes, while the
radial reduction gives p = kappa_mag = 0 identically and O(h^2) eigenvalues.
Mask-based constants remain available (method="mask") for operator-matched
uses; both views are reported.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.linalg import eigh_tridiagonal

from .assemble import AssembledOperator, cov_link_matrix, form_term, lowest_eigenpairs
from .errors import FredholmViolation, NotApplicable
from .grids import GridDomain

PRINTED_T2_COEFFICIENT = 1.0 / 3.0 + 2.0 / np.pi**2


def assemble_dirichlet_laplacian(domain: GridDomain) -> AssembledOperator:
    """-Laplace with Dirichlet rows eliminated; 3-point (1D) / 5-point (2D)."""
    mat = None
    for axis in range(domain.dim):
        idx_l, idx_r, _ = domain.links(axis)
        D = cov_link_matrix(domain.n, idx_l, idx_r, domain.h)
        term = form_term(D)
        mat = term if mat is None else mat + term
    return AssembledOperator(
        matrix=mat.tocsr(),
        grid={"domain": domain},
        bc={"omega": "dirichlet"},
        meta={"kind": "xsection-laplacian", "descriptor": domain.descriptor()},
    )


@dataclass
class ModeSet:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, normalized in the grid inner product
    residuals: np.ndarray
    domain: GridDomain

    @property
    def lam1(self):
        return float(self.eigenvalues[0])

    @property
    def J1(self):
        return self.eigenvectors[:, 0]


def lowest_modes(op: AssembledOperator, k: int, seed: int = 7) -> ModeSet:
    """k lowest eigenpairs; first eigenvector sign-fixed positive at its peak."""
    domain: GridDomain = op.grid["domain"]
    vals, vecs, _ = lowest_eigenpairs(op.matrix, k=k, sigma=0.0, seed=seed)
    vecs = np.real_if_close(vecs)
    for j in range(k):
        v = vecs[:, j]
        v = v / domain.norm(v)
        v = v * np.sign(v[np.argmax(np.abs(v))])
        vecs[:, j] = v
    residuals = np.array(
        [np.linalg.norm(op.matrix @ vecs[:, j] - vals[j] * vecs[:, j])
         * domain.h ** (domain.dim / 2) for j in range(k)]
    )
    return ModeSet(vals, vecs, residuals, domain)


def angular_derivative(domain: GridDomain) -> AssembledOperator:
    """tau3 d/dtau2 - tau2 d/dtau3 by centered differences, zero extension.

    Exactly antisymmetric: the coefficient of each term is constant along its
    own difference direction.
    """
    if domain.dim != 2:
        raise NotApplicable("angular derivative needs a 2D cross section")
    idx = domain.index_map
    X, Y = np.meshgrid(*domain.axes, indexing="ij")
    rows, cols, vals = [], [], []
    for axis, coef_grid, orient in ((0, Y, +1.0), (1, X, -1.0)):
        for step in (+1, -1):
            src = tuple(
                slice(None) if d != axis else
                (slice(0, -1) if step == 1 else slice(1, None))
                for d in range(2)
            )
            dst = tuple(
                slice(None) if d != axis else
                (slice(1, None) if step == 1 else slice(0, -1))
                for d in range(2)
            )
            both = domain.mask[src] & domain.mask[dst]
            rows.append(idx[src][both])
            cols.append(idx[dst][both])
            vals.append(orient * step * coef_grid[src][both] / (2 * domain.h))
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(domain.n, domain.n),
    )
    return AssembledOperator(
        matrix=mat,
        grid={"domain": domain},
        bc={"omega": "dirichlet-extension"},
        meta={"kind": "angular-derivative"},
    )


def solve_r_omega(domain: GridDomain, modes: ModeSet, rhs=None) -> np.ndarray:
    """Real reduced R_omega problem via an augmented (deflated) solve.

    Solves (-Lap_h - lam1) rho = d_alpha J1 with <rho, J1> = 0 through the
    KKT system [[A - lam1, J1], [J1^T, 0]]; exact orthogonality, robust to
    the near-singular block.
    """
    if domain.dim != 2:
        raise NotApplicable("R_omega problem needs a 2D cross section")
    A = assemble_dirichlet_laplacian(domain).matrix
    J1 = modes.J1
    lam1 = modes.lam1
    if rhs is None:
        rhs = angular_derivative(domain).matrix @ J1
    defect = abs(domain.inner(rhs, J1))
    if defect > 1e-8 * max(1.0, domain.norm(rhs)):
        raise FredholmViolation(
            f"<d_alpha J1, J1> = {defect:.3e} signals a bad discretization"
        )
    c = (domain.h**2 * J1).reshape(-1, 1)
    kkt = sp.bmat(
        [[A - lam1 * sp.eye(domain.n), sp.csr_matrix(c)],
         [sp.csr_matrix(c.T), None]],
        format="csc",
    )
    sol = sla.spsolve(kkt, np.concatenate([rhs, [0.0]]))
    return sol[: domain.n]


@dataclass
class XSectionConstants:
    """Everything the effective 1D models consume, for one cross section."""

    descriptor: str
    h: float
    dim: int
    backend: str  # "mask" | "radial"
    lam1: float
    lam2: float
    moment2: float          # ||tau J1||^2
    m2: float               # <tau2 J1, J1>
    m3: float
    second_moments: tuple   # (Q22, Q23, Q33) with Qij = <tau_i tau_j J1, J1>
    p: float                # ||d_alpha J1||^2
    kappa_mag: float        # <rho, d_alpha J1> = <D_alpha R_omega, J1>
    M_omega: float          # moment2/4 - kappa_mag
    J1: np.ndarray | None = None
    rho: np.ndarray | None = None
    radial_profile: tuple | None = None  # (r nodes, J1(r)) for the disk backend
    meta: dict = field(default_factory=dict)

    def scalar_items(self):
        out = {
            "lam1": self.lam1, "lam2": self.lam2, "moment2": self.moment2,
            "m2": self.m2, "m3": self.m3,
            "Q22": self.second_moments[0], "Q23": self.second_moments[1],
            "Q33": self.second_moments[2],
            "p": self.p, "kappa_mag": self.kappa_mag, "M_omega": self.M_omega,
        }
        return out


def _interval_constants(domain: GridDomain) -> XSectionConstants:
    op = assemble_dirichlet_laplacian(domain)
    modes = lowest_modes(op, 2)
    tau = domain.node_coords()
    J1 = modes.J1
    q = domain.inner(tau**2 * J1, J1)
    meta = {
        "effective_coefficient_measured": q,
        "effective_coefficient_printed": PRINTED_T2_COEFFICIENT,
        "effective_coefficient_discrepancy": PRINTED_T2_COEFFICIENT - q,
        "note": "printed transverse-moment coefficient (1/3 + 2/pi^2) does not "
                "match the measured ||tau J1||^2 = 1/3 - 2/pi^2; both reported, "
                "measured is the default in effective operators",
    }
    return XSectionConstants(
        descriptor=domain.descriptor(), h=domain.h, dim=1, backend="mask",
        lam1=modes.lam1, lam2=float(modes.eigenvalues[1]),
        moment2=q, m2=float(domain.inner(tau * J1, J1)), m3=0.0,
        second_moments=(q, 0.0, 0.0), p=0.0, kappa_mag=0.0,
        M_omega=q / 4.0, J1=J1, meta=meta,
    )


def _mask_constants_2d(domain: GridDomain) -> XSectionConstants:
    op = assemble_dirichlet_laplacian(domain)
    modes = lowest_modes(op, 2)
    J1 = modes.J1
    coords = domain.node_coords()
    t2, t3 = coords[:, 0], coords[:, 1]
    Q22 = domain.inner(t2 * t2 * J1, J1)
    Q23 = domain.inner(t2 * t3 * J1, J1)
    Q33 = domain.inner(t3 * t3 * J1, J1)
    moment2 = Q22 + Q33
    # p with boundary-aware gradients and closure quadrature: the integrand
    # |d_alpha J1|^2 does not vanish on straight boundary segments
    U = domain.embed(J1)
    gx = domain.gradient_axis(U, 0)
    gy = domain.gradient_axis(U, 1)
    X, Y = np.meshgrid(*domain.axes, indexing="ij")
    da_full = Y * gx - X * gy
    w = domain.quadrature_weights()
    p = float(np.sum(w * da_full**2))
    rhs = angular_derivative(domain).matrix @ J1
    rho = solve_r_omega(domain, modes, rhs=rhs)
    kappa_mag = domain.inner(rho, rhs)
    return XSectionConstants(
        descriptor=domain.descriptor(), h=domain.h, dim=2, backend="mask",
        lam1=modes.lam1, lam2=float(modes.eigenvalues[1]),
        moment2=moment2, m2=float(domain.inner(t2 * J1, J1)),
        m3=float(domain.inner(t3 * J1, J1)),
        second_moments=(Q22, Q23, Q33), p=p, kappa_mag=kappa_mag,
        M_omega=moment2 / 4.0 - kappa_mag, J1=J1, rho=rho,
    )


def _disk_radial_constants(domain: GridDomain) -> XSectionConstants:
    """Exact symmetry reduction of the disk to radial 1D problems.

    The angular derivative annihilates azimuthally constant functions, so
    p = kappa_mag = 0 with rho = 0; lam2 comes from the first angular-momentum
    sector (first zero of the m=1 Bessel mode lies below the second radial).
    """
    radius = domain.shape_params[0]
    n = max(200, int(round(2 * radius / domain.h)))
    h = radius / n
    r = np.arange(n) * h
    faces = (np.arange(n) + 0.5) * h
    w = 2 * np.pi * r * h
    w[0] = np.pi * h * h / 4
    main = 2 * np.pi * np.concatenate([[faces[0]], faces[1:] + faces[:-1]]) / h
    off = -2 * np.pi * faces[:-1] / h
    d = main / w
    e = off / np.sqrt(w[:-1] * w[1:])
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, 1))
    u = vecs[:, 0] / np.sqrt(w)
    u = np.abs(u) / np.sqrt(np.sum(w * u**2))
    lam1 = float(vals[0])
    moment2 = float(np.sum(w * r**2 * u**2))
    # m = 1 sector on nodes r_j = j h, j=1..n-1, Dirichlet at both ends
    rm = r[1:]
    wm = 2 * np.pi * rm * h
    fm = faces
    main1 = 2 * np.pi * (fm[1:] + fm[:-1]) / h + (2 * np.pi / rm) * h  # + m^2/r^2 weight
    main1 = main1 / wm
    off1 = (-2 * np.pi * fm[1:-1] / h) / np.sqrt(wm[:-1] * wm[1:])
    vals1 = eigh_tridiagonal(main1, off1, select="i", select_range=(0, 0),
                             eigvals_only=True)
    lam2 = float(min(vals[1], vals1[0]))
    return XSectionConstants(
        descriptor=domain.descriptor(), h=domain.h, dim=2, backend="radial",
        lam1=lam1, lam2=lam2, moment2=moment2, m2=0.0, m3=0.0,
        second_moments=(moment2 / 2, 0.0, moment2 / 2), p=0.0, kappa_mag=0.0,
        M_omega=moment2 / 4.0, radial_profile=(r, u),
        meta={"radial_nodes": n},
    )


_MEMO: dict = {}


def compute_constants(
    domain: GridDomain,
    method: str = "auto",
    cache_dir: str | None = None,
) -> XSectionConstants:
    """All cross-sectional constants, cached by shape descriptor + spacing.

    method "auto" picks the radial backend for disks (reported constants) and
    the masked-grid backend otherwise; "mask" forces grid-consistent constants
    for operator-matched comparisons; "radial" forces the disk reduction.
    """
    if method == "auto":
        method = "radial" if domain.shape_tag == "disk" else "mask"
    if method == "radial" and domain.shape_tag != "disk":
        raise NotApplicable("radial backend applies to disk shapes only")
    key = f"{domain.descriptor()}|{method}"
    if key in _MEMO:
        return _MEMO[key]
    cached = _cache_load(cache_dir, key, domain) if cache_dir else None
    if cached is not None:
        _MEMO[key] = cached
        return cached
    if domain.dim == 1:
        out = _interval_constants(domain)
    elif method == "radial":
        out = _disk_radial_constants(domain)
    else:
        out = _mask_constants_2d(domain)
    _MEMO[key] = out
    if cache_dir:
        _cache_store(cache_dir, key, out)
    return out


# -- persistent constants cache -------------------------------------------------
#
# One text file per key under the cache directory.  Schema (v2):
#   magtube-constants v2
#   key = <descriptor|method>
#   backend = mask|radial
#   dim = 1|2
#   h = <float>
#   <scalar> = <float>            (lam1, lam2, moment2, m2, m3, Q22, Q23, Q33,
#                                  p, kappa_mag, M_omega)
#   meta.<name> = <JSON value>    (the constants' meta: footers and note)
#   array.J1 = v v v ...          (interior-node order; optional)
#   array.rho = v v v ...         (optional)
#   array.r / array.J1r           (radial backend profile; optional)
# Writes are atomic (temp file + rename): single writer, many readers.


_CACHE_SCHEMA = "magtube-constants v2"


def _cache_path(cache_dir: str, key: str) -> str:
    import hashlib

    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"xc_{digest}.txt")


def _cache_store(cache_dir: str, key: str, c: XSectionConstants) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    lines = [_CACHE_SCHEMA, f"key = {key}", f"backend = {c.backend}",
             f"dim = {c.dim}", f"h = {c.h:.17g}", f"descriptor = {c.descriptor}"]
    for name, val in c.scalar_items().items():
        lines.append(f"{name} = {val:.17g}")
    for name, val in c.meta.items():
        lines.append(f"meta.{name} = {json.dumps(val)}")
    def arr(name, a):
        lines.append(f"array.{name} = " + " ".join(f"{v:.17g}" for v in a))
    if c.J1 is not None:
        arr("J1", c.J1)
    if c.rho is not None:
        arr("rho", c.rho)
    if c.radial_profile is not None:
        arr("r", c.radial_profile[0])
        arr("J1r", c.radial_profile[1])
    path = _cache_path(cache_dir, key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _cache_load(cache_dir, key, domain) -> XSectionConstants | None:
    path = _cache_path(cache_dir, key)
    if not os.path.exists(path):
        return None
    scalars, arrays, text, meta = {}, {}, {}, {}
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != _CACHE_SCHEMA:
            return None
        for line in f:
            name, _, val = line.partition("=")
            name, val = name.strip(), val.strip()
            if name.startswith("array."):
                arrays[name[6:]] = np.array(val.split(), dtype=float)
            elif name.startswith("meta."):
                meta[name[5:]] = json.loads(val)
            elif name in ("key", "backend", "descriptor"):
                text[name] = val
            elif name in ("dim",):
                text[name] = int(val)
            else:
                scalars[name] = float(val)
    if text.get("key") != key:
        return None
    prof = None
    if "r" in arrays and "J1r" in arrays:
        prof = (arrays["r"], arrays["J1r"])
    return XSectionConstants(
        descriptor=text["descriptor"], h=scalars["h"], dim=text["dim"],
        backend=text["backend"], lam1=scalars["lam1"], lam2=scalars["lam2"],
        moment2=scalars["moment2"], m2=scalars["m2"], m3=scalars["m3"],
        second_moments=(scalars["Q22"], scalars["Q23"], scalars["Q33"]),
        p=scalars["p"], kappa_mag=scalars["kappa_mag"],
        M_omega=scalars["M_omega"], J1=arrays.get("J1"), rho=arrays.get("rho"),
        radial_profile=prof, meta={**meta, "cache": "hit"},
    )


def cache_inspect(cache_dir: str) -> list:
    """List cached entries as (file, key) pairs."""
    out = []
    if not os.path.isdir(cache_dir):
        return out
    for name in sorted(os.listdir(cache_dir)):
        if not name.startswith("xc_"):
            continue
        with open(os.path.join(cache_dir, name), "r", encoding="utf-8") as f:
            f.readline()
            key = f.readline().partition("=")[2].strip()
        out.append((name, key))
    return out


def cache_clear(cache_dir: str) -> int:
    n = 0
    if os.path.isdir(cache_dir):
        for name in os.listdir(cache_dir):
            if name.startswith("xc_"):
                os.remove(os.path.join(cache_dir, name))
                n += 1
    _MEMO.clear()
    return n
