"""Magnetic Hardy-inequality certification and spectral-stability experiments.

Certifies
    Q(psi) - lam1(omega) ||psi||^2  >=  int c_R / (1 + s^2) |psi|^2
on straight tubes numerically: the constant
    c_R = (1 + C R^-2)^{-1} min(1/4, lam1^{DN}(bB, Omega(R)) - lam1(omega))
comes from the mixed Dirichlet/Neumann segment eigenvalue, C from an explicit
smooth cutoff pair; the inequality itself is checked as the smallest
eigenvalue mu_min of the weighted pencil (H - lam1) psi = mu W psi with
W = 1/(1+s^2) on a long Dirichlet tube.  Discrete comparisons use the
grid-consistent lam1 of the section, so the b = 0 gap vanishes identically.

Also runs the stability experiments: small tube deformations in the presence
of a field keep the spectrum above the free threshold, and for large field
intensity the discrete spectrum of a compactly bent tube empties.
"""

from __future__ import annotations

import gc
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from .assemble import (
    AssembledOperator,
    RegimeParams,
    banded_cholesky,
    cov_link_matrix,
    form_term,
    lowest_eigenpairs,
)
from .errors import DeformationTooLarge, ZeroFieldWarning
from .geometry import (
    CurveProfile,
    Profile,
    PulledField,
    TubeSpec,
    _cumint_from_zero,
    gauge_3d,
    integrate_frame,
)
from .grids import GridDomain
from .operators import TubeLattice, transverse_form, transverse_ground


# -- cutoff pair and the explicit constant C -------------------------------------
#
# chi0 = sin(phi), chi1 = cos(phi) with phi ramping 0 -> pi/2 on 1/2 <= |s| <= 1
# through a cubic smoothstep, so chi0^2 + chi1^2 = 1 exactly, chi0 = 0 on
# [-1/2, 1/2], chi0 = 1 for |s| >= 1, and |chi0'|^2 + |chi1'|^2 = phi'^2.


def _ramp(u):
    u = np.clip(u, 0.0, 1.0)
    return 3 * u**2 - 2 * u**3


def _ramp_d(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0) & (u < 1)
    out[inside] = 6 * u[inside] * (1 - u[inside])
    return out


def cutoff_pair(s):
    """(chi0, chi1) of the shipped partition of unity."""
    u = 2 * np.abs(np.asarray(s, dtype=float)) - 1.0
    phi = (np.pi / 2) * _ramp(u)
    return np.sin(phi), np.cos(phi)


def cutoff_constant(samples: int = 200001) -> float:
    """C = sup(|chi0'|^2 + |chi1'|^2), evaluated numerically.

    One valid (not optimal) choice; phi' = pi * ramp'(2|s|-1) peaks at
    (3 pi / 2)^2 ~ 22.2.
    """
    s = np.linspace(0.0, 1.2, samples)
    phid = np.pi * _ramp_d(2 * s - 1.0)
    return float(np.max(phid**2))


# -- straight-tube magnetic operators ---------------------------------------------


def _gauge_straight_2d(section: GridDomain, field, s_pts, subdiv: int = 4):
    """A1(s, t) = int_0^t B(s, t') of the straight planar tube."""
    tau = section.node_coords()
    if getattr(field, "frame_aligned", False):
        return field.beta(s_pts)[:, None] * tau[None, :]
    step = section.h / subdiv
    nfine = int(round((tau[-1] - tau[0]) / step))
    tfine = tau[0] + step * np.arange(nfine + 1)
    pos = np.stack(np.broadcast_arrays(s_pts[:, None], tfine[None, :]), axis=-1)
    A1f = _cumint_from_zero(field.value(pos), tfine, axis=1)
    return A1f[:, ::subdiv]


@dataclass
class SegmentProblem:
    """Mixed-boundary magnetic operator on Omega(R) = (-R, R) x omega."""

    R: float
    b: float
    section: GridDomain
    op: AssembledOperator
    lam1_dn: float
    lam1_omega: float

    @property
    def gap(self) -> float:
        return self.lam1_dn - self.lam1_omega


def _straight_tube_matrix(section: GridDomain, field, b: float, s_nodes,
                          neumann_ends: bool, subdiv: int = 4):
    """(-i grad + b A)^2 on s_nodes x omega, Dirichlet on the omega faces.

    With ``neumann_ends`` the end nodes are unknowns and the quadratic form
    simply omits outside links (natural magnetic Neumann: vanishing covariant
    normal derivative); otherwise the ends are Dirichlet-eliminated.  The
    field enters with the orientation of the curvilinear operators at
    eps = 1: A1 of the planar gauge, the explicit 3D gauge in space.
    """
    lat = TubeLattice(s_nodes, section, neumann_ends)
    pulled = None
    phases = None
    if not (field is None or field.is_zero() or b == 0.0):
        if section.dim == 1:
            # (i d/ds + b A1)^2 = (-i d/ds - b A1)^2
            a_link = -_gauge_straight_2d(section, field, lat.mids, subdiv=subdiv)
        else:
            S = float(max(abs(s_nodes[0]), abs(s_nodes[-1]))) + lat.ds
            curve = CurveProfile(dim=3, S=S, ds=lat.ds)
            tube = TubeSpec(curve, section, RegimeParams(eps=1.0, delta=0.0, b=b))
            # segment fields intentionally cover the whole range; skip the
            # decaying-support validation of pullback_field
            pulled = PulledField(field=field, frame=integrate_frame(curve),
                                 tube=tube)
            ax2, ax3 = section.axes
            A1g, _, _ = gauge_3d(pulled, tube, lat.mids, ax2, ax3)
            coords = section.node_coords()
            i2 = np.rint((coords[:, 0] - ax2[0]) / section.h).astype(int)
            i3 = np.rint((coords[:, 1] - ax3[0]) / section.h).astype(int)
            a_link = A1g[:, i2, i3]
        phases = (lat.ds * b * a_link).ravel()
    mat = transverse_form(lat, pulled, 1.0, b)
    return (mat + form_term(lat.axis_factor(phases))).tocsr()


def assemble_segment(section: GridDomain, field, b: float, R: float,
                     ds: float = 0.05) -> SegmentProblem:
    """Magnetic operator on (-R, R) x omega, Dirichlet sides, Neumann ends."""
    if field is None or field.is_zero() or b == 0.0:
        warnings.warn(
            "field vanishes on the segment: c_R degenerates to 0",
            ZeroFieldWarning,
        )
    n_sub = int(round(2 * R / ds))
    s_nodes = -R + ds * np.arange(n_sub + 1)
    mat = _straight_tube_matrix(section, field, b, s_nodes, neumann_ends=True)
    lam1_omega, _ = transverse_ground(section)
    op = AssembledOperator(
        matrix=mat,
        grid={"kind": "segment", "s_nodes": s_nodes, "section": section},
        bc={"s": "neumann", "omega": "dirichlet"},
        regime=RegimeParams(eps=1.0, delta=0.0, b=b),
        meta={"model": "segment", "R": R},
    )
    vals, _, _ = lowest_eigenpairs(op.matrix, k=1, sigma=0.5 * lam1_omega)
    return SegmentProblem(
        R=R, b=b, section=section, op=op,
        lam1_dn=float(vals[0]), lam1_omega=lam1_omega,
    )


@dataclass
class HardyCertificate:
    R: float
    b: float
    lam1_dn: float
    cutoff_C: float
    c_R: float
    mu_min: float | None = None
    margin: float | None = None
    passed: bool | None = None
    meta: dict = field(default_factory=dict)


def hardy_constant(section: GridDomain, field, b: float, R: float,
                   ds: float = 0.05,
                   segment: SegmentProblem | None = None) -> HardyCertificate:
    """c_R(bB) from the segment eigenvalue and the shipped cutoff constant."""
    if segment is None:
        segment = assemble_segment(section, field, b, R, ds=ds)
    C = cutoff_constant()
    c_R = (1.0 + C / R**2) ** -1 * min(0.25, max(segment.gap, 0.0))
    return HardyCertificate(
        R=R, b=b, lam1_dn=segment.lam1_dn, cutoff_C=C, c_R=c_R,
        meta={"gap": segment.gap, "lam1_omega": segment.lam1_omega},
    )


def verify_hardy(section: GridDomain, field, b: float, R: float, L: float,
                 ds: float = 0.05, tol: float = 1e-9,
                 dense_check: bool = False) -> HardyCertificate:
    """Certify the weighted bound: mu_min of (H - lam1) psi = mu W psi,
    W = 1/(1+s^2), on the Dirichlet tube (-L, L) x omega; pass iff
    mu_min >= c_R - tol."""
    if L < 4 * R:
        raise ValueError("verify_hardy wants L >= 4 R")
    cert = hardy_constant(section, field, b, R, ds=ds)
    n_sub = int(round(2 * L / ds))
    s_nodes = (-L + ds * np.arange(n_sub + 1))[1:-1]
    H = _straight_tube_matrix(section, field, b, s_nodes, neumann_ends=False)
    lam1_omega, _ = transverse_ground(section)
    A = (H - lam1_omega * sp.eye(H.shape[0])).tocsc()
    wdiag = np.repeat(1.0 / (1.0 + s_nodes**2), section.n)
    W = sp.diags(wdiag).tocsc()
    mu_min = _pencil_smallest(A, W, seed=5)
    if dense_check and A.shape[0] <= 6000:
        dense_vals = la.eigh(
            A.toarray(), W.toarray(), eigvals_only=True,
            subset_by_index=(0, 0),
        )
        cert.meta["mu_min_dense"] = float(dense_vals[0])
    cert.mu_min = float(mu_min)
    cert.margin = float(mu_min - cert.c_R)
    cert.passed = bool(mu_min >= cert.c_R - tol)
    cert.meta["L"] = L
    cert.meta["ds"] = ds
    return cert


def _pencil_smallest(A: sp.spmatrix, W: sp.spmatrix, seed: int = 5) -> float:
    """Smallest eigenvalue of the pencil A psi = mu W psi (A > 0, W > 0).

    Shift-invert Lanczos on the generalized problem at sigma = 0 (inverse
    iteration on the pencil).  A = H - lam1 on the Dirichlet tube is
    positive definite (its floor is the longitudinal ground energy), so
    OPinv = A^-1 is a banded Cholesky solve; a failed factor raises
    NotPositiveDefinite.
    """
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(A.shape[0])
    if np.iscomplexobj(A):
        v0 = v0 + 1j * rng.standard_normal(A.shape[0])
    OPinv = sla.LinearOperator(A.shape, matvec=banded_cholesky(A),
                               dtype=A.dtype)
    return _generalized_nearest(A, W, 0.0, v0, OPinv=OPinv)


def _generalized_nearest(A, M, sigma: float, v0, OPinv=None) -> float:
    """Eigenvalue of A psi = mu M psi nearest sigma (shift-invert Lanczos);
    OPinv = (A - sigma M)^-1, factored by SuperLU when not given."""
    with warnings.catch_warnings():
        # ARPACK's generalized-mode bookkeeping casts the real Ritz values
        # through the complex work arrays
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        vals = sla.eigsh(A, k=1, M=M, sigma=sigma, which="LM", v0=v0,
                         OPinv=OPinv, return_eigenvectors=False)
    if np.iscomplexobj(A):
        # scipy's complex ARPACK driver holds OPinv, and with it the
        # factor, in a reference cycle; release it now, not whenever the
        # cyclic collector next runs (factors piled up across a sweep)
        gc.collect()
    return float(vals[0])


# -- deformed straight tubes (Prop. stability under small deformations) -----------


@dataclass
class DeformationSpec:
    """Transverse and longitudinal shifts of the straight planar tube.

    Phi_a(s, t) = (s + a E1(s), t + a e2(s)) with smooth compactly supported
    profiles and amplitude a.
    """

    e2: Profile = field(default_factory=Profile)
    E1: Profile = field(default_factory=Profile)

    def map_jacobian(self, a: float, s, t):
        """DPhi entries at (s, t): [[1 + a E1', 0], [a e2', 1]]."""
        d11 = 1.0 + a * self.E1.d1(s)
        d21 = a * self.e2.d1(s)
        return d11, d21


def assemble_deformed_tube(section: GridDomain, field, b: float,
                           deformation: DeformationSpec, amplitude: float,
                           L: float, ds: float = 0.05):
    """(-i grad + b A)^2 on the deformed planar tube, pulled to the reference.

    Metric from the sampled Jacobian (G = DPhi^T DPhi, weight
    |g|^(1/2) = det DPhi); the field enters as the reference-coordinate
    2-form det(DPhi) B(Phi) with a transverse gauge.  The diagonal metric
    terms are assembled on lattice edges (covariant differences, no
    averaging, so the form stays coercive); the O(amplitude) off-diagonal
    W12 term uses cell-centered averaged gradients.  Returns (H, mass,
    s_nodes) for the generalized pencil H psi = lam * mass psi.
    """
    n_sub = int(round(2 * L / ds))
    s_nodes = (-L + ds * np.arange(n_sub + 1))[1:-1]
    tau = section.node_coords()
    dtau = section.h
    ns, nt = len(s_nodes), len(tau)
    n = ns * nt

    def metric(s, t):
        d11, d21 = deformation.map_jacobian(amplitude, s, t)
        det = d11  # det DPhi = d11
        # G = [[d11^2 + d21^2, d21], [d21, 1]], det G = d11^2;
        # W = |g|^(1/2) G^{-1} = (1/d11) [[1, -d21], [-d21, g11]]
        return det, 1.0 / det, -d21 / det, (d11**2 + d21**2) / det

    det_probe, _, _, _ = metric(
        np.linspace(-L, L, 2001), np.zeros(2001)
    )
    if det_probe.min() <= 0.05:
        raise DeformationTooLarge(
            f"det DPhi reaches {det_probe.min():.3f}; reduce the amplitude"
        )
    zero_field = field is None or field.is_zero() or b == 0.0

    def gauge_ref(s_pts, t_pts):
        """A1(s, t) with dA1/dt = -Bref on the product grid (0 in t_pts)."""
        fine = 4
        step = dtau / fine
        lo = min(t_pts.min(), 0.0) - dtau
        hi = max(t_pts.max(), 0.0) + dtau
        nf = int(np.ceil((hi - lo) / step))
        tf = lo + step * np.arange(nf + 1)
        tf = tf - tf[np.argmin(np.abs(tf))]  # put 0 on the fine grid
        Sg, Tg = np.meshgrid(s_pts, tf, indexing="ij")
        pos = np.stack(
            [Sg + amplitude * deformation.E1(Sg),
             Tg + amplitude * deformation.e2(Sg)], axis=-1
        )
        detf = 1.0 + amplitude * deformation.E1.d1(Sg)
        Bref = detf * field.value(pos)
        A1f = -_cumint_from_zero(Bref, tf, axis=1)
        idx = np.rint((t_pts - tf[0]) / step).astype(int)
        return A1f[:, idx]

    # s-edges (Dirichlet ghosts at both ends)
    lat = TubeLattice(s_nodes, section, ds=ds)
    phases = None
    if not zero_field:
        phases = (ds * b * gauge_ref(lat.mids, tau)).ravel()
    _, w11_e, _, _ = metric(
        np.repeat(lat.mids, nt), np.tile(tau, ns + 1)
    )
    H = form_term(lat.axis_factor(phases), weights=w11_e)
    # t-edges
    il, ir, t_mids = lat.section_links(0)
    Dt = cov_link_matrix(n, il, ir, dtau)
    _, _, _, w22_e = metric(
        np.repeat(s_nodes, len(t_mids)), np.tile(t_mids, ns)
    )
    H = H + form_term(Dt, weights=w22_e)
    # cross term, cell-centered with averaged covariant gradients
    node_idx = -np.ones((ns + 2, nt + 2), dtype=np.int64)
    node_idx[1:-1, 1:-1] = np.arange(n).reshape(ns, nt)
    ncell = (ns + 1) * (nt + 1)
    ci = np.repeat(np.arange(ns + 1), nt + 1)
    cj = np.tile(np.arange(nt + 1), ns + 1)
    ll, rl, lr, rr = (node_idx[ci + di, cj + dj] for di, dj in
                      ((0, 0), (1, 0), (0, 1), (1, 1)))
    sc = np.concatenate([[s_nodes[0] - ds], s_nodes]) + ds / 2
    tc = np.concatenate([[tau[0] - dtau], tau]) + dtau / 2
    _, _, w12_c, _ = metric(np.repeat(sc, nt + 1), np.tile(tc, ns + 1))
    if np.abs(w12_c).max() > 0:
        if zero_field:
            eip = np.ones(ncell)
        else:
            eip = np.exp(1j * (ds * b * gauge_ref(sc, tc)).ravel())

        def cellgrad(pairs, h, phase):
            rows, cols, vals = [], [], []
            for (a_idx, b_idx) in pairs:
                for idx_arr, coef in ((b_idx, (-1j / h) * 0.5 * phase),
                                      (a_idx, (1j / h) * 0.5 * np.ones(ncell))):
                    ok = idx_arr >= 0
                    rows.append(np.nonzero(ok)[0])
                    cols.append(idx_arr[ok])
                    vals.append(np.broadcast_to(coef, (ncell,))[ok])
            return sp.csr_matrix(
                (np.concatenate(vals),
                 (np.concatenate(rows), np.concatenate(cols))),
                shape=(ncell, n),
            )

        Gs = cellgrad(((ll, rl), (lr, rr)), ds, eip)
        Gt = cellgrad(((ll, lr), (rl, rr)), dtau, np.ones(ncell))
        H = H + (Gs.getH() @ sp.diags(w12_c) @ Gt
                 + Gt.getH() @ sp.diags(w12_c) @ Gs)
    H = H.tocsr()
    d11n, _ = deformation.map_jacobian(
        amplitude, np.repeat(s_nodes, nt), np.tile(tau, ns)
    )
    return H, sp.diags(d11n).tocsc(), s_nodes


def deformation_experiment(section: GridDomain, field, b: float,
                           deformation: DeformationSpec, amplitudes,
                           L: float = 20.0, ds: float = 0.05,
                           seed: int = 5) -> dict:
    """Lowest eigenvalue of the deformed tube across the amplitude schedule.

    pass per amplitude = no eigenvalue below lam1(omega) - budget with
    budget = 2 (pi / (2L))^2 (the free longitudinal ground energy bounds the
    truncation perturbation).
    """
    lam1_omega, _ = transverse_ground(section)
    budget = 2.0 * (np.pi / (2 * L)) ** 2
    rows = []
    for a in amplitudes:
        H, mass, _ = assemble_deformed_tube(section, field, b, deformation,
                                            a, L, ds=ds)
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
        lam = _generalized_nearest(H.tocsc(), mass.tocsc(), 0.8 * lam1_omega,
                                   v0)
        rows.append({
            "amplitude": a,
            "lam1": lam,
            "threshold": lam1_omega,
            "budget": budget,
            "below": lam < lam1_omega - budget,
        })
    return {
        "rows": rows,
        "lam1_omega": lam1_omega,
        "budget": budget,
        "admissible": [r["amplitude"] for r in rows if not r["below"]],
    }


def large_b_experiment(tube: TubeSpec, field, b_schedule,
                       frame=None, seed: int = 7) -> dict:
    """Track the ground energy of the eps = 1 bent tube along the b schedule.

    pass = the lowest eigenvalue exceeds lam1(omega) - budget from some b_0
    onward; the crossing intensity is reported (inconclusive if the schedule
    ends first).
    """
    from .operators import assemble_full_2d

    if frame is None:
        frame = integrate_frame(tube.curve)
    lam1_omega, _ = transverse_ground(tube.section)
    S = tube.curve.S
    budget = 2.0 * (np.pi / (2 * S)) ** 2
    rows = []
    crossing = None
    for b in b_schedule:
        regime = RegimeParams(eps=1.0, delta=0.0, b=float(b), K=tube.regime.K)
        tube_b = TubeSpec(tube.curve, tube.section, regime)
        op = assemble_full_2d(tube_b, field if b > 0 else None, frame,
                              shifted=False)
        vals, _, _ = lowest_eigenpairs(op.matrix, k=1, sigma=0.5 * lam1_omega,
                                       seed=seed)
        lam = float(vals[0])
        empty = lam >= lam1_omega - budget
        if empty and crossing is None:
            crossing = float(b)
        rows.append({"b": float(b), "lam1": lam, "empty": empty})
    trend = np.polyfit([r["b"] for r in rows], [r["lam1"] for r in rows], 1)[0] \
        if len(rows) >= 2 else 0.0
    return {
        "rows": rows,
        "lam1_omega": lam1_omega,
        "budget": budget,
        "crossing_b": crossing,
        "conclusive": crossing is not None,
        "trend_slope": float(trend),
    }
