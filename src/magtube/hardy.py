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

Every eigenvalue here, of a tube operator or of a pencil A psi = mu M psi
(the weighted Hardy pencil, the deformed tube with its mass matrix), comes
from the shift-invert solve :func:`magtube.assemble.lowest_eigenpairs`.
Straight tubes are grids of ds: 2R and 2L must be multiples of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assemble import (
    AssembledOperator,
    RegimeParams,
    cov_link_matrix,
    form_term,
    lowest_eigenpairs,
)
from .errors import DeformationTooLarge, ZeroFieldWarning
from .geometry import (
    CurveProfile,
    Profile,
    TubeSpec,
    _cumint_from_zero,
    integrate_frame,
)
from .grids import GridDomain, _subdivide
from .operators import (
    TubeLattice,
    _tube_matrix,
    assemble_full_2d,
    transverse_ground,
)


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
                          neumann_ends: bool):
    """(-i grad + b A)^2 on s_nodes x omega, Dirichlet on the omega faces.

    With ``neumann_ends`` the end nodes are unknowns and the quadratic form
    simply omits outside links (natural magnetic Neumann: vanishing covariant
    normal derivative); otherwise the ends are Dirichlet-eliminated.  This is
    the curvilinear tube operator of a straight curve at eps = 1, so the field
    enters with its orientation and gauge.  Segment fields cover the whole
    range on purpose: no support validation.
    """
    lat = TubeLattice(s_nodes, section, neumann_ends)
    S = float(max(abs(s_nodes[0]), abs(s_nodes[-1]))) + lat.ds
    curve = CurveProfile(dim=section.dim + 1, S=S, ds=lat.ds)
    tube = TubeSpec(curve, section, RegimeParams(eps=1.0, delta=0.0, b=b))
    return _tube_matrix(tube, lat, integrate_frame(curve), field).tocsr()


def assemble_segment(section: GridDomain, field, b: float, R: float,
                     ds: float = 0.05) -> SegmentProblem:
    """Magnetic operator on (-R, R) x omega, Dirichlet sides, Neumann ends.

    lam1_dn is its lowest eigenvalue.  The diamagnetic inequality, exact on
    the link-phase lattice, puts it at or above lam1(omega), which at b = 0
    it attains with the eigenvector 1 (x) J1.  So the eigensolve shifts a
    quarter of the first Neumann longitudinal gap (pi / 2R)^2 below that
    floor and starts from 1 (x) J1.
    """
    if field is None or field.is_zero() or b == 0.0:
        warnings.warn(
            "field vanishes on the segment: c_R degenerates to 0",
            ZeroFieldWarning,
        )
    n_sub = _subdivide(2 * R, ds)
    s_nodes = -R + ds * np.arange(n_sub + 1)
    mat = _straight_tube_matrix(section, field, b, s_nodes, neumann_ends=True)
    lam1_omega, J1 = transverse_ground(section)
    op = AssembledOperator(
        matrix=mat,
        grid={"kind": "segment", "s_nodes": s_nodes, "section": section},
        bc={"s": "neumann", "omega": "dirichlet"},
        regime=RegimeParams(eps=1.0, delta=0.0, b=b),
        meta={"model": "segment", "R": R},
    )
    sigma = lam1_omega - 0.25 * (np.pi / (2 * R)) ** 2
    vals, _, _ = lowest_eigenpairs(op.matrix, k=1, sigma=sigma,
                                   v0=np.tile(J1, len(s_nodes)))
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
                 ds: float = 0.05, tol: float = 1e-9) -> HardyCertificate:
    """Certify the weighted bound: mu_min of (H - lam1) psi = mu W psi,
    W = 1/(1+s^2), on the Dirichlet tube (-L, L) x omega; pass iff
    mu_min >= c_R - tol.

    Shift-invert at sigma = 0, whose factor is the banded Cholesky factor
    of A = H - lam1 itself: A is positive definite (its floor is the
    longitudinal ground energy), and a failed factor raises
    NotPositiveDefinite.  At b = 0 the pencil separates into J1 (x) (the 1D
    weighted Dirichlet pencil), so Lanczos starts from the fiber state
    cos(pi s / 2L) (x) J1.
    """
    if L < 4 * R:
        raise ValueError("verify_hardy wants L >= 4 R")
    n_sub = _subdivide(2 * L, ds)
    cert = hardy_constant(section, field, b, R, ds=ds)
    s_nodes = (-L + ds * np.arange(n_sub + 1))[1:-1]
    H = _straight_tube_matrix(section, field, b, s_nodes, neumann_ends=False)
    lam1_omega, J1 = transverse_ground(section)
    A = H - lam1_omega * sp.eye(H.shape[0])
    W = sp.diags(np.repeat(1.0 / (1.0 + s_nodes**2), section.n))
    fiber = np.kron(np.cos(np.pi * s_nodes / (2 * L)), J1)
    vals, _, _ = lowest_eigenpairs(A, k=1, sigma=0.0, v0=fiber, M=W)
    mu_min = float(vals[0])
    cert.mu_min = mu_min
    cert.margin = mu_min - cert.c_R
    cert.passed = bool(mu_min >= cert.c_R - tol)
    cert.meta["L"] = L
    cert.meta["ds"] = ds
    return cert


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
    W12 term lives on the lattice's plaquettes (TubeLattice.cells), with
    each gradient averaged over two parallel links.  Returns (H, mass,
    s_nodes) for the generalized pencil H psi = lam * mass psi.
    """
    n_sub = _subdivide(2 * L, ds)
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
    # cross term on the (s-link x t-link) plaquettes
    ll, rl, lr, rr = lat.cells(0)
    _, _, w12_c, _ = metric(np.repeat(lat.mids, len(t_mids)),
                            np.tile(t_mids, ns + 1))
    if np.abs(w12_c).max() > 0:
        zeros = np.zeros(len(ll))
        phi = zeros if zero_field else (
            ds * b * gauge_ref(lat.mids, t_mids)).ravel()
        Gs = 0.5 * (cov_link_matrix(n, ll, rl, ds, phi)
                    + cov_link_matrix(n, lr, rr, ds, phi))
        Gt = 0.5 * (cov_link_matrix(n, ll, lr, dtau, zeros)
                    + cov_link_matrix(n, rl, rr, dtau, zeros))
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

    The deformed tube has no proven floor: each pencil is solved at the far
    shift 0.8 lam1(omega), below its lowest eigenvalue at the amplitudes
    the factor admits, from a random start drawn from ``seed``.
    """
    lam1_omega, _ = transverse_ground(section)
    budget = 2.0 * (np.pi / (2 * L)) ** 2
    rows = []
    for a in amplitudes:
        H, mass, _ = assemble_deformed_tube(section, field, b, deformation,
                                            a, L, ds=ds)
        vals, _, _ = lowest_eigenpairs(H, k=1, sigma=0.8 * lam1_omega,
                                       seed=seed, M=mass)
        lam = float(vals[0])
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
    onward; the crossing intensity is the smallest scheduled b from which
    every later row is empty (inconclusive if the last row is not).

    The field-free tube, which binds below lam1(omega), is solved first at
    sigma = 0.5 lam1(omega).  Its ground energy lam1(0) is a floor for
    every b: the diamagnetic inequality holds exactly on the link-phase
    lattice (see the assemble module).  So each b != 0 solve shifts a
    quarter of the free longitudinal ground energy (pi / 2S)^2 below that
    floor, the margin of the Hardy segment's shift.  A schedule without
    b = 0 still pays for the floor solve.
    """
    if frame is None:
        frame = integrate_frame(tube.curve)
    lam1_omega, _ = transverse_ground(tube.section)
    S = tube.curve.S
    budget = 2.0 * (np.pi / (2 * S)) ** 2

    def ground_energy(b: float, sigma: float) -> float:
        regime = RegimeParams(eps=1.0, delta=0.0, b=b, K=tube.regime.K)
        tube_b = TubeSpec(tube.curve, tube.section, regime)
        op = assemble_full_2d(tube_b, field, frame, shifted=False)
        vals, _, _ = lowest_eigenpairs(op.matrix, k=1, sigma=sigma, seed=seed)
        return float(vals[0])

    lam_free = ground_energy(0.0, 0.5 * lam1_omega)
    floor = lam_free - 0.25 * (np.pi / (2 * S)) ** 2
    rows = []
    for b in map(float, b_schedule):
        lam = lam_free if b == 0.0 else ground_energy(b, floor)
        rows.append({"b": b, "lam1": lam,
                     "empty": lam >= lam1_omega - budget})
    crossing = None
    for row in reversed(rows):
        if not row["empty"]:
            break
        crossing = row["b"]
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
