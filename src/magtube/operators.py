"""Waveguide operators on the homogenized reference domain.

Full 2D/3D curvilinear operators, the intermediate straight-tube
approximation, and the effective 1D models for every scaling regime, plus
resolvent-distance measurement between models.

Discretization: every quadratic-form term is F* diag(w) F built from
first-order covariant difference factors with link phases e^{i h a}; the
longitudinal factor of the (i d/ds + b A1) sandwich is composed with the
metric multipliers node/link-wise.  Real symmetric matrices are produced
whenever no magnetic or twist term is present.

Every tube operator lives on one :class:`TubeLattice`, the product of axis
nodes and the section's interior nodes.  Unknowns are s-major: node
(s_k, omega_j) has index k * nsec + j, so each operator is banded with
bandwidth nsec.  A link endpoint with index -1 is a Dirichlet ghost: an
eliminated boundary node whose value is 0.  Section links always end in
ghosts outside the mask (Dirichlet on the tube wall).  Dirichlet axis ends
add a ghost link before the first and after the last s-node; Neumann ends
keep only the links between unknowns, which leaves the natural (vanishing
covariant normal derivative) condition.

The 1D <-> 2D/3D comparison uses the isometric J1-fiber embedding (the
thin-tube ground-mode projection); effective operators come in a
"coefficient" flavor (the printed 1D model with a configurable transverse
moment coefficient) and a "galerkin" flavor (exact fiber projection of the
straight-tube approximation, used for discretization-matched rate sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from .assemble import (
    AssembledOperator,
    Spectrum,
    banded_cholesky,
    cov_link_matrix,
    dirichlet_links,
    dirichlet_second_difference,
    form_term,
    lowest_eigenpairs,
)
from .errors import GridBudgetError, SupportTruncationError
from .geometry import FrameTrajectory, TubeSpec, integrate_frame, \
    pullback_field, gauge_2d, gauge_3d, validate_tube
from .grids import GridDomain
from .xsection import assemble_dirichlet_laplacian, lowest_modes

GRID_BUDGET_3D = 300_000


# -- grids along the axis --------------------------------------------------------


@dataclass
class AxisGrid:
    """Interior s-nodes of (-S, S) with Dirichlet ends, plus link midpoints."""

    S: float
    ds: float

    def __post_init__(self):
        n_sub = int(round(2 * self.S / self.ds))
        self.nodes = -self.S + self.ds * np.arange(1, n_sub)
        self.mids = -self.S + self.ds * (np.arange(n_sub) + 0.5)
        self.ns = len(self.nodes)

    def second_difference(self) -> sp.csr_matrix:
        return dirichlet_second_difference(self.ns, self.ds)

    def lattice(self, section: GridDomain) -> "TubeLattice":
        return TubeLattice(self.nodes, section, ds=self.ds, mids=self.mids)


def axis_grid(curve) -> AxisGrid:
    return AxisGrid(curve.S, curve.ds)


@dataclass
class TubeLattice:
    """Axis nodes x section nodes, s-major, with Dirichlet ghost links.

    ``ds`` and ``mids`` (the s-link midpoints) default to the node spacing
    and the midpoints between nodes; an :class:`AxisGrid` passes its own.
    """

    nodes: np.ndarray
    section: GridDomain
    neumann_ends: bool = False
    ds: float | None = None
    mids: np.ndarray | None = None

    def __post_init__(self):
        self.ns = len(self.nodes)
        self.nsec = self.section.n
        self.n = self.ns * self.nsec
        if self.ds is None:
            self.ds = self.nodes[1] - self.nodes[0]
        if self.mids is None:
            if self.neumann_ends:
                self.mids = self.nodes[:-1] + self.ds / 2
            else:
                self.mids = np.concatenate([[self.nodes[0] - self.ds / 2],
                                            self.nodes + self.ds / 2])

    def axis_links(self):
        """(idx_l, idx_r) of the s-links; link (k, j) sits at
        (mids[k], section node j) and is row k * nsec + j."""
        if self.neumann_ends:
            k_l, k_r = np.arange(self.ns - 1), np.arange(1, self.ns)
        else:
            k_l, k_r = dirichlet_links(self.ns)
        j = np.arange(self.nsec)[None, :]
        return tuple(np.where(k[:, None] >= 0, k[:, None] * self.nsec + j, -1)
                     .ravel() for k in (k_l, k_r))

    def section_links(self, axis: int):
        """(idx_l, idx_r, mids) of the section links along ``axis`` in every
        s-slab; link (k, m) joins section link m at s-node k, sits at
        (nodes[k], mids[m]) and is row k * len(mids) + m."""
        idx_l, idx_r, mids = self.section.links(axis)
        offs = (np.arange(self.ns) * self.nsec)[:, None]
        return (np.where(idx_l >= 0, idx_l + offs, -1).ravel(),
                np.where(idx_r >= 0, idx_r + offs, -1).ravel(), mids)

    def axis_factor(self, phases=None) -> sp.csr_matrix:
        """Covariant s-difference on the axis links (phases per link)."""
        return cov_link_matrix(self.n, *self.axis_links(), self.ds,
                               phases=phases)

    def axis_selectors(self):
        """(SL, SR): per s-link, the value at its left / right node (0 at a
        ghost endpoint)."""
        out = []
        for idx in self.axis_links():
            ok = idx >= 0
            out.append(sp.csr_matrix(
                (np.ones(ok.sum()), (np.nonzero(ok)[0], idx[ok])),
                shape=(len(idx), self.n)))
        return tuple(out)

    def link_average(self) -> sp.csr_matrix:
        """Average node values onto the s-links."""
        SL, SR = self.axis_selectors()
        return 0.5 * (SL + SR)


def transverse_form(lat: TubeLattice, pulled=None, eps: float = 1.0,
                    b: float = 0.0) -> sp.csr_matrix:
    """eps^-2 sum_j (-i d/dtau_j + eps b A_j)^2 on every s-slab.

    Without ``pulled`` this is the section's Dirichlet Laplacian per slab.
    With a pulled 3D field it uses the explicit gauge of :func:`gauge_3d`
    at the lattice's s-nodes.
    """
    sec = lat.section
    mat = None
    for axis in range(sec.dim):
        idx_l, idx_r, mids = lat.section_links(axis)
        phases = None
        if pulled is not None:
            if axis == 0:
                # A2 = -t3 B23(s,0,0)/2, independent of tau2
                B23ax, _, _, _ = pulled.on_axis(lat.nodes)
                phases = (
                    sec.h * eps * b
                    * (-0.5 * eps * mids[:, 1])[None, :] * B23ax[:, None]
                )
            else:
                # A3 needs the tau2-cumulative of B23 at tau3 link midpoints
                u3 = np.unique(mids[:, 1])
                _, _, A3g = gauge_3d(pulled, pulled.tube, lat.nodes,
                                     sec.axes[0], u3)
                i2 = np.rint((mids[:, 0] - sec.axes[0][0]) / sec.h).astype(int)
                i3 = np.searchsorted(u3, mids[:, 1])
                phases = sec.h * eps * b * A3g[:, i2, i3]
            phases = phases.ravel()
        D = cov_link_matrix(lat.n, idx_l, idx_r, sec.h, phases=phases)
        term = eps**-2 * form_term(D)
        mat = term if mat is None else mat + term
    return mat


_TRANSVERSE_MEMO: dict = {}


def transverse_ground(section: GridDomain):
    """(lam1h, J1h) of the discrete Dirichlet Laplacian on the section."""
    key = section.descriptor()
    if key not in _TRANSVERSE_MEMO:
        modes = lowest_modes(assemble_dirichlet_laplacian(section), 1)
        _TRANSVERSE_MEMO[key] = (modes.lam1, modes.J1)
    return _TRANSVERSE_MEMO[key]


def _check_support(tube: TubeSpec, field) -> None:
    bound = tube.curve.support_bound()
    if field is not None and not field.is_zero():
        bound = max(bound, field.support_bound())
    if bound > tube.curve.S / 2 + 1e-12:
        raise SupportTruncationError(
            f"supports reach |s| = {bound:.3f} > S/2 = {tube.curve.S / 2:.3f}"
        )


# -- 2D assemblies ----------------------------------------------------------------


def assemble_full_2d(tube: TubeSpec, field, frame: FrameTrajectory | None = None,
                     shifted: bool = True, gauge_chi=None) -> AssembledOperator:
    """Homogenized curvilinear operator of a planar tube.

    m (i d/ds + b A1) m^2 (i d/ds + b A1) m - eps^-2 d^2/dtau^2 + V with
    m = (1 - eps tau kappa)^(-1/2), V = -(kappa^2/4)(1 - eps kappa tau)^-2.
    With ``shifted`` the stored matrix is the positive-definite
    L - eps^-2 lam1h + K.  ``gauge_chi`` adds the discrete gradient of a
    lattice gauge function chi(s) to A1 (link phases shift by the exact
    difference b (chi(s_r) - chi(s_l)); the spectrum must not move).
    """
    _check_support(tube, field)
    if frame is None:
        frame = integrate_frame(tube.curve)
    validate_tube(tube, frame=None)
    ax = axis_grid(tube.curve)
    sec = tube.section
    if sec.dim != 1:
        raise ValueError("2D tube needs a 1D cross section")
    lat = ax.lattice(sec)
    tau = sec.node_coords()
    ntau = sec.n
    eps, b = tube.regime.eps, tube.regime.b
    kap_n = tube.curve.kappa(ax.nodes)
    kap_m = tube.curve.kappa(ax.mids)
    m_node = (1.0 - eps * np.outer(kap_n, tau)) ** (-0.5)
    m_link = (1.0 - eps * np.outer(kap_m, tau)) ** (-0.5)
    V = -0.25 * kap_n[:, None] ** 2 * (1.0 - eps * np.outer(kap_n, tau)) ** (-2.0)
    zero_field = (field is None or field.is_zero()) and gauge_chi is None
    phases = None
    if not zero_field:
        if field is None or field.is_zero():
            A1 = np.zeros((len(ax.mids), ntau))
        else:
            A1 = gauge_2d(field, frame, tube, ax.mids, tau)
        phases = (-ax.ds * b * A1)  # (i d/ds + bA1)^2 = (-i d/ds - bA1)^2
        if gauge_chi is not None:
            s_ext = np.concatenate([[ax.nodes[0] - ax.ds], ax.nodes,
                                    [ax.nodes[-1] + ax.ds]])
            chi = np.asarray(gauge_chi(s_ext), dtype=float)
            dchi = chi[1:] - chi[:-1]
            phases = phases - b * dchi[:, None]
        phases = phases.ravel()
    Y = lat.axis_factor(phases) @ sp.diags(m_node.ravel())
    kin_s = form_term(Y, weights=(m_link**2).ravel())
    mat = kin_s + transverse_form(lat, eps=eps) + sp.diags(V.ravel())
    return _tube_operator(mat, tube, ax, shifted, "full2d")


def _tube_operator(mat, tube: TubeSpec, ax: AxisGrid, shifted: bool,
                   model: str) -> AssembledOperator:
    """Wrap a tube matrix; ``shifted`` adds -eps^-2 lam1h + K."""
    sec = tube.section
    eps = tube.regime.eps
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    shift = (-(eps**-2) * lam1h + K) if shifted else 0.0
    return AssembledOperator(
        matrix=(mat + shift * sp.eye(mat.shape[0])).tocsr(),
        grid={"kind": f"tube{sec.dim + 1}d", "axis": ax, "section": sec},
        bc={"s": "dirichlet", "tau" if sec.dim == 1 else "omega": "dirichlet"},
        shift=shift,
        regime=tube.regime,
        meta={"lam1h": lam1h, "J1h": J1h, "K": K,
              "ess_threshold": eps**-2 * lam1h + shift,
              "model": model},
    )


def _shift_constant(tube: TubeSpec) -> float:
    """K >= 2 sup(kappa^2/4); default 2 sup(kappa^2/4) + 1, configurable."""
    if tube.regime.K is not None:
        return tube.regime.K
    return 2.0 * tube.curve.sup_kappa() ** 2 / 4.0 + 1.0


def assemble_app_2d(tube: TubeSpec, field, frame: FrameTrajectory | None = None,
                    shifted: bool = True) -> AssembledOperator:
    """Straight-metric approximation: (i d/ds + eps b B(s,0) tau)^2 - kappa^2/4
    - eps^-2 d^2/dtau^2 (+ shift)."""
    _check_support(tube, field)
    if frame is None:
        frame = integrate_frame(tube.curve)
    ax = axis_grid(tube.curve)
    sec = tube.section
    lat = ax.lattice(sec)
    tau = sec.node_coords()
    eps, b = tube.regime.eps, tube.regime.b
    zero_field = field is None or field.is_zero()
    phases = None
    if not zero_field:
        beta_mid = field.on_axis(frame, ax.mids)
        phases = (-ax.ds * eps * b * np.outer(beta_mid, tau)).ravel()
    kin_s = form_term(lat.axis_factor(phases))
    V = -0.25 * tube.curve.kappa(ax.nodes)[:, None] ** 2 * np.ones((1, sec.n))
    mat = kin_s + transverse_form(lat, eps=eps) + sp.diags(V.ravel())
    return _tube_operator(mat, tube, ax, shifted, "app2d")


def fiber_embedding(J1h: np.ndarray, ns: int) -> sp.csr_matrix:
    """Isometry E: f(s) -> f(s) J1(tau), as a coefficient matrix."""
    ntau = len(J1h)
    rows = np.arange(ns * ntau)
    cols = np.repeat(np.arange(ns), ntau)
    vals = np.tile(J1h, ns)
    return sp.csr_matrix((vals, (rows, cols)), shape=(ns * ntau, ns))


def fiber_project(mat2d: sp.spmatrix, J1h: np.ndarray, ns: int,
                  dvol: float) -> sp.csr_matrix:
    """Galerkin fiber block E* M E w.r.t. the grid inner product."""
    E = fiber_embedding(J1h, ns)
    return (dvol * (E.getH() @ (mat2d @ E))).tocsr()


def assemble_effective_2d(tube: TubeSpec, field, constants=None,
                          frame: FrameTrajectory | None = None,
                          mode: str = "coefficient",
                          coefficient_source: str = "measured",
                          include_K: bool = True) -> AssembledOperator:
    """Effective 1D operator T^[2] (the transverse offset lives in the shift).

    delta < 1: -d^2/ds^2 - kappa^2/4.
    delta = 1: -d^2/ds^2 + c_B B(gamma(s))^2 - kappa^2/4 with c_B either the
    measured ||tau J1||^2 (default) or the printed 1/3 + 2/pi^2; "galerkin"
    mode instead projects the straight-tube approximation onto the J1 fiber
    (discretization-matched; used by rate sweeps).
    """
    ax = axis_grid(tube.curve)
    lam1h, J1h = transverse_ground(tube.section)
    K = _shift_constant(tube) if include_K else 0.0
    critical = abs(tube.regime.delta - 1.0) < 1e-12
    meta = {"model": "effective2d", "mode": mode, "K": K, "lam1h": lam1h,
            "ess_threshold": K}
    if mode == "galerkin":
        app = assemble_app_2d(tube, field if critical else None, frame=frame,
                              shifted=False)
        mat = fiber_project(app.matrix, J1h, ax.ns, tube.section.h)
        mat = mat - lam1h * tube.regime.eps**-2 * sp.eye(ax.ns)
        meta["coefficient_source"] = "galerkin-fiber"
    else:
        if frame is None:
            frame = integrate_frame(tube.curve)
        pot = -0.25 * tube.curve.kappa(ax.nodes) ** 2
        if critical and field is not None and not field.is_zero():
            from .xsection import PRINTED_T2_COEFFICIENT, compute_constants

            if constants is None:
                constants = compute_constants(tube.section)
            c_B = (
                constants.moment2
                if coefficient_source == "measured"
                else PRINTED_T2_COEFFICIENT
            )
            beta = field.on_axis(frame, ax.nodes)
            pot = pot + c_B * beta**2
            meta["c_B"] = c_B
        meta["coefficient_source"] = coefficient_source
        mat = ax.second_difference() + sp.diags(pot)
    mat = (mat + K * sp.eye(ax.ns)).tocsr()
    if not np.iscomplexobj(mat.data):
        mat = sp.csr_matrix(mat, dtype=float)
    return AssembledOperator(
        matrix=mat,
        grid={"kind": "axis", "axis": ax, "section": tube.section},
        bc={"s": "dirichlet"},
        shift=K,
        regime=tube.regime,
        meta=meta,
    )


# -- 3D assemblies ----------------------------------------------------------------


def _twist_term(lat: TubeLattice, tp_mid) -> sp.csr_matrix:
    """-i theta' d_alpha, with d_alpha averaged from the nodes onto s-links."""
    from .xsection import angular_derivative

    Dal = sp.kron(sp.eye(lat.ns), angular_derivative(lat.section).matrix,
                  format="csr")
    tw = np.repeat(tp_mid, lat.nsec)
    return (-1j) * sp.diags(tw) @ (lat.link_average() @ Dal)


def assemble_full_3d(tube: TubeSpec, field, frame: FrameTrajectory | None = None,
                     shifted: bool = True, budget: int = GRID_BUDGET_3D
                     ) -> AssembledOperator:
    """Homogenized 3D operator (twist + magnetic field) on s x omega.

    Terms: transverse covariant squares, -kappa^2/(4 h^2), and the
    longitudinal h^{-1/2} X h^{-1} X h^{-1/2} sandwich with
    X = -i d/ds + b A1 - i theta' d_alpha + R, R = h3 b A2 + h2 b A3.
    """
    _check_support(tube, field)
    if frame is None:
        frame = integrate_frame(tube.curve)
    validate_tube(tube, frame=None)
    ax = axis_grid(tube.curve)
    sec = tube.section
    if sec.dim != 2:
        raise ValueError("3D tube needs a 2D cross section")
    lat = ax.lattice(sec)
    nsec = sec.n
    n = lat.n
    if n > budget:
        raise GridBudgetError(
            f"{n} unknowns exceed the 3D budget {budget}; coarsen ds or h"
        )
    eps, b = tube.regime.eps, tube.regime.b
    curve = tube.curve
    coords = sec.node_coords()
    t2n, t3n = coords[:, 0], coords[:, 1]
    zero_field = field is None or field.is_zero()
    pulled = None if zero_field else pullback_field(field, frame, tube)

    def h_factor(s_arr, tau2, tau3):
        th = frame.at(s_arr)["theta"]
        k2 = curve.kappa2(s_arr)
        k3 = curve.kappa3(s_arr)
        ca, sa = np.cos(th), np.sin(th)
        return (
            1.0
            - eps * tau2 * (k2 * ca + k3 * sa)
            - eps * tau3 * (-k2 * sa + k3 * ca)
        )

    mat = transverse_form(lat, pulled, eps, b)

    # longitudinal sandwich
    h_node = h_factor(
        np.repeat(ax.nodes, nsec), np.tile(t2n, ax.ns), np.tile(t3n, ax.ns)
    )
    h_link = h_factor(
        np.repeat(ax.mids, nsec), np.tile(t2n, ax.ns + 1), np.tile(t3n, ax.ns + 1)
    )
    if zero_field:
        phases = None
        Rmult = None
    else:
        box_axes = sec.axes
        A1g, A2g, A3g = gauge_3d(pulled, tube, ax.mids, box_axes[0], box_axes[1])
        i2 = np.rint((t2n - box_axes[0][0]) / sec.h).astype(int)
        i3 = np.rint((t3n - box_axes[1][0]) / sec.h).astype(int)
        A1_link = A1g[:, i2, i3]          # (ns+1, nsec)
        A2_link = A2g[:, i2, i3]
        A3_link = A3g[:, i2, i3]
        phases = (ax.ds * b * A1_link).ravel()
        tp_mid = curve.theta_prime(ax.mids)
        h2_link = -eps * t2n[None, :] * tp_mid[:, None]
        h3_link = eps * t3n[None, :] * tp_mid[:, None]
        Rmult = (h3_link * b * A2_link + h2_link * b * A3_link).ravel()
    X = lat.axis_factor(phases)
    if not curve.theta_prime.is_zero:
        X = X + _twist_term(lat, curve.theta_prime(ax.mids))
    if Rmult is not None and np.abs(Rmult).max() > 0:
        X = X + sp.diags(Rmult) @ lat.link_average()
    Y = X @ sp.diags(h_node**-0.5)
    mat = mat + form_term(Y, weights=1.0 / h_link)
    kap2 = curve.kappa_mag(np.repeat(ax.nodes, nsec)) ** 2
    mat = mat + sp.diags(-0.25 * kap2 / h_node**2)
    return _tube_operator(mat, tube, ax, shifted, "full3d")


def _app2_longitudinal_3d(tube: TubeSpec, field, frame: FrameTrajectory,
                          critical: bool) -> sp.spmatrix:
    """X~ = -i d/ds - i theta' d_alpha - B12(s,0,0) tau2 - B13(s,0,0) tau3
    as a link-factor matrix (the longitudinal factor of the straight-tube
    approximation at delta = 1; field terms dropped when not critical)."""
    ax = axis_grid(tube.curve)
    sec = tube.section
    lat = ax.lattice(sec)
    coords = sec.node_coords()
    zero_field = field is None or field.is_zero() or not critical
    phases = None
    if not zero_field:
        pulled = pullback_field(field, frame, tube)
        _, B13ax, B12ax, _ = pulled.on_axis(ax.mids)
        a_mult = -(B12ax[:, None] * coords[None, :, 0]
                   + B13ax[:, None] * coords[None, :, 1])
        phases = (ax.ds * a_mult).ravel()
    X = lat.axis_factor(phases)
    if not tube.curve.theta_prime.is_zero:
        X = X + _twist_term(lat, tube.curve.theta_prime(ax.mids))
    return X


def assemble_effective_3d(tube: TubeSpec, field, constants=None,
                          frame: FrameTrajectory | None = None,
                          mode: str = "coefficient") -> AssembledOperator:
    """Effective 1D operator T^[3].

    delta < 1: -d^2/ds^2 - kappa^2/4 + p theta'^2.
    delta = 1: J1-fiber projection of the squared longitudinal covariant
    derivative plus B23(s,0,0)^2 M(omega) - kappa^2/4, with
    M(omega) = ||tau J1||^2/4 - <D_alpha R_omega, J1>.
    "galerkin" realizes the projection with the discrete d_alpha and J1
    (and mask-consistent M); "coefficient" uses the expanded closed form
    (-i d/ds + a)^2 - a^2 + theta'^2 p + second-moment potential with
    a = -(B12 m2 + B13 m3), valid for reflection-symmetric sections.
    """
    from .xsection import compute_constants

    if frame is None:
        frame = integrate_frame(tube.curve)
    ax = axis_grid(tube.curve)
    sec = tube.section
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    critical = abs(tube.regime.delta - 1.0) < 1e-12
    meta = {"model": "effective3d", "mode": mode, "K": K, "lam1h": lam1h,
            "ess_threshold": K}
    zero_field = field is None or field.is_zero()
    if mode == "galerkin":
        X = _app2_longitudinal_3d(tube, field, frame, critical)
        mat = fiber_project(form_term(X), J1h, ax.ns, sec.h**2)
        if critical and not zero_field:
            mask_const = constants or compute_constants(sec, method="mask")
            B23ax, _, _, _ = pullback_field(field, frame, tube).on_axis(ax.nodes)
            mat = mat + sp.diags(B23ax**2 * mask_const.M_omega)
            meta["M_omega"] = mask_const.M_omega
        mat = mat + sp.diags(-0.25 * tube.curve.kappa_mag(ax.nodes) ** 2)
        meta["coefficient_source"] = "galerkin-fiber"
    else:
        if constants is None:
            constants = compute_constants(sec)
        tp = tube.curve.theta_prime(ax.nodes)
        pot = -0.25 * tube.curve.kappa_mag(ax.nodes) ** 2 + constants.p * tp**2
        phases = None
        if critical and not zero_field:
            pulled = pullback_field(field, frame, tube)
            B23n, B13n, B12n, _ = pulled.on_axis(ax.nodes)
            B23m, B13m, B12m, _ = pulled.on_axis(ax.mids)
            a_mid = -(B12m * constants.m2 + B13m * constants.m3)
            a_nod = -(B12n * constants.m2 + B13n * constants.m3)
            Q22, Q23, Q33 = constants.second_moments
            pot = pot + (
                B12n**2 * Q22 + 2 * B12n * B13n * Q23 + B13n**2 * Q33
                - a_nod**2
                + B23n**2 * constants.M_omega
            )
            if np.abs(a_mid).max() > 0:
                phases = ax.ds * a_mid
            meta["M_omega"] = constants.M_omega
        D = cov_link_matrix(ax.ns, *dirichlet_links(ax.ns), ax.ds,
                            phases=phases)
        mat = form_term(D) + sp.diags(pot)
        meta["coefficient_source"] = "coefficient"
        meta["p"] = constants.p
    mat = (mat + K * sp.eye(ax.ns)).tocsr()
    return AssembledOperator(
        matrix=mat,
        grid={"kind": "axis", "axis": ax, "section": sec},
        bc={"s": "dirichlet"},
        shift=K,
        regime=tube.regime,
        meta=meta,
    )


# -- spectra and resolvent distances ----------------------------------------------


def smallest_eigenpairs(op: AssembledOperator, k: int = 1,
                        sigma: float | None = None, seed: int = 7) -> Spectrum:
    """k lowest eigenpairs with shift-invert; dense fallback below 3000."""
    if sigma is None:
        sigma = 0.0 if op.shift != 0.0 else None
        if sigma is None:
            sigma = -1.0
    vals, vecs, res = lowest_eigenpairs(op.matrix, k=k, sigma=sigma, seed=seed)
    return Spectrum(vals, vecs, res, ess_threshold=op.meta.get("ess_threshold"))


def resolvent_distance(opA: AssembledOperator, opB: AssembledOperator,
                       embedding: sp.spmatrix | None = None,
                       dvol_ratio: float | None = None,
                       tol: float = 1e-3, seed: int = 11,
                       maxiter: int = 6000):
    """Operator norm of A^-1 - E B^-1 E* (both shifted positive definite).

    E is the isometric J1-fiber embedding when B lives on the 1D axis grid;
    identity when both operators share a space.  The norm of the Hermitian
    difference comes from Lanczos (largest magnitude) on the implicit
    resolvent difference; relative accuracy ``tol``.  Both operators are
    factored by banded Cholesky: the shift makes them positive definite, and
    in s-major order their bandwidth is the section size.  A shift that
    fails to do so raises NotPositiveDefinite.
    """
    complex_path = opA.is_complex or opB.is_complex
    dtype = complex if complex_path else float
    solve_A = banded_cholesky(opA.matrix.astype(dtype, copy=False))
    solve_B = banded_cholesky(opB.matrix.astype(dtype, copy=False))
    n = opA.n
    if embedding is None and opB.n != n:
        J1h = opA.meta["J1h"]
        ns = opB.n
        embedding = fiber_embedding(J1h, ns)
        sec = opA.grid["section"]
        dvol_ratio = sec.h**sec.dim
    if embedding is not None:
        embedding_h = embedding.getH()

    def matvec(x):
        x = x.astype(dtype)
        out = solve_A(x)
        if embedding is not None:
            xr = dvol_ratio * (embedding_h @ x)
            out = out - embedding @ solve_B(xr)
        else:
            out = out - solve_B(x)
        return out

    lin = sla.LinearOperator((n, n), matvec=matvec, dtype=dtype)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    info = {"converged": True}
    probe = matvec(v0 / np.linalg.norm(v0))
    if np.linalg.norm(probe) < 1e-14:
        return float(np.linalg.norm(probe)), info
    try:
        vals = sla.eigsh(lin, k=1, which="LM", tol=tol, maxiter=maxiter,
                         v0=v0, return_eigenvectors=False)
        dist = float(abs(vals[0]))
    except (sla.ArpackNoConvergence, sla.ArpackError) as exc:
        # power-iteration fallback with an error bar from the last sweep
        x = v0 / np.linalg.norm(v0)
        prev = 0.0
        for _ in range(200):
            y = matvec(x)
            cur = float(np.linalg.norm(y))
            if cur == 0.0:
                break
            x = y / cur
            if abs(cur - prev) < tol * max(cur, 1e-300):
                break
            prev = cur
        dist = float(abs(np.vdot(x, matvec(x))))
        info = {"converged": False, "error_bar": abs(cur - prev),
                "detail": str(exc)}
    return dist, info
