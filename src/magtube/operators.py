"""Waveguide operators on the homogenized reference domain.

Full 2D/3D curvilinear operators, the intermediate straight-tube
approximation, and the effective 1D models for every scaling regime, plus
resolvent-distance measurement between models.

Discretization: every quadratic-form term is F* diag(w) F built from
first-order covariant difference factors with link phases e^{i h a}; the
longitudinal factor of the (i d/ds + b A1) sandwich is composed with the
metric multipliers node/link-wise.  Real symmetric matrices are produced
whenever no magnetic or twist term is present.

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

    def link_index(self):
        idx = np.arange(-1, self.ns + 1)
        idx[0] = idx[-1] = -1
        return idx[:-1], idx[1:]


def axis_grid(curve) -> AxisGrid:
    return AxisGrid(curve.S, curve.ds)


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
    idx_l_1d, idx_r_1d = ax.link_index()
    idx_l = (idx_l_1d[:, None] * ntau + np.arange(ntau)[None, :]).copy()
    idx_r = (idx_r_1d[:, None] * ntau + np.arange(ntau)[None, :]).copy()
    idx_l[idx_l_1d < 0, :] = -1
    idx_r[idx_r_1d < 0, :] = -1
    n = ax.ns * ntau
    D = cov_link_matrix(n, idx_l.ravel(), idx_r.ravel(), ax.ds, phases=phases)
    Y = D @ sp.diags(m_node.ravel())
    kin_s = form_term(Y, weights=(m_link**2).ravel())
    Ttau = dirichlet_second_difference(ntau, sec.h) if sec.dim == 1 else None
    if Ttau is None:
        raise ValueError("2D tube needs a 1D cross section")
    mat = kin_s + eps**-2 * sp.kron(sp.eye(ax.ns), Ttau, format="csr") \
        + sp.diags(V.ravel())
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    shift = (-(eps**-2) * lam1h + K) if shifted else 0.0
    op = AssembledOperator(
        matrix=(mat + shift * sp.eye(n)).tocsr(),
        grid={"kind": "tube2d", "axis": ax, "section": sec},
        bc={"s": "dirichlet", "tau": "dirichlet"},
        shift=shift,
        regime=tube.regime,
        meta={"lam1h": lam1h, "J1h": J1h, "K": K,
              "ess_threshold": eps**-2 * lam1h + shift,
              "model": "full2d"},
    )
    return op


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
    tau = sec.node_coords()
    ntau = sec.n
    eps, b = tube.regime.eps, tube.regime.b
    zero_field = field is None or field.is_zero()
    phases = None
    if not zero_field:
        beta_mid = field.on_axis(frame, ax.mids)
        phases = (-ax.ds * eps * b * np.outer(beta_mid, tau)).ravel()
    idx_l_1d, idx_r_1d = ax.link_index()
    idx_l = (idx_l_1d[:, None] * ntau + np.arange(ntau)[None, :]).copy()
    idx_r = (idx_r_1d[:, None] * ntau + np.arange(ntau)[None, :]).copy()
    idx_l[idx_l_1d < 0, :] = -1
    idx_r[idx_r_1d < 0, :] = -1
    n = ax.ns * ntau
    D = cov_link_matrix(n, idx_l.ravel(), idx_r.ravel(), ax.ds, phases=phases)
    kin_s = form_term(D)
    V = -0.25 * tube.curve.kappa(ax.nodes)[:, None] ** 2 * np.ones((1, ntau))
    Ttau = dirichlet_second_difference(ntau, sec.h)
    mat = kin_s + eps**-2 * sp.kron(sp.eye(ax.ns), Ttau, format="csr") \
        + sp.diags(V.ravel())
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    shift = (-(eps**-2) * lam1h + K) if shifted else 0.0
    return AssembledOperator(
        matrix=(mat + shift * sp.eye(n)).tocsr(),
        grid={"kind": "tube2d", "axis": ax, "section": sec},
        bc={"s": "dirichlet", "tau": "dirichlet"},
        shift=shift,
        regime=tube.regime,
        meta={"lam1h": lam1h, "J1h": J1h, "K": K,
              "ess_threshold": eps**-2 * lam1h + shift,
              "model": "app2d"},
    )


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


def _axis_links_3d(ax: AxisGrid, nsec: int):
    idx_l_1d, idx_r_1d = ax.link_index()
    idx_l = (idx_l_1d[:, None] * nsec + np.arange(nsec)[None, :]).copy()
    idx_r = (idx_r_1d[:, None] * nsec + np.arange(nsec)[None, :]).copy()
    idx_l[idx_l_1d < 0, :] = -1
    idx_r[idx_r_1d < 0, :] = -1
    return idx_l.ravel(), idx_r.ravel()


def _link_average(idx_l, idx_r, n: int) -> sp.csr_matrix:
    """Average node values onto links (Dirichlet endpoints contribute 0)."""
    sel = []
    for idx in (idx_l, idx_r):
        ok = idx >= 0
        sel.append(
            sp.csr_matrix(
                (np.ones(ok.sum()), (np.nonzero(ok)[0], idx[ok])),
                shape=(len(idx), n),
            )
        )
    return 0.5 * (sel[0] + sel[1])


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
    nsec = sec.n
    n = ax.ns * nsec
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

    # transverse covariant squares, eps^-2 (-i d/dtau_j + eps b A_j)^2
    mat = sp.csr_matrix((n, n), dtype=complex if not zero_field else float)
    box_axes = sec.axes
    for axis in (0, 1):
        idx_l2, idx_r2, mids = sec.links(axis)
        nl = len(idx_l2)
        if zero_field:
            phase_slab = None
        else:
            if axis == 0:
                # A2 = -t3 B23(s,0,0)/2, independent of tau2
                B23ax, _, _, _ = pulled.on_axis(ax.nodes)
                phase_slab = (
                    sec.h * eps * b
                    * (-0.5 * eps * mids[:, 1])[None, :] * B23ax[:, None]
                )
            else:
                # A3 needs the tau2-cumulative of B23 at tau3 link midpoints
                u3 = np.unique(mids[:, 1])
                _, _, A3g = gauge_3d(pulled, tube, ax.nodes, box_axes[0], u3)
                i2 = np.rint((mids[:, 0] - box_axes[0][0]) / sec.h).astype(int)
                i3 = np.searchsorted(u3, mids[:, 1])
                phase_slab = sec.h * eps * b * A3g[:, i2, i3]
        offs = np.arange(ax.ns) * nsec
        idx_l = np.where(idx_l2[None, :] >= 0, idx_l2[None, :] + offs[:, None], -1)
        idx_r = np.where(idx_r2[None, :] >= 0, idx_r2[None, :] + offs[:, None], -1)
        phases = None if phase_slab is None else phase_slab.ravel()
        D = cov_link_matrix(n, idx_l.ravel(), idx_r.ravel(), sec.h, phases=phases)
        mat = mat + eps**-2 * form_term(D)

    # longitudinal sandwich
    idx_l, idx_r = _axis_links_3d(ax, nsec)
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
    X = cov_link_matrix(n, idx_l, idx_r, ax.ds, phases=phases)
    tp_mid = curve.theta_prime(ax.mids)
    has_twist = not curve.theta_prime.is_zero
    if has_twist or Rmult is not None:
        from .xsection import angular_derivative

        AVG = _link_average(idx_l, idx_r, n)
        if has_twist:
            Dal = sp.kron(sp.eye(ax.ns), angular_derivative(sec).matrix,
                          format="csr")
            tw = np.repeat(tp_mid, nsec)
            X = X + (-1j) * sp.diags(tw) @ (AVG @ Dal)
        if Rmult is not None and np.abs(Rmult).max() > 0:
            X = X + sp.diags(Rmult) @ AVG
    Y = X @ sp.diags(h_node**-0.5)
    mat = mat + form_term(Y, weights=1.0 / h_link)
    kap2 = curve.kappa_mag(np.repeat(ax.nodes, nsec)) ** 2
    mat = mat + sp.diags(-0.25 * kap2 / h_node**2)
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    shift = (-(eps**-2) * lam1h + K) if shifted else 0.0
    return AssembledOperator(
        matrix=(mat + shift * sp.eye(n)).tocsr(),
        grid={"kind": "tube3d", "axis": ax, "section": sec},
        bc={"s": "dirichlet", "omega": "dirichlet"},
        shift=shift,
        regime=tube.regime,
        meta={"lam1h": lam1h, "J1h": J1h, "K": K,
              "ess_threshold": eps**-2 * lam1h + shift,
              "model": "full3d"},
    )


def _app2_longitudinal_3d(tube: TubeSpec, field, frame: FrameTrajectory,
                          critical: bool) -> sp.spmatrix:
    """X~ = -i d/ds - i theta' d_alpha - B12(s,0,0) tau2 - B13(s,0,0) tau3
    as a link-factor matrix (the longitudinal factor of the straight-tube
    approximation at delta = 1; field terms dropped when not critical)."""
    from .xsection import angular_derivative

    ax = axis_grid(tube.curve)
    sec = tube.section
    nsec = sec.n
    n = ax.ns * nsec
    coords = sec.node_coords()
    idx_l, idx_r = _axis_links_3d(ax, nsec)
    zero_field = field is None or field.is_zero() or not critical
    phases = None
    if not zero_field:
        pulled = pullback_field(field, frame, tube)
        _, B13ax, B12ax, _ = pulled.on_axis(ax.mids)
        a_mult = -(B12ax[:, None] * coords[None, :, 0]
                   + B13ax[:, None] * coords[None, :, 1])
        phases = (ax.ds * a_mult).ravel()
    X = cov_link_matrix(n, idx_l, idx_r, ax.ds, phases=phases)
    if not tube.curve.theta_prime.is_zero:
        AVG = _link_average(idx_l, idx_r, n)
        Dal = sp.kron(sp.eye(ax.ns), angular_derivative(sec).matrix, format="csr")
        tw = np.repeat(tube.curve.theta_prime(ax.mids), nsec)
        X = X + (-1j) * sp.diags(tw) @ (AVG @ Dal)
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
        idx_l, idx_r = ax.link_index()
        D = cov_link_matrix(ax.ns, idx_l, idx_r, ax.ds, phases=phases)
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
