"""Waveguide operators on the homogenized reference domain.

Full 2D/3D curvilinear operators, the intermediate straight-tube
approximation, and the effective 1D models for every scaling regime, plus
resolvent-distance measurement between models.

Discretization: every quadratic-form term is F* diag(w) F built from
first-order covariant difference factors with link phases e^{i h a}; the
longitudinal factor of the (i d/ds + b A1) sandwich is composed with the
metric multipliers node/link-wise.  Real symmetric matrices are produced
whenever no magnetic or twist term is present.

One builder, ``_tube_matrix``, writes the curvilinear tube operator
    transverse covariant Laplacian + h^-1/2 X h^-1 X h^-1/2 - |k|^2/(4 h^2),
h = 1 - eps <tau, k(s)>, once.  The planar tube is its case with one
transverse direction (no twist, no R term); the straight Hardy tubes of
:mod:`magtube.hardy` are its kappa = 0, eps = 1 case.

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

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from .assemble import (
    WARM_NCV,
    AssembledOperator,
    Spectrum,
    banded_cholesky,
    blas_threads,
    cov_link_matrix,
    dirichlet_links,
    dirichlet_second_difference,
    form_term,
    lowest_eigenpairs,
    random_start,
)
from .errors import GridBudgetError, SupportTruncationError
from .geometry import FrameTrajectory, PulledField, TubeSpec, gauge_2d, \
    gauge_3d, integrate_frame, pullback_field, section_curvature, validate_tube
from .grids import GridDomain
from .xsection import PRINTED_T2_COEFFICIENT, angular_derivative, \
    compute_constants

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

    def _axis_ends(self):
        """(k_l, k_r): the s-node at each end of every s-link, -1 at a
        Dirichlet ghost."""
        if self.neumann_ends:
            return np.arange(self.ns - 1), np.arange(1, self.ns)
        return dirichlet_links(self.ns)

    def _lift(self, k, j):
        """Unknown index of s-node k[a] and section node j[b], row
        a * len(j) + b; -1 where either is a ghost."""
        k, j = k[:, None], j[None, :]
        return np.where((k >= 0) & (j >= 0), k * self.nsec + j, -1).ravel()

    def axis_links(self):
        """(idx_l, idx_r) of the s-links; link (k, j) sits at
        (mids[k], section node j) and is row k * nsec + j."""
        j = np.arange(self.nsec)
        return tuple(self._lift(k, j) for k in self._axis_ends())

    def section_links(self, axis: int):
        """(idx_l, idx_r, mids) of the section links along ``axis`` in every
        s-slab; link (k, m) joins section link m at s-node k, sits at
        (nodes[k], mids[m]) and is row k * len(mids) + m."""
        idx_l, idx_r, mids = self.section.links(axis)
        k = np.arange(self.ns)
        return self._lift(k, idx_l), self._lift(k, idx_r), mids

    def cells(self, axis: int):
        """(ll, rl, lr, rr): the corners of the plaquettes spanned by an
        s-link and a section link along ``axis``, the first letter the s
        end, the second the section end.  Plaquette (k, m) pairs s-link k
        with section link m, sits at (mids[k], section.links(axis) mid m)
        and is row k * len(section mids) + m; a ghost corner is -1."""
        k_l, k_r = self._axis_ends()
        j_l, j_r, _ = self.section.links(axis)
        return (self._lift(k_l, j_l), self._lift(k_r, j_l),
                self._lift(k_l, j_r), self._lift(k_r, j_r))

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


def transverse_ground(section: GridDomain):
    """(lam1h, J1h) of the discrete Dirichlet Laplacian on the section."""
    consts = compute_constants(section, method="mask")
    return consts.lam1, consts.J1


def _check_support(tube: TubeSpec, field) -> None:
    bound = tube.curve.support_bound()
    if field is not None and not field.is_zero():
        bound = max(bound, field.support_bound())
    if bound > tube.curve.S / 2 + 1e-12:
        raise SupportTruncationError(
            f"supports reach |s| = {bound:.3f} > S/2 = {tube.curve.S / 2:.3f}"
        )


def _validate(tube: TubeSpec, frame: FrameTrajectory) -> None:
    """validate_tube with the overlap probe; each message becomes a warning."""
    for message in validate_tube(tube, frame=frame).messages:
        warnings.warn(message, stacklevel=3)


# -- the curvilinear tube operator -------------------------------------------------


def _tube_matrix(tube: TubeSpec, lat: TubeLattice, frame: FrameTrajectory,
                 field, gauge_chi=None) -> sp.csr_matrix:
    """Unshifted homogenized operator of a planar or spatial tube on ``lat``.

    transverse_form + Y* diag(1/h) Y - |k|^2 / (4 h^2), with Y = X h^(-1/2),
    h = 1 - eps <tau, k> (k from :func:`section_curvature`) and the s-link
    factor X = -i d/ds + b A1 - i theta' d_alpha + R, R = h3 b A2 + h2 b A3.
    A planar tube has one transverse direction, A1 = -(the gauge_2d
    potential) and neither twist nor R; the Hardy tubes are the straight
    eps = 1 case.  A zero field or b = 0 leaves the matrix real.
    ``gauge_chi`` (Dirichlet axis ends) shifts the link phases by
    -b (chi(s_r) - chi(s_l)).  No validation.
    """
    Y, weights, V, pulled = _tube_parts(tube, lat, frame, field, gauge_chi)
    return (transverse_form(lat, pulled, tube.regime.eps, tube.regime.b)
            + form_term(Y, weights=weights) + sp.diags(V))


def _tube_parts(tube: TubeSpec, lat: TubeLattice, frame: FrameTrajectory,
                field, gauge_chi=None):
    """(Y, w, V, pulled) of :func:`_tube_matrix`: the s-link factor
    Y = X h^(-1/2), the link weights w = 1/h, the potential -|k|^2/(4 h^2)
    per node and the pulled 3D field of the transverse form (or None).

    Without a field or with a frame-aligned planar one, every entry is
    analytic in eps; a complex eps (b = 1/eps) gives their continuation,
    which :mod:`magtube.asymptotics` samples on a circle.
    """
    sec = lat.section
    curve = tube.curve
    eps, b = tube.regime.eps, tube.regime.b
    coords = sec.node_coords().reshape(sec.n, -1)

    def metric(s_arr):
        k = section_curvature(curve, frame, s_arr)
        k_tau = k[:, :1] * coords[:, 0]
        for j in range(1, sec.dim):
            k_tau = k_tau + k[:, j:j + 1] * coords[:, j]
        return k, 1.0 - eps * k_tau

    k_node, h_node = metric(lat.nodes)
    _, h_link = metric(lat.mids)
    no_field = field is None or field.is_zero()
    pulled = phases = r_mult = None
    if b != 0.0 and not (no_field and gauge_chi is None):
        if no_field:
            a = np.zeros((len(lat.mids), sec.n))
        elif sec.dim == 1:
            # (i d/ds + b A1)^2 = (-i d/ds - b A1)^2
            a = -gauge_2d(field, frame, tube, lat.mids, coords[:, 0])
        else:
            pulled = PulledField(field=field, frame=frame, tube=tube)
            i2, i3 = (np.rint((coords[:, j] - sec.axes[j][0]) / sec.h)
                      .astype(int) for j in (0, 1))
            a, A2, A3 = (A[:, i2, i3] for A in
                         gauge_3d(pulled, tube, lat.mids, *sec.axes))
            tp = curve.theta_prime(lat.mids)[:, None]
            h2 = -eps * coords[None, :, 0] * tp
            h3 = eps * coords[None, :, 1] * tp
            r_mult = (h3 * b * A2 + h2 * b * A3).ravel()
        phases = lat.ds * b * a
        if gauge_chi is not None:
            s_ext = np.concatenate([[lat.nodes[0] - lat.ds], lat.nodes,
                                    [lat.nodes[-1] + lat.ds]])
            chi = np.asarray(gauge_chi(s_ext), dtype=float)
            phases = phases - b * (chi[1:] - chi[:-1])[:, None]
        phases = phases.ravel()
    X = lat.axis_factor(phases)
    if not curve.theta_prime.is_zero:
        X = X + _twist_term(lat, curve.theta_prime(lat.mids))
    if r_mult is not None and np.abs(r_mult).max() > 0:
        X = X + sp.diags(r_mult) @ lat.link_average()
    # the planar operator's arithmetic (h**-0.5, its square on the links,
    # h**-2.0 in the potential): the asymptotics sweep reads eigenvalue
    # differences that cancel to 1e-9 of their size, so the planar matrices
    # must not move in their last bits; spatial tubes round 1/h this way too
    Y = X @ sp.diags((h_node**-0.5).ravel())
    V = -0.25 * (k_node**2).sum(axis=1)[:, None] * h_node**-2.0
    return Y, ((h_link**-0.5) ** 2).ravel(), V.ravel(), pulled


def _twist_term(lat: TubeLattice, tp_mid) -> sp.csr_matrix:
    """-i theta' d_alpha, with d_alpha averaged from the nodes onto s-links."""
    Dal = sp.kron(sp.eye(lat.ns), angular_derivative(lat.section).matrix,
                  format="csr")
    tw = np.repeat(tp_mid, lat.nsec)
    return (-1j) * sp.diags(tw) @ (lat.link_average() @ Dal)


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
    _validate(tube, frame)
    if tube.section.dim != 1:
        raise ValueError("2D tube needs a 1D cross section")
    ax = axis_grid(tube.curve)
    mat = _tube_matrix(tube, ax.lattice(tube.section), frame, field, gauge_chi)
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
    _validate(tube, frame)
    if tube.section.dim != 2:
        raise ValueError("3D tube needs a 2D cross section")
    ax = axis_grid(tube.curve)
    lat = ax.lattice(tube.section)
    if lat.n > budget:
        raise GridBudgetError(
            f"{lat.n} unknowns exceed the 3D budget {budget}; coarsen ds or h"
        )
    mat = _tube_matrix(tube, lat, frame, field)
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
                        sigma: float = 0.0, seed: int = 7) -> Spectrum:
    """k lowest eigenpairs with shift-invert; dense fallback below 3000."""
    vals, vecs, res = lowest_eigenpairs(op.matrix, k=k, sigma=sigma, seed=seed)
    return Spectrum(vals, vecs, res, ess_threshold=op.meta.get("ess_threshold"))


@blas_threads(1)
def resolvent_distance(opA: AssembledOperator, opB: AssembledOperator,
                       embedding: sp.spmatrix | None = None,
                       dvol_ratio: float | None = None,
                       tol: float = 1e-3, seed: int = 11,
                       maxiter: int = 6000, v0: np.ndarray | None = None):
    """Operator norm of A^-1 - E B^-1 E* (both shifted positive definite).

    E is the isometric J1-fiber embedding when B lives on the 1D axis grid;
    identity when both operators share a space.  The norm of the Hermitian
    difference comes from Lanczos (largest magnitude) on the implicit
    resolvent difference; relative accuracy ``tol``.  Both operators are
    factored by banded Cholesky: the shift makes them positive definite, and
    in s-major order their bandwidth is the section size.  A shift that
    fails to do so raises NotPositiveDefinite.

    A ``v0`` (say, the maximizer of a neighbouring sweep point) is a warm
    start: Lanczos starts from it with a Krylov dimension of WARM_NCV.
    Without ``v0``, a pair embedded by the J1 fiber starts, also at
    WARM_NCV, from u_B (x) (J1 + w): u_B the ground state of B, and
    w ~ (sum_alpha tau_alpha) J1 the first-moment direction through which
    curvature and field couple the fiber to the second transverse band.
    The maximizer lies near one of those two states (the resolvent is
    O(eps^2) on the rest), so the start is free of ``seed``.  Any other
    pair (a same-space one, or an explicit ``embedding``) starts from a
    random vector drawn from ``seed``, with ARPACK's default Krylov
    dimension.

    Returns ``(dist, info)``.  ``info["vector"]`` is the maximizer,
    ``info["matvecs"]`` the number of applications of the difference (the
    probe included).  ``info["converged"]`` is always True: at k = 1 an
    ARPACK run out of iterations has no partial Ritz pair to give, so
    ArpackNoConvergence propagates instead.  Runs on one BLAS thread (see
    blas_threads).
    """
    complex_path = opA.is_complex or opB.is_complex
    dtype = complex if complex_path else float
    solve_A = banded_cholesky(opA.matrix.astype(dtype, copy=False))
    solve_B = banded_cholesky(opB.matrix.astype(dtype, copy=False))
    n = opA.n
    ncv = WARM_NCV
    if embedding is None and opB.n != n:
        J1h = opA.meta["J1h"]
        ns = opB.n
        embedding = fiber_embedding(J1h, ns)
        sec = opA.grid["section"]
        dvol_ratio = sec.h**sec.dim
        if v0 is None:
            uB = lowest_eigenpairs(opB.matrix, k=1)[1][:, 0]
            w = sec.node_coords().reshape(sec.n, -1).sum(axis=1) * J1h
            fiber = J1h / np.linalg.norm(J1h) + w / np.linalg.norm(w)
            v0 = np.kron(uB, fiber)
    if embedding is not None:
        embedding_h = embedding.getH()
    matvecs = 0

    def matvec(x):
        nonlocal matvecs
        matvecs += 1
        x = x.astype(dtype)
        out = solve_A(x)
        if embedding is not None:
            xr = dvol_ratio * (embedding_h @ x)
            out = out - embedding @ solve_B(xr)
        else:
            out = out - solve_B(x)
        return out

    lin = sla.LinearOperator((n, n), matvec=matvec, dtype=dtype)
    if v0 is None:
        v0 = random_start(n, seed, False)
        ncv = None
    else:
        v0 = np.asarray(v0)
        v0 = (v0 if complex_path else v0.real).astype(dtype)
    start = v0 / np.linalg.norm(v0)
    probe = matvec(start)
    if np.linalg.norm(probe) < 1e-14:
        return float(np.linalg.norm(probe)), {
            "converged": True, "vector": start, "matvecs": matvecs}
    vals, vecs = sla.eigsh(lin, k=1, which="LM", tol=tol, ncv=ncv,
                           maxiter=maxiter, v0=v0)
    return float(abs(vals[0])), {"converged": True,
                                 "vector": vecs[:, 0], "matvecs": matvecs}
