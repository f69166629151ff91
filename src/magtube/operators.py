"""Waveguide operators on the homogenized reference domain.

The full curvilinear operator of planar and spatial tubes, the
intermediate straight-tube approximation, and the effective 1D models for
every scaling regime, plus resolvent-distance measurement between models.

Discretization: every quadratic-form term is F* diag(w) F built from
first-order covariant difference factors with link phases e^{i h a}; the
longitudinal factor of the (i d/ds + b A1) sandwich is composed with the
metric multipliers node/link-wise.  Real symmetric matrices are produced
whenever no magnetic or twist term is present.

One builder, ``_tube_matrix``, writes the curvilinear tube operator
    transverse covariant Laplacian + h^-1/2 X h^-1 X h^-1/2 - |k|^2/(4 h^2),
h = 1 - eps <tau, k(s)>, once.  The planar tube is its case with one
transverse direction (no twist, no R term); the straight Hardy tubes of
:mod:`magtube.hardy` are its kappa = 0, eps = 1 case.  :func:`assemble_full`
is the public operator of every planar and spatial tube: it reads the
dimension from the section, validates the tube and adds the shift.

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
thin-tube ground-mode projection).  :func:`assemble_effective` builds the
effective models of planar and spatial tubes, as the section is 1D or 2D,
in a "coefficient" flavor (the printed 1D model, with a configurable
transverse moment coefficient on planar tubes) and a "galerkin" flavor
(exact fiber projection of the straight-metric longitudinal factor, used
for discretization-matched rate sweeps).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assemble import (
    AssembledOperator,
    Spectrum,
    banded_cholesky,
    blas_threads,
    cov_link_matrix,
    dirichlet_links,
    form_term,
    lanczos,
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


# -- tube assemblies --------------------------------------------------------------


def assemble_full(tube: TubeSpec, field, frame: FrameTrajectory | None = None,
                  shifted: bool = True, gauge_chi=None) -> AssembledOperator:
    """Homogenized curvilinear operator (:func:`_tube_matrix`) of a planar
    or spatial tube, as the section is 1D or 2D.

    A spatial tube past GRID_BUDGET_3D unknowns raises GridBudgetError.
    With ``shifted`` the stored matrix is the positive-definite
    L - eps^-2 lam1h + K.  ``gauge_chi`` adds the discrete gradient of a
    lattice gauge function chi(s) to A1 (link phases shift by the exact
    difference b (chi(s_r) - chi(s_l))).  The spectrum does not move on a
    planar or untwisted spatial tube; on a twisted one it moves by O(ds^2)
    (see the assemble module).
    """
    _check_support(tube, field)
    if frame is None:
        frame = integrate_frame(tube.curve)
    _validate(tube, frame)
    sec = tube.section
    ax = axis_grid(tube.curve)
    lat = ax.lattice(sec)
    if sec.dim == 2 and lat.n > GRID_BUDGET_3D:
        raise GridBudgetError(f"{lat.n} unknowns exceed the 3D budget "
                              f"{GRID_BUDGET_3D}; coarsen ds or h")
    mat = _tube_matrix(tube, lat, frame, field, gauge_chi)
    return _tube_operator(mat, tube, ax, shifted, f"full{sec.dim + 1}d")


# The benchmark's names of the one builder.
assemble_full_2d = assemble_full_3d = assemble_full


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


def _app_longitudinal(tube: TubeSpec, lat: TubeLattice, field,
                      frame: FrameTrajectory) -> sp.csr_matrix:
    """X~ = -i d/ds - i theta' d_alpha + <a, tau>, the s-link factor of the
    straight-metric approximation on ``lat``, with the on-axis potential
    a = -eps b B(s,0) on a planar tube and a = -(B12, B13)(s,0,0) on a
    spatial one.  The spatial form holds at eps b = 1 (delta = 1), the only
    regime in which the effective builder passes a field.
    """
    sec = lat.section
    coords = sec.node_coords().reshape(sec.n, -1)
    phases = None
    if field is not None and not field.is_zero():
        if sec.dim == 1:
            beta_mid = field.on_axis(frame, lat.mids)
            phases = (-lat.ds * tube.regime.eps * tube.regime.b
                      * np.outer(beta_mid, coords[:, 0]))
        else:
            _, B13, B12, _ = pullback_field(field, frame, tube).on_axis(lat.mids)
            phases = lat.ds * -(B12[:, None] * coords[None, :, 0]
                                + B13[:, None] * coords[None, :, 1])
        phases = phases.ravel()
    X = lat.axis_factor(phases)
    if not tube.curve.theta_prime.is_zero:
        X = X + _twist_term(lat, tube.curve.theta_prime(lat.mids))
    return X


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
    kin_s = form_term(_app_longitudinal(tube, lat, field, frame))
    V = -0.25 * tube.curve.kappa(ax.nodes)[:, None] ** 2 * np.ones((1, sec.n))
    mat = kin_s + transverse_form(lat, eps=tube.regime.eps) + sp.diags(V.ravel())
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


def assemble_effective(tube: TubeSpec, field,
                       frame: FrameTrajectory | None = None,
                       mode: str = "coefficient",
                       coefficient_source: str = "measured"
                       ) -> AssembledOperator:
    """Effective 1D operator T^[2] or T^[3], as the section is 1D or 2D.

    The transverse offset lives in the shift K, and the field enters only
    at delta = 1.  "coefficient" is the printed closed form:
      planar:  -d^2/ds^2 - kappa^2/4 + c_B B(gamma(s))^2, with c_B the
               measured ||tau J1||^2 (``coefficient_source`` "measured") or
               the printed 1/3 + 2/pi^2 ("printed");
      spatial: (-i d/ds + a)^2 - a^2 + Q(B12, B13) + B23^2 M(omega)
               - kappa^2/4 + p theta'^2, with a = -(B12 m2 + B13 m3), Q the
               second-moment form and M(omega) = ||tau J1||^2/4
               - <D_alpha R_omega, J1>; valid for reflection-symmetric
               sections, and "measured" only.
    "galerkin" projects the straight-metric factor of
    :func:`_app_longitudinal` onto the J1 fiber, E* X* X E - |k|^2/4, and on
    a spatial tube adds B23^2 M(omega) from the mask constants
    (discretization-matched; used by rate sweeps).
    """
    sec = tube.section
    if mode not in ("coefficient", "galerkin"):
        raise ValueError(f"mode must be 'coefficient' or 'galerkin', "
                         f"not {mode!r}")
    if coefficient_source not in ("measured", "printed"):
        raise ValueError(f"coefficient_source must be 'measured' or "
                         f"'printed', not {coefficient_source!r}")
    if coefficient_source == "printed" and sec.dim == 2:
        raise ValueError("the printed coefficient belongs to the planar "
                         "T^[2]; a spatial tube takes 'measured'")
    _check_support(tube, field)
    if frame is None:
        frame = integrate_frame(tube.curve)
    critical = abs(tube.regime.delta - 1.0) < 1e-12
    if not critical or (field is not None and field.is_zero()):
        field = None
    ax = axis_grid(tube.curve)
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    meta = {"model": f"effective{sec.dim + 1}d", "mode": mode, "K": K,
            "lam1h": lam1h, "ess_threshold": K}
    pot = -0.25 * tube.curve.kappa_mag(ax.nodes) ** 2
    if mode == "galerkin":
        X = _app_longitudinal(tube, ax.lattice(sec), field, frame)
        E = fiber_embedding(J1h, ax.ns)
        mat = sec.h**sec.dim * form_term(X @ E)
        if sec.dim == 2 and field is not None:
            M_omega = compute_constants(sec, method="mask").M_omega
            B23ax, _, _, _ = pullback_field(field, frame, tube).on_axis(ax.nodes)
            mat = mat + sp.diags(B23ax**2 * M_omega)
            meta["M_omega"] = M_omega
        mat = mat + sp.diags(pot)
        meta["coefficient_source"] = "galerkin-fiber"
    else:
        constants = compute_constants(sec)
        phases = None
        if sec.dim == 1:
            if field is not None:
                c_B = (constants.moment2 if coefficient_source == "measured"
                       else PRINTED_T2_COEFFICIENT)
                pot = pot + c_B * field.on_axis(frame, ax.nodes) ** 2
                meta["c_B"] = c_B
        else:
            pot = pot + constants.p * tube.curve.theta_prime(ax.nodes) ** 2
            meta["p"] = constants.p
            if field is not None:
                pulled = pullback_field(field, frame, tube)
                B23n, B13n, B12n, _ = pulled.on_axis(ax.nodes)
                _, B13m, B12m, _ = pulled.on_axis(ax.mids)
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
        meta["coefficient_source"] = coefficient_source
    return AssembledOperator(
        matrix=(mat + K * sp.eye(ax.ns)).tocsr(),
        grid={"kind": "axis", "axis": ax, "section": sec},
        bc={"s": "dirichlet"},
        shift=K,
        regime=tube.regime,
        meta=meta,
    )


# The benchmark's names of the one builder.
assemble_effective_2d = assemble_effective_3d = assemble_effective


# -- spectra and resolvent distances ----------------------------------------------


def smallest_eigenpairs(op: AssembledOperator, k: int = 1,
                        sigma: float = 0.0, seed: int = 7) -> Spectrum:
    """k lowest eigenpairs by the banded shift-invert solve of
    :func:`magtube.assemble.lowest_eigenpairs`, whose factor reads a tube's
    slice size off ``op.matrix``."""
    vals, vecs, res = lowest_eigenpairs(op.matrix, k=k, sigma=sigma, seed=seed)
    return Spectrum(vals, vecs, res, ess_threshold=op.meta.get("ess_threshold"))


@blas_threads(1)
def resolvent_distance(opA: AssembledOperator, opB: AssembledOperator,
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
    start.  Without ``v0``, a pair embedded by the J1 fiber starts from
    u_B (x) (J1 + w): u_B the ground state of B, and
    w ~ (sum_alpha tau_alpha) J1 the first-moment direction through which
    curvature and field couple the fiber to the second transverse band.
    The maximizer lies near one of those two states (the resolvent is
    O(eps^2) on the rest), so the start is free of ``seed``.  A same-space
    pair starts from a random vector drawn from ``seed``.

    Every start runs the Lanczos of :func:`magtube.assemble.lanczos` for
    one pair, whose first Krylov step is the probe D start.  It stops at the
    first application after which the top Ritz pair (theta, y) has
    ||D y - theta y|| <= tol |theta|, the residual read off the projected
    matrix as beta_j |e_j^T s|.  A probe
    of norm below 1e-14 returns at once.  ``maxiter`` bounds the
    applications of the difference; running out of them raises
    EigensolverDiverged.

    Returns ``(dist, info)``.  ``info["vector"]`` is the maximizer,
    ``info["matvecs"]`` the number of applications of the difference (the
    probe included).  ``info["converged"]`` is always True: an unconverged
    Lanczos raises instead.  Runs on one BLAS thread (see blas_threads).
    """
    complex_path = opA.is_complex or opB.is_complex
    dtype = complex if complex_path else float
    solve_A = banded_cholesky(opA.matrix)
    solve_B = banded_cholesky(opB.matrix)
    n = opA.n
    embedding = None
    if opB.n != n:
        J1h = opA.meta["J1h"]
        embedding = fiber_embedding(J1h, opB.n)
        embedding_h = embedding.getH()
        sec = opA.grid["section"]
        dvol = sec.h**sec.dim
        if v0 is None:
            uB = lowest_eigenpairs(opB.matrix, k=1)[1][:, 0]
            w = sec.node_coords().reshape(sec.n, -1).sum(axis=1) * J1h
            fiber = J1h / np.linalg.norm(J1h) + w / np.linalg.norm(w)
            v0 = np.kron(uB, fiber)

    def apply(x):
        out = solve_A(x)
        if embedding is not None:
            out = out - embedding @ solve_B(dvol * (embedding_h @ x))
        else:
            out = out - solve_B(x)
        return out

    if v0 is None:
        v0 = random_start(n, seed, False)
    v0 = np.asarray(v0)
    v0 = (v0 if complex_path else v0.real).astype(dtype)
    start = v0 / np.linalg.norm(v0)
    probe = apply(start)
    if np.linalg.norm(probe) < 1e-14:
        return float(np.linalg.norm(probe)), {
            "converged": True, "vector": start, "matvecs": 1}
    theta, Y, matvecs = lanczos(apply, start, probe, 1, tol, maxiter)
    return float(abs(theta[0])), {"converged": True, "vector": Y[0],
                                  "matvecs": matvecs}
