"""Waveguide operators on the homogenized reference domain.

The full curvilinear operator of planar and spatial tubes and the
effective 1D models for every scaling regime, plus resolvent-distance
measurement between models.

Discretization: every quadratic-form term is F* diag(w) F built from
first-order covariant difference factors with link phases e^{i h a}; the
longitudinal factor of the (i d/ds + b A1) sandwich is composed with the
metric multipliers node/link-wise.  Real symmetric matrices are produced
whenever no magnetic or twist term is present.

One builder, :class:`TubeSkeleton`, writes the curvilinear tube operator
    transverse covariant Laplacian + h^-1/2 X h^-1 X h^-1/2 - |k|^2/(4 h^2),
h = 1 - eps <tau, k(s)>, once.  The planar tube is its case with one
transverse direction (no twist, no R term); the straight Hardy tubes of
:mod:`magtube.hardy` are its kappa = 0, eps = 1 case; a sweep over eps or b
holds one skeleton.  :func:`assemble_full` is the public operator of every
planar and spatial tube: it reads the dimension from the section, validates
the tube and adds the shift.

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
    RegimeParams,
    Spectrum,
    banded_cholesky,
    blas_threads,
    cov_link_matrix,
    dirichlet_links,
    form_term,
    lanczos,
    link_coefficients,
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

    def link_average(self) -> sp.csr_matrix:
        """Average node values onto the s-links (a ghost end counts 0)."""
        ends = []
        for idx in self.axis_links():
            on = np.nonzero(idx >= 0)[0]
            ends.append(sp.csr_matrix((np.ones(len(on)), (on, idx[on])),
                                      shape=(len(idx), self.n)))
        return 0.5 * (ends[0] + ends[1])


def transverse_ground(section: GridDomain):
    """(lam1h, J1h) of the discrete Dirichlet Laplacian on the section."""
    consts = compute_constants(section, method="mask")
    return consts.lam1, consts.J1


def _check_support(curve, field) -> None:
    bound = curve.support_bound()
    if field is not None and not field.is_zero():
        bound = max(bound, field.support_bound())
    if bound > curve.S / 2 + 1e-12:
        raise SupportTruncationError(
            f"supports reach |s| = {bound:.3f} > S/2 = {curve.S / 2:.3f}"
        )


# -- the curvilinear tube operator -------------------------------------------------


def _mul(a, b):
    """a * b elementwise; a complex product as four real products, none
    fused, as scipy's sparse kernels form it (numpy's own fuses them)."""
    if not (np.iscomplexobj(a) and np.iscomplexobj(b)):
        return a * b
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class _LinkForm:
    """G^H diag(w) F of one family of links, F's and G's row m holding a
    value at node idx_l[m] and one at idx_r[m] (none at a ghost, -1).  Entry
    (i, j) sums conj(G[m, i]) w[m] F[m, j] from 0 in increasing m, as
    scipy's G.getH() @ (diag(w) @ F) does; a node lies on at most two links
    of a family, one on each side."""

    def __init__(self, idx_l, idx_r, n: int):
        self.nlinks = m = len(idx_l)
        self.both = (idx_l >= 0) & (idx_r >= 0)
        self.l, self.r = idx_l[self.both], idx_r[self.both]
        # each node's diagonal terms in link order, as indices into
        # [left-end terms, right-end terms, 0]
        ends = []
        for first, idx in ((0, idx_l), (m, idx_r)):
            term = np.full(n, 2 * m, dtype=np.int32)
            on = np.nonzero(idx >= 0)[0]
            term[idx[on]] = first + on
            ends.append(term)
        left_first = ends[0] < np.where(ends[1] < 2 * m, ends[1] - m, 2 * m)
        self.diagonal = np.where(left_first, ends, ends[::-1])

    def values(self, f, w=None, g=None):
        """(diagonal, (l, r) entries, (r, l) entries) of G^H diag(w) F, from
        the values (f_l, f_r) of F at both ends of each link; G = F unless
        ``g`` gives its values."""
        (f_l, f_r), (g_l, g_r) = f, (f if g is None else g)
        if w is not None:
            f_l, f_r = _mul(w, f_l), _mul(w, f_r)
        terms = np.concatenate([_mul(f_l, np.conj(g_l)),
                                _mul(f_r, np.conj(g_r)), [0]])
        b = self.both
        return (terms[self.diagonal[0]] + terms[self.diagonal[1]],
                _mul(f_r[b], np.conj(g_l[b])), _mul(f_l[b], np.conj(g_r[b])))


def _entries(n: int, forms):
    """(rows, cols), part by part: the diagonal, then (l, r) and (r, l) of
    each form's links between two unknowns."""
    rows = [np.arange(n)] + [x for f in forms for x in (f.l, f.r)]
    cols = [np.arange(n)] + [x for f in forms for x in (f.r, f.l)]
    return rows, cols


class TubeSkeleton:
    """The part of a tube operator that does not depend on (eps, b).

    :meth:`matrix` evaluates transverse form + Y* diag(1/h) Y - |k|^2/(4 h^2)
    with Y = X h^(-1/2), h = 1 - eps <tau, k> (k from
    :func:`section_curvature`) and X = -i d/ds + b A1 - i theta' d_alpha + R,
    R = h3 b A2 + h2 b A3; a planar tube has A1 = -(the gauge_2d potential)
    and neither twist nor R.  A zero field or b = 0 leaves it real.  The
    skeleton holds <tau, k> at the nodes and s-link midpoints, the s-links
    and each section axis's links, the CSR pattern with the slot of each
    term and a twisted tube's twist operator; an evaluation writes h, the
    phases, the link values (:func:`_mul`) and the shift into the pattern,
    but a twisted tube's twist and R terms of X keep their sparse products.
    Without ``lat`` the lattice is the curve's AxisGrid, and the supports
    and 3D grid budget are checked as for assemble_full.
    """

    def __init__(self, curve, section: GridDomain, frame: FrameTrajectory,
                 field, lat: TubeLattice | None = None):
        self.field = self.nonzero(field)
        self.axis = None
        if lat is None:
            _check_support(curve, self.field)
            self.axis = axis_grid(curve)
            lat = self.axis.lattice(section)
            if section.dim == 2 and lat.n > GRID_BUDGET_3D:
                raise GridBudgetError(f"{lat.n} unknowns exceed the 3D budget "
                                      f"{GRID_BUDGET_3D}; coarsen ds or h")
        self.curve, self.section, self.frame, self.lat = (curve, section,
                                                          frame, lat)
        self.coords = coords = section.node_coords().reshape(section.n, -1)

        def k_tau(s_arr):
            k = section_curvature(curve, frame, s_arr)
            out = k[:, :1] * coords[:, 0]
            for j in range(1, section.dim):
                out = out + k[:, j:j + 1] * coords[:, j]
            return k, out

        k_node, self.k_tau_node = k_tau(lat.nodes)
        self.k_tau_link = k_tau(lat.mids)[1]
        self.potential = -0.25 * (k_node**2).sum(axis=1)[:, None]
        n = lat.n
        # index arrays held for a sweep are int32, half the memory
        self.s_links = tuple(i.astype(np.int32) for i in lat.axis_links())
        self.s_form, *self.t_forms = forms = [
            _LinkForm(idx_l.astype(np.int32), idx_r.astype(np.int32), n)
            for idx_l, idx_r in (self.s_links, *(
                lat.section_links(axis)[:2] for axis in range(section.dim)))]
        self.twist = None
        if not curve.theta_prime.is_zero:  # sparse products, no pattern
            self.twist = _twist_term(lat, curve.theta_prime(lat.mids))
            self.link_average = lat.link_average()
            return
        # each pattern entry once; slots[k] places part k of an evaluation
        rows, cols = _entries(n, forms)
        keys = np.concatenate(rows).astype(np.int64) * n + np.concatenate(cols)
        order = np.argsort(keys)
        self.indices = (keys[order] % n).astype(np.int32)
        self.indptr = np.searchsorted(keys[order], n * np.arange(n + 1)) \
            .astype(np.int32)
        slot = np.empty(len(keys), dtype=np.int32)
        slot[order] = np.arange(len(keys))
        self.slots = np.split(slot, np.cumsum([len(r) for r in rows])[:-1])

    @staticmethod
    def nonzero(field):
        """``field``, or None for no field or a zero one."""
        return None if field is None or field.is_zero() else field

    def _gauge(self, eps, b, gauge_chi=None):
        """(s-link phases, pulled 3D field, R multipliers of a twisted tube)
        at (eps, b), each None if absent (no phases: X is real)."""
        lat, sec, coords = self.lat, self.section, self.coords
        pulled = r_mult = None
        if b == 0.0 or (self.field is None and gauge_chi is None):
            return None, pulled, r_mult
        tube = TubeSpec(self.curve, sec, RegimeParams(eps=eps, delta=0.0, b=b))
        if self.field is None:
            a = np.zeros((len(lat.mids), sec.n))
        elif sec.dim == 1:
            # (i d/ds + b A1)^2 = (-i d/ds - b A1)^2
            a = -gauge_2d(self.field, self.frame, tube, lat.mids, coords[:, 0])
        else:
            pulled = PulledField(field=self.field, frame=self.frame, tube=tube)
            i2, i3 = (np.rint((coords[:, j] - sec.axes[j][0]) / sec.h)
                      .astype(int) for j in (0, 1))
            a, A2, A3 = (A[:, i2, i3] for A in
                         gauge_3d(pulled, tube, lat.mids, *sec.axes))
            if self.twist is not None:
                tp = self.curve.theta_prime(lat.mids)[:, None]
                h2 = -eps * coords[None, :, 0] * tp
                h3 = eps * coords[None, :, 1] * tp
                r_mult = (h3 * b * A2 + h2 * b * A3).ravel()
        phases = lat.ds * b * a
        if gauge_chi is not None:
            s_ext = np.concatenate([[lat.nodes[0] - lat.ds], lat.nodes,
                                    [lat.nodes[-1] + lat.ds]])
            chi = np.asarray(gauge_chi(s_ext), dtype=float)
            phases = phases - b * (chi[1:] - chi[:-1])[:, None]
        return phases.ravel(), pulled, r_mult

    def _metric(self, eps):
        """(h^-1/2 at the nodes, the link weights 1/h, the potential
        -|k|^2 / (4 h^2))."""
        h_node = 1.0 - eps * self.k_tau_node
        h_link = 1.0 - eps * self.k_tau_link
        # h**-0.5, its square on the links and h**-2.0: the asymptotics sweep
        # reads eigenvalue differences that cancel to 1e-9 of their size, so
        # no matrix may move in its last bits
        return ((h_node**-0.5).ravel(), ((h_link**-0.5) ** 2).ravel(),
                (self.potential * h_node**-2.0).ravel())

    def _s_factor(self, phases, hn):
        """Y = X h^-1/2's values at both ends of each s-link."""
        coef = link_coefficients(len(self.s_links[0]), self.lat.ds, phases)
        return tuple(_mul(c, hn[idx]) for c, idx in zip(coef, self.s_links))

    def _transverse(self, eps, b, pulled):
        """(diagonal, off-diagonal parts) of eps^-2 sum_j
        (-i d/dtau_j + eps b A_j)^2 on every s-slab: the field-free form, or
        with a pulled 3D field the gauge of :func:`gauge_3d` at the s-nodes."""
        sec, lat = self.section, self.lat
        diag, off = None, []
        for axis, form in enumerate(self.t_forms):
            phases = None
            if pulled is not None:
                mids = sec.links(axis)[2]
                if axis == 0:
                    # A2 = -t3 B23(s,0,0)/2, independent of tau2
                    B23ax, _, _, _ = pulled.on_axis(lat.nodes)
                    phases = (
                        sec.h * eps * b
                        * (-0.5 * eps * mids[:, 1])[None, :] * B23ax[:, None]
                    )
                else:
                    # A3 needs the tau2-cumulative of B23 at tau3 link mids
                    u3 = np.unique(mids[:, 1])
                    _, _, A3g = gauge_3d(pulled, pulled.tube, lat.nodes,
                                         sec.axes[0], u3)
                    i2 = np.rint((mids[:, 0] - sec.axes[0][0]) / sec.h) \
                        .astype(int)
                    i3 = np.searchsorted(u3, mids[:, 1])
                    phases = sec.h * eps * b * A3g[:, i2, i3]
                phases = phases.ravel()
            values = form.values(link_coefficients(form.nlinks, sec.h, phases))
            d, lr, rl = (_mul(v, eps**-2) for v in values)
            diag = d if diag is None else diag + d
            off += [lr, rl]
        return diag, off

    def _write(self, parts) -> sp.csr_matrix:
        """The CSR matrix of the parts of :attr:`slots`, which cover it."""
        data = np.empty(len(self.indices), dtype=np.result_type(*parts))
        for slots, part in zip(self.slots, parts):
            data[slots] = part
        return sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=(self.lat.n, self.lat.n))

    def _transverse_matrix(self, diag, off) -> sp.csr_matrix:
        """The CSR matrix of a transverse form's parts."""
        n = self.lat.n
        rows, cols = map(np.concatenate, _entries(n, self.t_forms))
        return sp.csr_matrix((np.concatenate([diag, *off]), (rows, cols)),
                             shape=(n, n))

    def matrix(self, eps, b, shift=0.0, gauge_chi=None) -> sp.csr_matrix:
        """The tube operator at (eps, b) plus ``shift`` times the identity;
        ``gauge_chi`` (Dirichlet axis ends) shifts the link phases by
        -b (chi(s_r) - chi(s_l)).  No validation."""
        phases, pulled, r_mult = self._gauge(eps, b, gauge_chi)
        hn, w, V = self._metric(eps)
        t_diag, t_off = self._transverse(eps, b, pulled)
        if self.twist is None:
            s_diag, lr, rl = self.s_form.values(self._s_factor(phases, hn), w)
            return self._write([t_diag + s_diag + V + shift, lr, rl, *t_off])
        X = self.lat.axis_factor(phases) + self.twist
        if r_mult is not None and np.abs(r_mult).max() > 0:
            X = X + sp.diags(r_mult) @ self.link_average
        mat = (self._transverse_matrix(t_diag, t_off)
               + form_term(X @ sp.diags(hn), weights=w) + sp.diags(V))
        return (mat + shift * sp.eye(mat.shape[0])).tocsr()

    # -- the Cauchy contour of magtube.asymptotics --

    def form_pattern(self):
        """(rows, cols) of the diagonal and of both entries of every s-link
        between two unknowns."""
        return tuple(map(np.concatenate, _entries(self.lat.n, [self.s_form])))

    def form_sample(self, eps) -> np.ndarray:
        """Y(conj eps)^H diag(w) Y(eps) + diag(V) at the critical b = 1/eps,
        at :meth:`form_pattern`: the continuation in eps of the s-link form
        and the potential, analytic without a field or with a frame-aligned
        planar one (the Hermitian adjoint itself is not analytic in eps)."""

        def parts(e):
            hn, w, V = self._metric(e)
            phases = self._gauge(e, e**-1.0)[0]  # as RegimeParams forms b
            return self._s_factor(phases, hn), w, V

        f, w, V = parts(eps)
        g = f if np.isreal(eps) else parts(np.conj(eps))[0]
        diag, lr, rl = self.s_form.values(f, w, g)
        return np.concatenate([diag + V, lr, rl])

    def transverse(self) -> sp.csr_matrix:
        """-d^2/dtau^2 on every s-slab, the transverse form at eps = 1."""
        return self._transverse_matrix(*self._transverse(1.0, 0.0, None))


def _twist_term(lat: TubeLattice, tp_mid) -> sp.csr_matrix:
    """-i theta' d_alpha, with d_alpha averaged from the nodes onto s-links."""
    Dal = sp.kron(sp.eye(lat.ns), angular_derivative(lat.section).matrix,
                  format="csr")
    tw = np.repeat(tp_mid, lat.nsec)
    return (-1j) * sp.diags(tw) @ (lat.link_average() @ Dal)


# -- tube assemblies --------------------------------------------------------------


def assemble_full(tube: TubeSpec, field, frame: FrameTrajectory | None = None,
                  shifted: bool = True, gauge_chi=None,
                  skeleton: TubeSkeleton | None = None) -> AssembledOperator:
    """Homogenized curvilinear operator of a planar or spatial tube, as the
    section is 1D or 2D: one evaluation of ``skeleton``, by default a
    :class:`TubeSkeleton` of (tube, field, frame) built for this call.  A
    skeleton passed in must hold this tube's curve and section, ``field``
    and ``frame`` (if given), or ValueError is raised.

    A spatial tube past GRID_BUDGET_3D unknowns raises GridBudgetError.
    With ``shifted`` the stored matrix is the positive-definite
    L - eps^-2 lam1h + K.  ``gauge_chi`` adds the discrete gradient of a
    lattice gauge function chi(s) to A1 (link phases shift by the exact
    difference b (chi(s_r) - chi(s_l))).  The spectrum does not move on a
    planar or untwisted spatial tube; on a twisted one it moves by O(ds^2)
    (see the assemble module).
    """
    if skeleton is None:
        skeleton = TubeSkeleton(tube.curve, tube.section,
                                frame or integrate_frame(tube.curve), field)
    elif (skeleton.curve is not tube.curve
          or skeleton.section is not tube.section
          or frame is not None and frame is not skeleton.frame
          or skeleton.field is not TubeSkeleton.nonzero(field)):
        raise ValueError("the skeleton belongs to another tube, field or frame")
    for message in validate_tube(tube, frame=skeleton.frame).messages:
        warnings.warn(message, stacklevel=2)
    sec, eps = tube.section, tube.regime.eps
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    shift = (-(eps**-2) * lam1h + K) if shifted else 0.0
    return AssembledOperator(
        matrix=skeleton.matrix(eps, tube.regime.b, shift, gauge_chi),
        grid={"kind": f"tube{sec.dim + 1}d", "axis": skeleton.axis,
              "section": sec},
        bc={"s": "dirichlet", "tau" if sec.dim == 1 else "omega": "dirichlet"},
        shift=shift,
        regime=tube.regime,
        meta={"lam1h": lam1h, "J1h": J1h, "K": K,
              "ess_threshold": eps**-2 * lam1h + shift,
              "model": f"full{sec.dim + 1}d"},
    )


# The benchmark's names of the one builder.
assemble_full_2d = assemble_full_3d = assemble_full


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
    _check_support(tube.curve, field)
    if frame is None:
        frame = integrate_frame(tube.curve)
    if not tube.regime.critical or (field is not None and field.is_zero()):
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
