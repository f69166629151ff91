"""Test-local references: code that only the tests call.

- The sparse tube formula: the curvilinear tube operator built by sparse
  products and sums (transverse form + Y* diag(1/h) Y - |k|^2/(4 h^2)),
  the oracle that :class:`magtube.operators.TubeSkeleton` must match entry
  for entry, and the Cauchy-contour series built from its parts.
- The Dirichlet second difference and the Hardy cutoff pair.
- The straight-metric approximation ``assemble_app_2d``.
- Richardson extrapolation.
- The form-to-resolvent lemma suite on dense SPD pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from magtube.assemble import (
    AssembledOperator,
    RegimeParams,
    cov_link_matrix,
    dirichlet_links,
    form_term,
)
from magtube.errors import MagtubeError
from magtube.geometry import (
    PulledField,
    TubeSpec,
    gauge_2d,
    gauge_3d,
    section_curvature,
)
from magtube.operators import (
    _app_longitudinal,
    _shift_constant,
    axis_grid,
    transverse_ground,
)
from magtube.xsection import angular_derivative

# -- the sparse tube formula ---------------------------------------------------


def transverse_form(lat, pulled=None, eps=1.0, b=0.0):
    """eps^-2 sum_j (-i d/dtau_j + eps b A_j)^2 on every s-slab; with a
    pulled 3D field, the gauge of gauge_3d at the lattice's s-nodes."""
    sec = lat.section
    mat = None
    for axis in range(sec.dim):
        idx_l, idx_r, mids = lat.section_links(axis)
        phases = None
        if pulled is not None:
            if axis == 0:
                B23ax, _, _, _ = pulled.on_axis(lat.nodes)
                phases = (
                    sec.h * eps * b
                    * (-0.5 * eps * mids[:, 1])[None, :] * B23ax[:, None]
                )
            else:
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


def _twist_term(lat, tp_mid):
    Dal = sp.kron(sp.eye(lat.ns), angular_derivative(lat.section).matrix,
                  format="csr")
    tw = np.repeat(tp_mid, lat.nsec)
    return (-1j) * sp.diags(tw) @ (lat.link_average() @ Dal)


def tube_parts(tube, lat, frame, field, gauge_chi=None):
    """(Y, w, V, pulled): the s-link factor Y = X h^(-1/2), the link weights
    1/h, the potential -|k|^2/(4 h^2) and the pulled 3D field (or None)."""
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
    Y = X @ sp.diags((h_node**-0.5).ravel())
    V = -0.25 * (k_node**2).sum(axis=1)[:, None] * h_node**-2.0
    return Y, ((h_link**-0.5) ** 2).ravel(), V.ravel(), pulled


def tube_matrix(tube, lat, frame, field, gauge_chi=None, shift=0.0):
    """The unshifted tube matrix by sparse products and sums, plus
    ``shift`` times the identity."""
    Y, weights, V, pulled = tube_parts(tube, lat, frame, field, gauge_chi)
    mat = (transverse_form(lat, pulled, tube.regime.eps, tube.regime.b)
           + form_term(Y, weights=weights) + sp.diags(V))
    return (mat + shift * sp.eye(mat.shape[0])).tocsr()


def full_matrix(tube, field, frame, shifted=True, gauge_chi=None):
    """The matrix of ``assemble_full`` by the sparse formula."""
    lat = axis_grid(tube.curve).lattice(tube.section)
    eps = tube.regime.eps
    lam1h, _ = transverse_ground(tube.section)
    shift = (-(eps**-2) * lam1h + _shift_constant(tube)) if shifted else 0.0
    return tube_matrix(tube, lat, frame, field, gauge_chi, shift)


def series_terms(tube, field, frame, j_max, radius, points):
    """The Cauchy-contour series of the critical-regime planar operator from
    the sparse parts: terms[j] for j = 0..j_max, terms[1] None."""
    lat = axis_grid(tube.curve).lattice(tube.section)
    r, N, order = radius, points, max(j_max - 2, 0)

    def parts(eps):
        regime = RegimeParams(eps=eps, delta=1.0)
        return tube_parts(TubeSpec(tube.curve, tube.section, regime), lat,
                          frame, field)

    Y = parts(r)[0]
    pattern = (abs(Y).T @ abs(Y) + sp.eye(lat.n)).tocoo()
    rows, cols = pattern.row, pattern.col
    slot = sp.csr_matrix((np.arange(1, len(rows) + 1), (rows, cols)))
    adjoint = np.asarray(slot[cols, rows]).ravel() - 1

    def sample(eps):
        Y, w, V, _ = parts(eps)
        Y_conj = Y if np.isreal(eps) else parts(np.conj(eps))[0]
        M = Y_conj.getH() @ (sp.diags(w) @ Y) + sp.diags(V)
        return np.asarray(M[rows, cols]).ravel()

    m0 = sample(r)
    F = np.zeros((order + 1, len(rows)), dtype=complex)
    for k in range(1, N // 2):
        eps = r * np.exp(2j * np.pi * k / N)
        F += (np.exp(-2j * np.pi * k * np.arange(order + 1) / N)[:, None]
              * (sample(eps) - m0))
    d_half = sample(-r) - m0
    terms = [transverse_form(lat), None]
    for j in range(order + 1):
        c = (F[j] + F[j, adjoint].conj() + (-1) ** j * d_half) / (N * r**j)
        terms.append(sp.csr_matrix((c + m0 if j == 0 else c, (rows, cols)),
                                   shape=(lat.n, lat.n)))
    return terms[: j_max + 1]


def dirichlet_second_difference(n_nodes, h):
    """-d^2/dx^2 on n interior nodes, Dirichlet ends, via D^T D on links."""
    return form_term(cov_link_matrix(n_nodes, *dirichlet_links(n_nodes), h))


def cutoff_pair(s):
    """(chi0, chi1) of the partition of unity behind hardy.cutoff_constant:
    chi0 = sin(phi), chi1 = cos(phi), phi = (pi/2) ramp(2|s| - 1) with the
    cubic smoothstep ramp(u) = 3u^2 - 2u^3 on [0, 1]."""
    u = np.clip(2 * np.abs(np.asarray(s, dtype=float)) - 1.0, 0.0, 1.0)
    phi = (np.pi / 2) * (3 * u**2 - 2 * u**3)
    return np.sin(phi), np.cos(phi)


# -- the straight-metric approximation -------------------------------------------


def assemble_app_2d(tube, field, frame, shifted=True):
    """Straight-metric approximation: (i d/ds + eps b B(s,0) tau)^2
    - kappa^2/4 - eps^-2 d^2/dtau^2 (+ the shift of assemble_full)."""
    ax = axis_grid(tube.curve)
    sec = tube.section
    lat = ax.lattice(sec)
    kin_s = form_term(_app_longitudinal(tube, lat, field, frame))
    V = -0.25 * tube.curve.kappa(ax.nodes)[:, None] ** 2 * np.ones((1, sec.n))
    mat = kin_s + transverse_form(lat, eps=tube.regime.eps) \
        + sp.diags(V.ravel())
    eps = tube.regime.eps
    lam1h, J1h = transverse_ground(sec)
    K = _shift_constant(tube)
    shift = (-(eps**-2) * lam1h + K) if shifted else 0.0
    return AssembledOperator(
        matrix=(mat + shift * sp.eye(mat.shape[0])).tocsr(),
        grid={"kind": "tube2d", "axis": ax, "section": sec},
        bc={"s": "dirichlet", "tau": "dirichlet"},
        shift=shift,
        regime=tube.regime,
        meta={"lam1h": lam1h, "J1h": J1h, "K": K,
              "ess_threshold": eps**-2 * lam1h + shift, "model": "app2d"},
    )


# -- Richardson extrapolation --------------------------------------------------


def richardson(value_h, value_h2, order: float = 2.0) -> float:
    """Eliminate the leading O(h^order) error from values at h and h/2."""
    fac = 2.0**order
    return (fac * value_h2 - value_h) / (fac - 1.0)


# -- Lemma: form difference controls resolvent difference ------------------------


class InvalidFormPair(MagtubeError):
    """Form-pair check requires positive-definite inputs."""


@dataclass
class FormPair:
    """Two positive-definite operators on a common space with the measured
    sharp form-discrepancy constant eta."""

    L1: np.ndarray
    L2: np.ndarray
    eta: float


def make_form_pair(L1: np.ndarray, L2: np.ndarray) -> FormPair:
    for M in (L1, L2):
        if M.shape[0] > 200:
            raise InvalidFormPair("dense pair capped at 200 x 200")
        vals = la.eigvalsh(M)
        if vals[0] <= 0:
            raise InvalidFormPair("operators must be positive definite")
    eta = float(
        np.linalg.norm(
            _inv_sqrt(L1) @ (L1 - L2) @ _inv_sqrt(L2), 2
        )
    )
    return FormPair(L1=L1, L2=L2, eta=eta)


def _inv_sqrt(M: np.ndarray) -> np.ndarray:
    vals, vecs = la.eigh(M)
    return (vecs * vals**-0.5) @ vecs.conj().T


def check_form_resolvent_lemma(pair: FormPair, n_vector_pairs: int = 1000,
                               seed: int = 0) -> dict:
    """Verify both halves of the form-to-resolvent bound on a dense pair.

    resolvent side:  ||L1^-1 - L2^-1|| <= eta ||L1^-1|| ||L2^-1||
    (the proof yields the sharper sqrt of the product; both are reported --
    the printed product form requires ||L1^-1|| ||L2^-1|| >= 1, which the
    harness normalization guarantees)
    hypothesis side: |B1(phi,psi) - B2(phi,psi)| <= eta sqrt(Q1(psi) Q2(phi))
    on sampled vector pairs.
    """
    L1, L2, eta = pair.L1, pair.L2, pair.eta
    inv1 = np.linalg.inv(L1)
    inv2 = np.linalg.inv(L2)
    lhs = np.linalg.norm(inv1 - inv2, 2)
    n1 = np.linalg.norm(inv1, 2)
    n2 = np.linalg.norm(inv2, 2)
    slack_printed = eta * n1 * n2 - lhs
    slack_sqrt = eta * np.sqrt(n1 * n2) - lhs
    rng = np.random.default_rng(seed)
    n = L1.shape[0]
    Phi = rng.standard_normal((n, n_vector_pairs))
    Psi = rng.standard_normal((n, n_vector_pairs))
    num = np.abs(np.einsum("ij,ij->j", Psi, (L1 - L2) @ Phi))
    den = np.sqrt(
        np.einsum("ij,ij->j", Psi, L1 @ Psi)
        * np.einsum("ij,ij->j", Phi, L2 @ Phi)
    )
    worst = float(np.max(num / den))
    return {
        "eta": eta,
        "resolvent_diff": float(lhs),
        "bound_printed": float(eta * n1 * n2),
        "slack_printed": float(slack_printed),
        "bound_sqrt": float(eta * np.sqrt(n1 * n2)),
        "slack_sqrt": float(slack_sqrt),
        "hypothesis_worst_ratio": float(worst),
        "hypothesis_ok": bool(worst <= eta * (1 + 1e-12)),
    }


def random_spd_pair(rng: np.random.Generator, n_max: int = 200):
    """Random SPD pair sized/normalized like shifted waveguide operators.

    Spectra are drawn in (0.05, 0.95) for the smallest eigenvalue and up to
    ~50 for the largest, so resolvent norms exceed 1 and the printed product
    bound applies.
    """
    n = int(rng.integers(8, n_max + 1))
    lam_min = rng.uniform(0.05, 0.95)
    lam_max = lam_min + rng.uniform(1.0, 50.0)

    def one():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = np.sort(rng.uniform(lam_min, lam_max, n))
        vals[0] = lam_min
        return (q * vals) @ q.T

    A = one()
    B = A + rng.uniform(0.0, 0.5) * one() / 2
    # keep B's smallest eigenvalue below 1 as well
    bmin = la.eigvalsh(B)[0]
    if bmin >= 1.0:
        B = B * (lam_min / bmin)
    return A, 0.5 * (B + B.T)
