"""Eps-expansion of the critical-regime 2D operator, quasimode construction
and eigenvalue expansions.

The operator family L(eps) = m (i d/ds + b A1) m^2 (i d/ds + b A1) m
- eps^-2 d2/dtau2 + V at b = 1/eps is, at fixed grid, eps^-2 T (T the
transverse Dirichlet form) plus a matrix M(eps) that is entrywise analytic
in eps.  Its Taylor coefficients are read off the one tube builder,
:class:`magtube.operators.TubeSkeleton`: one skeleton samples M on a circle
|eps| = r in the complex plane, and a discrete Fourier transform of the
samples gives the Cauchy integrals of its coefficients (the trapezoidal
rule, exact up to aliasing).
They are the discrete counterparts of the expansion terms L_0 = -d2/dtau2,
L_1 = 0, L_2 = (i d/ds + tau B(s,0))^2 - kappa^2/4, ...

The quasimode is built on the section's own modes: gamma_0 and J1 are
:func:`magtube.operators.transverse_ground`'s, the transverse block is one
slab of L_0, and both Fredholm solves are
:func:`magtube.xsection.deflated_solver`.

Quasimode grading: a quasimode of order J certifies eigenvalue accuracy
O(eps^(J+1)).  A truncation of the formal series at order J alone leaves an
O(eps^(J-1)) residual, so the recursion is solved through order J+2 and the
returned evaluators sum psi_j and gamma_j through J+2; with that convention
both the residual and the eigenvalue distance are O(eps^(J+1)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .assemble import AssembledOperator, RegimeParams
from .errors import (
    DegenerateModeError,
    ModeTrackingError,
    NoBoundStateError,
    NotApplicable,
)
from .geometry import FrameTrajectory, TubeSpec, integrate_frame
from .operators import (
    TubeSkeleton,
    assemble_full,
    fiber_project,
    smallest_eigenpairs,
    transverse_ground,
)
from .xsection import deflated_solver

# The Cauchy contour: CONTOUR_POINTS samples on |eps| = r with
# r = CONTOUR_RADIUS / max(1, sup|kappa| sup|tau|).  h = 1 - eps kappa tau
# vanishes at |eps| = 1 / (kappa tau), so the radius follows the geometry:
# the aliased coefficient j + N enters coefficient j with a weight of about
# (r kappa tau)^N <= 0.3^32 = 2e-17.  A fixed r = 0.3 puts L2 off by 9e-7
# at kappa sup|tau| = 2 and by 39% at 3.
CONTOUR_POINTS = 32
CONTOUR_RADIUS = 0.3
# roundoff in L_j grows like r^(2 - j); on criterion 5's fixture L2..L6
# agree with a hand-derived series to 5e-16..5e-15 of their largest entries
MAX_SERIES_ORDER = 6


@dataclass
class SeriesOperator:
    """eps-power expansion L(eps) ~ sum_j eps^(j-2) L_j of the 2D operator.

    terms[j] is the sparse matrix L_j (None means zero); terms[0] is the
    transverse -d2/dtau2, terms[1] = 0.
    """

    terms: list
    j_max: int
    grid: dict
    meta: dict = field(default_factory=dict)

    def term(self, j: int) -> sp.spmatrix:
        t = self.terms[j]
        n = self.grid["n"]
        return sp.csr_matrix((n, n), dtype=complex) if t is None else t


def expand_operator_2d(tube: TubeSpec, field, j_max: int = 4,
                       frame: FrameTrajectory | None = None) -> SeriesOperator:
    """Taylor coefficients (in eps) of the critical-regime 2D operator.

    terms[0] is the transverse form T, terms[1] = None and terms[j] the
    coefficient of eps^(j-2) in M(eps) = L(eps) - eps^-2 T.  With the
    s-link factor Y, link weights w and potential V of the tube skeleton
    (:meth:`magtube.operators.TubeSkeleton.form_sample`),
    M(eps) = Y(conj eps)^H diag(w(eps)) Y(eps) + diag(V(eps)), the
    holomorphic continuation of the assembled matrix: the Hermitian adjoint
    itself is not analytic in eps.  Each coefficient is the Cauchy integral
    of M over |eps| = r by the trapezoidal rule at CONTOUR_POINTS points (a
    discrete Fourier transform of the samples), all on one skeleton, which
    ``grid["skeleton"]`` carries on to :func:`eigenvalue_expansion`.

    Requires delta = 1 and no field or a frame-aligned one: an ambient
    field's gauge casts positions to float, so it cannot be sampled at
    complex eps.
    """
    if not tube.regime.critical:
        raise NotApplicable("operator expansion is defined in the critical regime")
    if j_max > MAX_SERIES_ORDER:
        raise NotImplementedError(
            f"series truncated at order {MAX_SERIES_ORDER} (requested {j_max})"
        )
    if field is not None and not field.is_zero() and not getattr(
        field, "frame_aligned", False
    ):
        raise NotApplicable(
            "operator expansion needs a frame-aligned field (closed-form axis data)"
        )
    if frame is None:
        frame = integrate_frame(tube.curve)
    skeleton = TubeSkeleton(tube.curve, tube.section, frame, field)
    n = skeleton.lat.n
    rows, cols = skeleton.form_pattern()
    r = CONTOUR_RADIUS / max(1.0, tube.curve.sup_kappa() * tube.sup_tau())
    N, order = CONTOUR_POINTS, max(j_max - 2, 0)

    def adjoint(values):  # at the transposed entries: the s-link ends swap
        diag, lr, rl = np.split(values, [n, n + (len(values) - n) // 2])
        return np.concatenate([diag, rl, lr])

    # The trapezoidal rule N r^j c_j = sum_k M(eps_k) e^(-2 pi i j k / N),
    # eps_k = r e^(2 pi i k / N), summed over M_k - M_0 (with M_0 added back
    # to c_0) so that entries constant in eps give exact zeros.  As
    # M(eps_(N-k)) = M(eps_k)^H, the terms k and N - k pair into F + F^H,
    # which keeps every c_j Hermitian; only the j <= order rows are summed.
    m0 = skeleton.form_sample(r)
    F = np.zeros((order + 1, len(rows)), dtype=complex)
    for k in range(1, N // 2):
        eps = r * np.exp(2j * np.pi * k / N)
        F += (np.exp(-2j * np.pi * k * np.arange(order + 1) / N)[:, None]
              * (skeleton.form_sample(eps) - m0))
    d_half = skeleton.form_sample(-r) - m0
    terms = [skeleton.transverse(), None]
    for j in range(order + 1):
        c = (F[j] + adjoint(F[j]).conj() + (-1) ** j * d_half) / (N * r**j)
        terms.append(sp.csr_matrix((c + m0 if j == 0 else c, (rows, cols)),
                                   shape=(n, n)))
    terms = terms[: j_max + 1]
    grid = {"kind": "tube2d", "axis": skeleton.axis, "section": tube.section,
            "n": n, "ntau": tube.section.n, "skeleton": skeleton}
    return SeriesOperator(terms=terms, j_max=min(j_max, len(terms) - 1),
                          grid=grid, meta={"delta": 1.0})


# -- quasimode recursion -----------------------------------------------------------


@dataclass
class Quasimode:
    """eps-graded quasi-eigenpair of the critical-regime operator.

    gammas[j], psis[j] for j = 0..J+2 (the two extra internal orders make the
    advertised residual order J+1 hold); perps[j] are the transverse
    corrections orthogonal to the ground fiber J1, psi_0 = f_0 (x) J1;
    Psi/Gamma evaluate the graded sums.
    """

    order: int
    mode_index: int
    J1: np.ndarray
    gammas: np.ndarray
    psis: list
    perps: list
    grid: dict
    fredholm_defect: float
    mu_n: float

    def Psi(self, eps: float) -> np.ndarray:
        out = np.zeros_like(self.psis[0], dtype=complex)
        for j, psi in enumerate(self.psis):
            out += eps**j * psi
        return out.ravel()

    def Gamma(self, eps: float) -> float:
        return float(sum(eps ** (j - 2) * g for j, g in enumerate(self.gammas)))

    def gamma_table(self):
        """(expansion index j, gamma_j) rows; index -2 carries the transverse
        ground energy."""
        return [(j - 2, float(g)) for j, g in enumerate(self.gammas)]

    def residual(self, op_full: AssembledOperator, eps: float) -> float:
        psi = self.Psi(eps)
        mat = op_full.matrix
        gam = self.Gamma(eps) + op_full.shift
        r = mat @ psi - gam * psi
        return float(np.linalg.norm(r) / np.linalg.norm(psi))


def build_quasimode(series: SeriesOperator, mode_index: int = 1,
                    J: int = 2) -> Quasimode:
    """Two-level Rayleigh-Schroedinger recursion on the discrete series.

    Order-m bracket: sum_{k+l=m} (L_k - gamma_k) psi_l = 0.  The transverse
    Fredholm solve lives on the J1 fiber per s-node; the longitudinal
    solvability equation is the effective-operator eigenproblem at m = 2
    (fixing gamma_2 = mu_n and f_0) and a deflated solve fixing f_{m-2},
    gamma_m at higher orders, with <f_j, f_0> = 0 for j >= 1.  Both deflated
    solves are factored once.  Recursion runs through order J+2.
    """
    j_solve = J + 2
    if j_solve > series.j_max:
        raise NotApplicable(
            f"quasimode order {J} needs series terms through {j_solve}; "
            f"expand with j_max >= {j_solve}"
        )
    ax = series.grid["axis"]
    sec = series.grid["section"]
    ntau = series.grid["ntau"]
    ns = ax.ns
    dvol = sec.h**sec.dim
    gamma0, J1h = transverse_ground(sec)
    # fiber (effective) operator from L2
    T2d = fiber_project(series.term(2), J1h, ns, dvol).toarray()
    herm = np.abs(T2d - T2d.conj().T).max()
    T2d = np.real(T2d)
    if herm > 1e-10:
        raise NotApplicable(f"fiber operator not Hermitian (defect {herm:.2e})")
    mus, fvecs = la.eigh(T2d)
    n_neg = int(np.sum(mus < 0))
    if mode_index > n_neg:
        raise NoBoundStateError(
            f"effective operator has {n_neg} negative eigenvalues; "
            f"cannot expand mode {mode_index}"
        )
    mu = float(mus[mode_index - 1])
    gaps = np.diff(mus[max(mode_index - 2, 0):mode_index + 1])
    if min(gaps) < 1e-6:
        raise DegenerateModeError(
            f"mode {mode_index} gap {min(gaps):.2e} < 1e-6 (simple modes only)"
        )
    f0 = fvecs[:, mode_index - 1]
    f0 = f0 / np.sqrt(ax.ds * np.dot(f0, f0))
    f0 = f0 * np.sign(f0[np.argmax(np.abs(f0))])

    slab = series.term(0)[:ntau, :ntau]
    solve_tau = deflated_solver(slab - gamma0 * sp.eye(ntau), J1h, dvol * J1h)
    solve_s = deflated_solver(sp.csr_matrix(T2d) - mu * sp.eye(ns), f0,
                              ax.ds * f0)

    psi0 = np.outer(f0, J1h).astype(complex)
    psis = [psi0]
    gammas = [gamma0, 0.0, mu]
    perp = [np.zeros_like(psi0)]  # psi_j^perp, axis layout (ns, ntau)
    fs = [f0]
    fredholm = 0.0

    def apply_term(k, psi):
        return (series.term(k) @ psi.ravel()).reshape(ns, ntau)

    def transverse(rhs):
        """The J1-perp solution per s-node; the defect joins fredholm."""
        nonlocal fredholm
        x, defect = solve_tau(rhs.T)
        fredholm = max(fredholm, float(np.abs(defect).max()))
        return x.T

    for m in range(1, j_solve + 1):
        if m == 1:
            psis.append(np.zeros_like(psi0))
            perp.append(np.zeros_like(psi0))
            fs.append(np.zeros(ns))
            continue
        if m == 2:
            perp2 = transverse(gammas[2] * psis[0] - apply_term(2, psis[0]))
            perp.append(perp2)
            psis.append(perp2.copy())  # f_2 added when solved (order 4)
            fs.append(None)
            continue
        # known part of R_m = sum_{k=2}^m (gamma_k - L_k) psi_{m-k}, with the
        # unknown f_{m-2} (inside psi_{m-2}) and gamma_m split out
        known = np.zeros_like(psi0)
        for k in range(2, m + 1):
            l = m - k
            if k == 2:
                contrib = gammas[2] * perp[l] - apply_term(2, perp[l])
            else:
                psi_l = perp[l]
                if fs[l] is not None:
                    psi_l = psi_l + np.outer(fs[l], J1h)
                gk = gammas[k] if k < m else 0.0  # gamma_m unknown
                contrib = gk * psi_l - apply_term(k, psi_l)
            known += contrib
        pi_m = dvol * (known @ J1h.conj())
        # gamma_m is real for the self-adjoint analytic family; the imaginary
        # part of the projection must cancel (kept as a diagnostic)
        gamma_m = -ax.ds * float(np.real(np.dot(pi_m, f0)))
        fm2, _ = solve_s(gamma_m * f0 + pi_m)
        fs[m - 2] = fm2
        psis[m - 2] = perp[m - 2] + np.outer(fm2, J1h)
        gammas.append(gamma_m)
        rhs = known + gamma_m * psis[0] + (
            gammas[2] * np.outer(fm2, J1h) - apply_term(2, np.outer(fm2, J1h))
        )
        perp_m = transverse(rhs)
        perp.append(perp_m)
        psis.append(perp_m.copy())
        fs.append(None)
    return Quasimode(
        order=J, mode_index=mode_index, J1=J1h, gammas=np.array(gammas),
        psis=psis, perps=perp, grid=series.grid, fredholm_defect=fredholm,
        mu_n=mu,
    )


def eigenvalue_expansion(tube: TubeSpec, field, mode_index: int, J: int,
                         eps_list, frame: FrameTrajectory | None = None,
                         series: SeriesOperator | None = None):
    """Expansion coefficients plus a verification record against the full
    operator: |lambda_n(eps) - Gamma_J(eps)| over the eps sweep, with mode
    identity tracked by quasimode overlap.  Also returns the quasimode
    residual ``qm.residual`` on each of those operators.  The full
    operators are evaluations of the series' skeleton, so a ``series``
    passed in must be :func:`expand_operator_2d`'s of this tube, field and
    frame."""
    if series is None:
        series = expand_operator_2d(tube, field, j_max=J + 2, frame=frame)
    qm = build_quasimode(series, mode_index=mode_index, J=J)
    skeleton = series.grid["skeleton"]
    rows = []
    overlaps = []
    residuals = []
    for eps in eps_list:
        tube_eps = TubeSpec(tube.curve, tube.section,
                            RegimeParams(eps=eps, delta=1.0, K=tube.regime.K))
        op = assemble_full(tube_eps, field, frame, skeleton=skeleton)
        spec = smallest_eigenpairs(op, k=mode_index + 2, sigma=0.0)
        psi = qm.Psi(eps)
        psi = psi / np.linalg.norm(psi)
        ovl = np.abs(spec.eigenvectors.conj().T @ psi)
        pick = int(np.argmax(ovl))
        if ovl[pick] < 0.5:
            raise ModeTrackingError(
                f"eps={eps}: best overlap {ovl[pick]:.3f} < 0.5",
                overlaps=ovl,
            )
        overlaps.append(float(ovl[pick]))
        lam = float(spec.eigenvalues[pick]) - op.shift
        rows.append((eps, lam, qm.Gamma(eps), abs(lam - qm.Gamma(eps))))
        residuals.append(qm.residual(op, eps))
    return qm, rows, overlaps, residuals
