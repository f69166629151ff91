"""Formal power-series expansion of the critical-regime 2D operator,
quasimode construction, eigenvalue expansions, and the form-to-resolvent
bound checker.

The operator family L(eps) = m (i d/ds + b A1) m^2 (i d/ds + b A1) m
- eps^-2 d2/dtau2 + V at b = 1/eps is entrywise analytic in eps at fixed
grid.  Every assembled factor (metric multipliers, potential, link phases)
is expanded as a matrix-valued power series and multiplied with truncation,
which reproduces the assembled full operator to the truncation order at
machine precision; the series coefficients are the discrete counterparts of
the expansion terms L_0 = -d2/dtau2, L_1 = 0, L_2 = (i d/ds + tau B(s,0))^2
- kappa^2/4, ...

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

from .assemble import AssembledOperator, dirichlet_second_difference
from .errors import (
    DegenerateModeError,
    InvalidFormPair,
    ModeTrackingError,
    NoBoundStateError,
    NotApplicable,
)
from .geometry import FrameTrajectory, TubeSpec, integrate_frame
from .operators import (
    axis_grid,
    fiber_embedding,
    smallest_eigenpairs,
    transverse_form,
)

MAX_SERIES_ORDER = 6  # machine-generated factor expansions; enough for J <= 4

# (1 - x)^(-1/2) Taylor coefficients
_INV_SQRT_COEF = [1.0, 1 / 2, 3 / 8, 5 / 16, 35 / 128, 63 / 256, 231 / 1024]


def _series_mul(A: list, B: list, order: int) -> list:
    """Truncated Cauchy product of matrix power series (lists by eps power)."""
    out = [None] * (order + 1)
    for i, a in enumerate(A):
        if a is None:
            continue
        for j, b in enumerate(B):
            if b is None or i + j > order:
                continue
            prod = a @ b
            out[i + j] = prod if out[i + j] is None else out[i + j] + prod
    return out


def _series_add(A: list, B: list, order: int) -> list:
    out = []
    for k in range(order + 1):
        a = A[k] if k < len(A) else None
        b = B[k] if k < len(B) else None
        if a is None:
            out.append(b)
        elif b is None:
            out.append(a)
        else:
            out.append(a + b)
    return out


def _series_adjoint(A: list) -> list:
    return [None if a is None else a.getH().tocsr() for a in A]


def _phase_exp_series(p_coef: np.ndarray, order: int) -> list:
    """Per-link series of e^{i p(eps)} with p(eps) = sum_k p_coef[k] eps^k.

    Returns arrays [E_0, ..., E_order]; E_0 = e^{i p_0} exactly, the rest from
    the exponential of the zero-constant-term part.
    """
    nlinks = p_coef.shape[1]
    base = np.exp(1j * p_coef[0])
    # exp of N(eps) = i sum_{k>=1} p_k eps^k via the series of exp
    res = [np.ones(nlinks, dtype=complex)] + [
        np.zeros(nlinks, dtype=complex) for _ in range(order)
    ]
    term = [np.ones(nlinks, dtype=complex)] + [
        np.zeros(nlinks, dtype=complex) for _ in range(order)
    ]
    N = [np.zeros(nlinks, dtype=complex) for _ in range(order + 1)]
    for k in range(1, min(order, len(p_coef) - 1) + 1):
        N[k] = 1j * p_coef[k]
    for m in range(1, order + 1):
        # term <- term * N / m
        new = [np.zeros(nlinks, dtype=complex) for _ in range(order + 1)]
        for i in range(order + 1):
            for j in range(1, order + 1 - i):
                new[i + j] += term[i] * N[j] / m
        term = new
        for k in range(order + 1):
            res[k] += term[k]
    return [base * r for r in res]


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

    def evaluate(self, eps: float) -> sp.csr_matrix:
        out = None
        for j in range(self.j_max + 1):
            t = self.terms[j]
            if t is None:
                continue
            contrib = eps ** (j - 2) * t
            out = contrib if out is None else out + contrib
        return out.tocsr()

    def hermiticity_defects(self) -> list:
        out = []
        for t in self.terms:
            if t is None:
                out.append(0.0)
            else:
                d = t - t.getH()
                out.append(float(abs(d).max()) if d.nnz else 0.0)
        return out


def expand_operator_2d(tube: TubeSpec, field, j_max: int = 4,
                       frame: FrameTrajectory | None = None) -> SeriesOperator:
    """Taylor coefficients (in eps) of the critical-regime 2D operator.

    Requires delta = 1 and a frame-aligned field (closed-form on-axis profile,
    so the gauge expansion b A1(s, eps tau) = beta tau - eps beta kappa tau^2/2
    is exact).  Factor expansions are machine-generated and multiplied as
    truncated matrix power series.
    """
    if abs(tube.regime.delta - 1.0) > 1e-12:
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
    ax = axis_grid(tube.curve)
    sec = tube.section
    lat = ax.lattice(sec)
    tau = sec.node_coords()
    ntau = sec.n
    n = lat.n
    order = max(j_max - 2, 0)
    kap_n = tube.curve.kappa(ax.nodes)
    kap_m = tube.curve.kappa(ax.mids)
    if field is None or field.is_zero():
        beta_m = np.zeros(len(ax.mids))
    else:
        beta_m = field.on_axis(frame, ax.mids)

    xs_node = np.outer(kap_n, tau).ravel()  # (tau kappa) per node
    xs_link = np.outer(kap_m, tau).ravel()
    Mser = [
        sp.diags(_INV_SQRT_COEF[k] * xs_node**k).tocsr() for k in range(order + 1)
    ]
    Wser = [sp.diags(xs_link**k).tocsr() for k in range(order + 1)]
    Vser = [
        sp.diags((-0.25 * kap_n[:, None] ** 2
                  * (k + 1) * np.outer(kap_n, tau) ** k).ravel()).tocsr()
        for k in range(order + 1)
    ]
    # link phases: phi(eps) = ds * a with a = -b A1(s, eps tau),
    # b A1 = beta tau - eps beta kappa tau^2 / 2 for frame-aligned fields
    p_coef = np.zeros((order + 1, (ax.ns + 1) * ntau))
    p_coef[0] = -ax.ds * np.outer(beta_m, tau).ravel()
    if order >= 1:
        p_coef[1] = ax.ds * 0.5 * np.outer(beta_m * kap_m, tau**2).ravel()
    Eser = _phase_exp_series(p_coef, order)
    nlinks = (ax.ns + 1) * ntau
    L, R = lat.axis_selectors()
    Bser = []
    for k in range(order + 1):
        Bk = (-1j / ax.ds) * (sp.diags(Eser[k]) @ R)
        if k == 0:
            Bk = Bk + (1j / ax.ds) * L
        Bser.append(Bk.tocsr())
    Yser = _series_mul(Bser, Mser, order)
    WY = _series_mul([sp.diags(np.ones(nlinks)) @ w for w in Wser], Yser, order)
    Kser = _series_mul(_series_adjoint(Yser), WY, order)
    Cser = _series_add(Kser, Vser, order)
    terms = [transverse_form(lat), None]
    for k in range(order + 1):
        terms.append(Cser[k].tocsr())
    terms = terms[: j_max + 1]
    grid = {"kind": "tube2d", "axis": ax, "section": sec, "n": n,
            "ntau": ntau}
    return SeriesOperator(terms=terms, j_max=min(j_max, len(terms) - 1),
                          grid=grid, meta={"delta": 1.0})


# -- quasimode recursion -----------------------------------------------------------


@dataclass
class Quasimode:
    """eps-graded quasi-eigenpair of the critical-regime operator.

    gammas[j], psis[j] for j = 0..J+2 (the two extra internal orders make the
    advertised residual order J+1 hold); perps[j] are the transverse
    corrections orthogonal to the ground fiber; Psi/Gamma evaluate the
    graded sums.
    """

    order: int
    mode_index: int
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


def _lu_solve_c(lu, B):
    """lu_solve with a complex right-hand side on real LU factors."""
    if np.iscomplexobj(B):
        return la.lu_solve(lu, np.real(B)) + 1j * la.lu_solve(lu, np.imag(B))
    return la.lu_solve(lu, B)


def _transverse_ground_dense(Ttau: sp.spmatrix, dtau: float):
    vals, vecs = la.eigh(Ttau.toarray())
    j1 = vecs[:, 0]
    j1 = j1 * np.sign(j1[np.argmax(np.abs(j1))])
    j1 = j1 / np.sqrt(dtau * np.dot(j1, j1))
    return float(vals[0]), j1


def build_quasimode(series: SeriesOperator, mode_index: int = 1,
                    J: int = 2) -> Quasimode:
    """Two-level Rayleigh-Schroedinger recursion on the discrete series.

    Order-m bracket: sum_{k+l=m} (L_k - gamma_k) psi_l = 0.  The transverse
    Fredholm solve lives on the J1 fiber per s-node (deflated KKT factorable
    once); the longitudinal solvability equation is the effective-operator
    eigenproblem at m = 2 (fixing gamma_2 = mu_n and f_0) and a deflated
    solve fixing f_{m-2}, gamma_m at higher orders, with <f_j, f_0> = 0 for
    j >= 1.  Recursion runs through order J+2.
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
    dtau = sec.h
    Ttau = dirichlet_second_difference(ntau, dtau)
    gamma0, J1h = _transverse_ground_dense(Ttau, dtau)
    E = fiber_embedding(J1h, ns)
    # fiber (effective) operator from L2
    T2 = dtau * (E.getH() @ (series.term(2) @ E))
    T2d = T2.toarray()
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
    gaps = []
    if mode_index - 2 >= 0:
        gaps.append(mus[mode_index - 1] - mus[mode_index - 2])
    gaps.append(mus[mode_index] - mus[mode_index - 1])
    if min(gaps) < 1e-6:
        raise DegenerateModeError(
            f"mode {mode_index} gap {min(gaps):.2e} < 1e-6 (simple modes only)"
        )
    f0 = fvecs[:, mode_index - 1]
    f0 = f0 / np.sqrt(ax.ds * np.dot(f0, f0))
    f0 = f0 * np.sign(f0[np.argmax(np.abs(f0))])

    # deflated transverse KKT, factored once (dense: ntau is small)
    kkt_tau = np.zeros((ntau + 1, ntau + 1))
    kkt_tau[:ntau, :ntau] = Ttau.toarray() - gamma0 * np.eye(ntau)
    kkt_tau[:ntau, ntau] = J1h
    kkt_tau[ntau, :ntau] = dtau * J1h
    lu_tau = la.lu_factor(kkt_tau)
    # deflated longitudinal KKT
    kkt_s = np.zeros((ns + 1, ns + 1))
    kkt_s[:ns, :ns] = T2d - mu * np.eye(ns)
    kkt_s[:ns, ns] = f0
    kkt_s[ns, :ns] = ax.ds * f0
    lu_s = la.lu_factor(kkt_s)

    psi0 = np.outer(f0, J1h).astype(complex)
    psis = [psi0]
    gammas = [gamma0, 0.0, mu]
    perp = [np.zeros_like(psi0)]  # psi_j^perp, axis layout (ns, ntau)
    fs = [f0]
    fredholm = 0.0

    def apply_term(k, psi):
        return (series.term(k) @ psi.ravel()).reshape(ns, ntau)

    for m in range(1, j_solve + 1):
        if m == 1:
            psis.append(np.zeros_like(psi0))
            perp.append(np.zeros_like(psi0))
            fs.append(np.zeros(ns))
            continue
        if m == 2:
            rhs2 = gammas[2] * psis[0] - apply_term(2, psis[0])
            sol = _lu_solve_c(lu_tau, np.vstack([rhs2.T, np.zeros((1, ns),
                                                                  dtype=complex)]))
            perp2 = sol[:ntau].T
            fredholm = max(fredholm, float(np.abs(sol[ntau]).max()))
            perp.append(perp2)
            psis.append(perp2.copy())  # f_2 added when solved (order 4)
            fs.append(None)
            continue
        # known part of R_m = sum_{k=2}^m (gamma_k - L_k) psi_{m-k}, with the
        # unknown f_{m-2} (inside psi_{m-2}) and gamma_m split out
        known = np.zeros_like(psi0)
        for k in range(2, m + 1):
            l = m - k
            contrib = np.zeros_like(psi0)
            if k == 2:
                contrib = gammas[2] * perp[l] - apply_term(2, perp[l])
            else:
                psi_l = perp[l].copy()
                if fs[l] is not None:
                    psi_l = psi_l + np.outer(fs[l], J1h)
                gk = gammas[k] if k < m else 0.0  # gamma_m unknown
                contrib = gk * psi_l - apply_term(k, psi_l)
            known += contrib
        pi_m = dtau * (known @ J1h.conj())
        # gamma_m is real for the self-adjoint analytic family; the imaginary
        # part of the projection must cancel (kept as a diagnostic)
        gamma_m = -ax.ds * float(np.real(np.dot(pi_m, f0)))
        fm2 = _lu_solve_c(
            lu_s, np.concatenate([gamma_m * f0 + pi_m, [0.0]])
        )[:ns]
        fs[m - 2] = fm2
        psis[m - 2] = perp[m - 2] + np.outer(fm2, J1h)
        gammas.append(gamma_m)
        rhs = known + gamma_m * psis[0] + (
            gammas[2] * np.outer(fm2, J1h) - apply_term(2, np.outer(fm2, J1h))
        )
        sol = _lu_solve_c(lu_tau, np.vstack([rhs.T, np.zeros((1, ns),
                                                             dtype=complex)]))
        perp_m = sol[:ntau].T
        fredholm = max(fredholm, float(np.abs(sol[ntau]).max()))
        perp.append(perp_m)
        psis.append(perp_m.copy())
        fs.append(None)
    # remaining free longitudinal parts stay zero
    for j in range(len(psis)):
        if fs[j] is None:
            fs[j] = np.zeros(ns)
    return Quasimode(
        order=J, mode_index=mode_index, gammas=np.array(gammas),
        psis=psis, perps=perp, grid=series.grid, fredholm_defect=fredholm,
        mu_n=mu,
    )


def eigenvalue_expansion(tube: TubeSpec, field, mode_index: int, J: int,
                         eps_list, frame: FrameTrajectory | None = None,
                         series: SeriesOperator | None = None):
    """Expansion coefficients plus a verification record against the full
    operator: |lambda_n(eps) - Gamma_J(eps)| over the eps sweep, with mode
    identity tracked by quasimode overlap."""
    from .operators import assemble_full_2d

    if frame is None:
        frame = integrate_frame(tube.curve)
    if series is None:
        series = expand_operator_2d(tube, field, j_max=J + 2, frame=frame)
    qm = build_quasimode(series, mode_index=mode_index, J=J)
    rows = []
    overlaps = []
    for eps in eps_list:
        tube_eps = TubeSpec(tube.curve, tube.section,
                            type(tube.regime)(eps=eps, delta=1.0,
                                              K=tube.regime.K))
        op = assemble_full_2d(tube_eps, field, frame=frame, shifted=True)
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
    return qm, rows, overlaps


# -- Lemma: form difference controls resolvent difference ---------------------------


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
