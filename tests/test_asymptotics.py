"""Series expansion, quasimode recursion, form-to-resolvent lemma."""

import numpy as np
import pytest
import scipy.sparse as sp

from magtube import asymptotics as asym, geometry as geo, grids, operators as ops
from magtube.assemble import RegimeParams
from magtube.errors import DegenerateModeError, NoBoundStateError, NotApplicable
from magtube.fitting import fit_order

from reference import (InvalidFormPair, assemble_app_2d,
                       check_form_resolvent_lemma,
                       dirichlet_second_difference, make_form_pair,
                       random_spd_pair)


def make_tube(curve, sec, eps, delta=1.0, K=None):
    return geo.TubeSpec(curve, sec, RegimeParams(eps=eps, delta=delta, K=K))


@pytest.fixture(scope="module")
def setup():
    sec = grids.interval(1.0, 1 / 30)
    curve = geo.CurveProfile(dim=2, S=12.0, ds=0.075,
                             kappa=geo.Profile.single(0.0, 2.0, 1.2))
    frame = geo.integrate_frame(curve)
    field = geo.FrameAlignedField2D(geo.Profile.single(0.5, 1.5, 0.6))
    return sec, curve, frame, field


@pytest.fixture(scope="module")
def series5(setup):
    sec, curve, frame, field = setup
    tube = make_tube(curve, sec, 0.1)
    return asym.expand_operator_2d(tube, field, j_max=5, frame=frame)


def test_flat_series_is_exact(setup):
    sec, _, _, _ = setup
    curve = geo.CurveProfile(dim=2, S=12.0, ds=0.075)
    frame = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.1)
    series = asym.expand_operator_2d(tube, None, j_max=4, frame=frame)
    # kappa = B = 0: every term beyond L2 vanishes, L2 = (i d/ds)^2
    for j in (3, 4):
        assert abs(series.term(j)).max() == 0.0
    ax = ops.axis_grid(curve)
    ref = sp.kron(dirichlet_second_difference(ax.ns, ax.ds), sp.eye(sec.n))
    assert abs(series.term(2) - ref).max() < 1e-12
    assert series.terms[1] is None  # L1 = 0


def test_series_hermitian_terms(series5):
    # max |L_j - L_j^H| entry of each term, in absolute terms
    defects = [abs(t - t.getH()).max() if t is not None else 0.0
               for t in series5.terms]
    assert max(defects) < 1e-12


def test_L2_matches_app_assembly(setup, series5):
    sec, curve, frame, field = setup
    tube = make_tube(curve, sec, 0.1)
    app = assemble_app_2d(tube, field, frame, shifted=False)
    ax = ops.axis_grid(curve)
    Ttau = dirichlet_second_difference(sec.n, sec.h)
    L2ref = app.matrix - 0.1**-2 * sp.kron(sp.eye(ax.ns), Ttau, format="csr")
    assert abs(L2ref - series5.term(2)).max() < 1e-10


def test_series_truncation_order(setup, series5):
    # the second curve has kappa sup|tau| = 3, so h = 1 - eps kappa tau
    # vanishes at |eps| = 1/3 and the contour radius must shrink below it;
    # its bump is narrow enough (turning 2.7 rad) for the tube to validate
    sec, curve, frame, field = setup
    sharp = geo.CurveProfile(dim=2, S=12.0, ds=0.075,
                             kappa=geo.Profile.single(0.0, 0.75, 3.0))
    sharp_frame = geo.integrate_frame(sharp)
    sharp_series = asym.expand_operator_2d(make_tube(sharp, sec, 0.1), field,
                                           j_max=4, frame=sharp_frame)
    eps_list = [0.2, 0.1, 0.05, 0.025]
    for crv, frm, series in ((curve, frame, series5),
                             (sharp, sharp_frame, sharp_series)):
        diffs = []
        for eps in eps_list:
            full = ops.assemble_full(make_tube(crv, sec, eps), field, frm,
                                     shifted=False)
            ser4 = sum(eps ** (j - 2) * series.term(j) for j in range(5))
            diffs.append(abs(full.matrix - ser4).max())
        fit = fit_order(eps_list, diffs)
        assert fit.slope >= 2.8  # truncating after L4 leaves O(eps^3)


def test_series_order_cap():
    sec = grids.interval(1.0, 1 / 10)
    curve = geo.CurveProfile(dim=2, S=4.0, ds=0.25)
    tube = make_tube(curve, sec, 0.1)
    with pytest.raises(NotImplementedError):
        asym.expand_operator_2d(tube, None, j_max=7)
    with pytest.raises(NotApplicable):
        asym.expand_operator_2d(
            geo.TubeSpec(curve, sec, RegimeParams(eps=0.1, delta=0.5)), None)


def test_quasimode_leading_coefficients(series5, setup):
    sec, curve, frame, field = setup
    qm = asym.build_quasimode(series5, mode_index=1, J=2)
    assert abs(qm.gammas[0] - np.pi**2 / 4) < 1e-3    # gamma_0 = pi^2/4 + O(h^2)
    assert qm.gammas[1] == 0.0                        # gamma_1 = 0
    assert qm.fredholm_defect < 1e-8
    # transverse corrections stay orthogonal to the ground fiber
    _, J1h = ops.transverse_ground(sec)
    for perp in qm.perps[1:]:
        proj = sec.h * np.abs(perp @ J1h)
        assert proj.max() < 1e-10
    # Gamma_2 identity: eps^-2 gamma_0 + mu_n (gamma_1 = gamma_3 = 0 here)
    eps = 0.07
    assert np.isclose(qm.Gamma(eps),
                      sum(eps ** (j - 2) * g for j, g in enumerate(qm.gammas)))


def test_quasimode_ground_pair_is_the_sections(series5, setup):
    # gamma_0 and the J1 of psi_0 are transverse_ground's, to the bit: the
    # quasimode shares the section's one ground pair with the tube operators
    sec, curve, frame, field = setup
    qm = asym.build_quasimode(series5, mode_index=1, J=2)
    lam1h, J1h = ops.transverse_ground(sec)
    assert qm.gammas[0] == lam1h
    assert np.array_equal(qm.J1, J1h)
    f0 = sec.h * (qm.psis[0] @ J1h)
    assert np.abs(qm.psis[0] - np.outer(f0, J1h)).max() < 1e-14


def test_gamma2_matches_independent_effective_eigenvalue(series5, setup):
    sec, curve, frame, field = setup
    qm = asym.build_quasimode(series5, mode_index=1, J=2)
    tube = make_tube(curve, sec, 0.1, K=0.0)
    eff = ops.assemble_effective(tube, field, frame=frame, mode="galerkin")
    spec = ops.smallest_eigenpairs(eff, k=1, sigma=qm.mu_n - 0.05)
    assert abs(spec.eigenvalues[0] - qm.gammas[2]) < 1e-6


def test_quasimode_residual_order_J2(series5, setup):
    sec, curve, frame, field = setup
    qm = asym.build_quasimode(series5, mode_index=1, J=2)
    eps_list = [0.1, 0.06, 0.035]
    res = []
    for eps in eps_list:
        op = ops.assemble_full(make_tube(curve, sec, eps), field, frame)
        res.append(qm.residual(op, eps))
    fit = fit_order(eps_list, res)
    assert fit.slope >= 2.8


def test_refusal_without_bound_state(setup):
    sec, _, _, _ = setup
    # kappa = 0 and a field bump: T^[2] >= 0 has no negative eigenvalue
    curve = geo.CurveProfile(dim=2, S=12.0, ds=0.075)
    frame = geo.integrate_frame(curve)
    field = geo.FrameAlignedField2D(geo.Profile.single(0.0, 1.5, 0.6))
    tube = make_tube(curve, sec, 0.1)
    series = asym.expand_operator_2d(tube, field, j_max=4, frame=frame)
    with pytest.raises(NoBoundStateError):
        asym.build_quasimode(series, mode_index=1, J=2)


def test_degenerate_gap_guard(series5):
    qm = asym.build_quasimode(series5, mode_index=1, J=2)
    assert qm.mu_n < 0
    # second mode exists in this fixture or the guard fires; both acceptable
    try:
        asym.build_quasimode(series5, mode_index=2, J=2)
    except (NoBoundStateError, DegenerateModeError):
        pass


def test_eigenvalue_expansion_tracking(setup, series5):
    sec, curve, frame, field = setup
    tube = make_tube(curve, sec, 0.1)
    qm, rows, overlaps, _ = asym.eigenvalue_expansion(
        tube, field, 1, 2, [0.1, 0.07, 0.05], frame=frame, series=series5)
    assert min(overlaps) > 0.9
    diffs = [r[3] for r in rows]
    assert diffs[-1] < diffs[0]
    fit = fit_order([r[0] for r in rows], diffs)
    assert fit.slope >= 2.5  # |lambda - Gamma_2| = O(eps^3)


def test_expansion_eigensolve_band_solves(setup, monkeypatch):
    # one k = 3 eigensolve of eigenvalue_expansion's eps sweep on the
    # asymptotics2d grid, at eps = 0.1: 35 band solves (55 with ARPACK)
    from magtube import assemble

    sec, curve, frame, field = setup
    op = ops.assemble_full(make_tube(curve, sec, 0.1), field, frame=frame,
                           shifted=True)
    solves = []
    factor = assemble.banded_cholesky

    def counting(matrix, **kwargs):
        solve = factor(matrix, **kwargs)

        def counted(rhs):
            solves.append(1)
            return solve(rhs)

        return counted

    monkeypatch.setattr(assemble, "banded_cholesky", counting)
    ops.smallest_eigenpairs(op, k=3, sigma=0.0)
    assert len(solves) <= 40


# -- Lemma: form difference controls the resolvent difference ---------------------


def test_lemma_identical_operators(rng):
    A = np.eye(6) * 0.3
    pair = make_form_pair(A, A.copy())
    out = check_form_resolvent_lemma(pair, n_vector_pairs=50, seed=1)
    assert out["eta"] == 0.0
    assert out["resolvent_diff"] < 1e-14
    assert out["hypothesis_ok"]


def test_lemma_scaling_case(rng):
    # L2 = 2 L1: eta = 1/sqrt(2), ||L1^-1 - L2^-1|| = ||L1^-1||/2; with
    # lam_min(L1) <= 1/sqrt(2) the printed product bound holds
    n = 40
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.linspace(0.3, 5.0, n)
    L1 = (q * vals) @ q.T
    pair = make_form_pair(L1, 2 * L1)
    assert abs(pair.eta - 1 / np.sqrt(2)) < 1e-12
    out = check_form_resolvent_lemma(pair, n_vector_pairs=200, seed=2)
    assert abs(out["resolvent_diff"] - 0.5 / vals[0]) < 1e-12
    assert out["slack_printed"] >= 0
    assert out["slack_sqrt"] >= 0
    assert out["hypothesis_ok"]


def test_lemma_random_pairs_quick(rng):
    for _ in range(10):
        A, B = random_spd_pair(rng, n_max=60)
        pair = make_form_pair(A, B)
        out = check_form_resolvent_lemma(pair, n_vector_pairs=100, seed=3)
        assert out["slack_printed"] >= -1e-12
        assert out["slack_sqrt"] >= -1e-12
        assert out["hypothesis_ok"]


def test_lemma_rejects_indefinite():
    M = np.diag([1.0, -0.5])
    with pytest.raises(InvalidFormPair):
        make_form_pair(M, np.eye(2))
