"""Full/approximate/effective planar operators, spectra, resolvent distances."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from magtube import geometry as geo, grids, operators as ops
from magtube.assemble import RegimeParams, load_triplets, save_triplets

PI24 = np.pi**2 / 4


def make_tube(curve, section, eps, delta=1.0, b=None, K=None):
    return geo.TubeSpec(curve, section,
                        RegimeParams(eps=eps, delta=delta, b=b, K=K))


@pytest.fixture(scope="module")
def straight_setup():
    sec = grids.interval(1.0, 1 / 20)
    curve = geo.CurveProfile(dim=2, S=10.0, ds=0.1)
    return sec, curve, geo.integrate_frame(curve)


@pytest.fixture(scope="module")
def bent_setup(bent_curve, bent_frame):
    sec = grids.interval(1.0, 1 / 30)
    return sec, bent_curve, bent_frame


def test_free_tube_separable(straight_setup):
    sec, curve, frame = straight_setup
    eps = 0.1
    op = ops.assemble_full_2d(make_tube(curve, sec, eps), None, frame,
                              shifted=False)
    lam1h, _ = ops.transverse_ground(sec)
    spec = ops.smallest_eigenpairs(op, k=1, sigma=0.95 * lam1h / eps**2)
    expect = lam1h / eps**2 + (np.pi / (2 * curve.S)) ** 2
    assert abs(spec.eigenvalues[0] - expect) / expect < 1e-6
    assert not op.is_complex


def test_app_equals_full_free_case(straight_setup):
    sec, curve, frame = straight_setup
    tube = make_tube(curve, sec, 0.1)
    a = ops.assemble_full_2d(tube, None, frame, shifted=False)
    b = ops.assemble_app_2d(tube, None, frame, shifted=False)
    assert abs(a.matrix - b.matrix).max() == 0.0


def test_bent_tube_bound_state(bent_setup):
    sec, curve, frame = bent_setup
    eps = 0.05
    op = ops.assemble_full_2d(make_tube(curve, sec, eps), None, frame)
    spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
    # below the essential threshold (curvature-induced bound state)
    assert spec.eigenvalues[0] < op.meta["ess_threshold"]
    assert spec.discrete_flags[0]


def test_eps2_lam1_approaches_transverse_ground(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    lam1h, _ = ops.transverse_ground(sec)
    errs = []
    eps_list = [0.2, 0.1]
    for eps in eps_list:
        op = ops.assemble_full_2d(make_tube(curve, sec, eps), axis_field, frame)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
        lam = spec.eigenvalues[0] - op.shift
        errs.append(abs(eps**2 * lam - lam1h))
    assert errs[1] < errs[0]  # second-order trend checked in acceptance


def test_hermiticity_exact(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    for assemble in (ops.assemble_full_2d, ops.assemble_app_2d):
        op = assemble(make_tube(curve, sec, 0.1), axis_field, frame)
        assert op.hermiticity_defect() <= 1e-12


def test_gauge_covariance_exact(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    op = ops.assemble_full_2d(tube, axis_field, frame)
    chi = lambda s: 0.7 * np.sin(0.6 * s) + 0.2 * s
    op_g = ops.assemble_full_2d(tube, axis_field, frame, gauge_chi=chi)
    e0 = ops.smallest_eigenpairs(op, k=3, sigma=0.0).eigenvalues
    e1 = ops.smallest_eigenpairs(op_g, k=3, sigma=0.0).eigenvalues
    assert np.abs(e0 - e1).max() <= 1e-6


def test_diamagnetic_monotonicity(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    lam_prev = None
    for b in (0.0, 0.5, 1.0, 2.0, 4.0):
        tube = make_tube(curve, sec, 0.1, delta=0.0, b=b)
        op = ops.assemble_full_2d(tube, axis_field if b else None, frame,
                                  shifted=False)
        lam1h, _ = ops.transverse_ground(sec)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.9 * lam1h / 0.01)
        lam = spec.eigenvalues[0]
        if lam_prev is not None:
            assert lam >= lam_prev - 1e-9
        if b == 0.0:
            lam_prev = lam  # diamagnetic floor: lam1(bB) >= lam1(0)


def test_effective_reduces_to_curvature_model(bent_setup):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    eff = ops.assemble_effective_2d(tube, None, frame=frame, include_K=False)
    ax = ops.axis_grid(curve)
    ref = ax.second_difference() + __import__("scipy.sparse", fromlist=["sp"]) \
        .diags(-0.25 * curve.kappa(ax.nodes) ** 2)
    assert abs(eff.matrix - ref).max() < 1e-14


def test_effective_positive_and_quadratic_scaling(straight_setup, axis_field):
    sec, curve, frame = straight_setup
    tube = make_tube(curve, sec, 0.1, delta=1.0)
    eff = ops.assemble_effective_2d(tube, axis_field, frame=frame,
                                    include_K=False)
    spec = ops.smallest_eigenpairs(eff, k=1, sigma=-0.5)
    assert spec.eigenvalues[0] >= 0.0  # kappa = 0: nonnegative potential
    doubled = geo.FrameAlignedField2D(
        geo.Profile((geo.Bump(0.5, 1.5, 1.2),)))
    eff2 = ops.assemble_effective_2d(tube, doubled, frame=frame,
                                     include_K=False)
    diag1 = eff.matrix.diagonal() - ops.axis_grid(curve).second_difference().diagonal()
    diag2 = eff2.matrix.diagonal() - ops.axis_grid(curve).second_difference().diagonal()
    # atol floor: subtracting the 2/ds^2 kinetic diagonal leaves ulp noise
    assert np.allclose(diag2, 4 * diag1, rtol=1e-12, atol=1e-12)


def test_effective_coefficient_sources(bent_setup, axis_field):
    from magtube.xsection import PRINTED_T2_COEFFICIENT, compute_constants

    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    c = compute_constants(sec)
    e_meas = ops.assemble_effective_2d(tube, axis_field, frame=frame,
                                       coefficient_source="measured")
    e_prt = ops.assemble_effective_2d(tube, axis_field, frame=frame,
                                      coefficient_source="printed")
    assert np.isclose(e_meas.meta["c_B"], c.moment2)
    assert np.isclose(e_prt.meta["c_B"], PRINTED_T2_COEFFICIENT)
    # the discrepancy is visible in the assembled potentials
    assert abs(e_prt.matrix - e_meas.matrix).max() > 0.05


def test_galerkin_fiber_matches_app_projection(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    app = ops.assemble_app_2d(tube, axis_field, frame, shifted=False)
    lam1h, J1h = ops.transverse_ground(sec)
    ax = ops.axis_grid(curve)
    fib = ops.fiber_project(app.matrix, J1h, ax.ns, sec.h)
    fib = fib - (lam1h / 0.1**2) * __import__("scipy.sparse", fromlist=["sp"]).eye(ax.ns)
    eff = ops.assemble_effective_2d(tube, axis_field, frame=frame,
                                    mode="galerkin", include_K=False)
    assert abs(fib - eff.matrix).max() < 1e-8


def test_smallest_eigenpairs_free_1d_box(bent_setup):
    sec, curve, frame = bent_setup
    straight = geo.CurveProfile(dim=2, S=10.0, ds=0.1)
    tube = make_tube(straight, sec, 0.1)
    eff = ops.assemble_effective_2d(tube, None, include_K=False)
    spec = ops.smallest_eigenpairs(eff, k=1, sigma=0.0)
    expect = (np.pi / (2 * straight.S)) ** 2
    assert abs(spec.eigenvalues[0] - expect) / expect < 1e-4


def test_effective_bump_has_negative_mode(bent_setup):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    eff = ops.assemble_effective_2d(tube, None, frame=frame, include_K=False)
    spec = ops.smallest_eigenpairs(eff, k=1, sigma=-0.4)
    assert spec.eigenvalues[0] < 0.0


def _bent_planar_tube():
    sec = grids.interval(1.0, 1 / 20)
    curve = geo.CurveProfile(dim=2, S=2.5, ds=0.1,
                             kappa=geo.Profile.single(0.0, 1.0, 0.8))
    frame = geo.integrate_frame(curve)
    field = geo.FrameAlignedField2D(geo.Profile.single(0.0, 1.0, 0.5))
    op = ops.assemble_full_2d(make_tube(curve, sec, 0.2), field, frame)
    return op.matrix, 0.0, None


def _square_hardy_segment():
    # complex 3D mixed Dirichlet/Neumann segment at the Hardy shift
    from magtube import hardy

    sec = grids.square(1.0, 0.25)
    bump = geo.TensorBump3((0.0, 3.0, 0.0), (8.0, 4.5, 8.0))
    field = geo.CurlPotentialField3D(((2, bump, 3.0),))
    seg = hardy.assemble_segment(sec, field, 1.0, R=1.0, ds=0.125)
    assert np.iscomplexobj(seg.op.matrix)
    return seg.op.matrix, 0.5 * seg.lam1_omega, None


def _coarse_hardy_pencil():
    # complex weighted Hardy pencil (H - lam1, W) on a coarse Dirichlet tube
    from magtube import hardy

    sec = grids.interval(1.0, 0.2)
    field = geo.AmbientField2D((((0.0, 0.0), 6.0, 1.0),))
    s = (-8.0 + 0.2 * np.arange(81))[1:-1]
    H = hardy._straight_tube_matrix(sec, field, 1.0, s, neumann_ends=False)
    A = H - ops.transverse_ground(sec)[0] * sp.eye(H.shape[0])
    assert np.iscomplexobj(A)
    return A, 0.0, sp.diags(np.repeat(1.0 / (1.0 + s**2), sec.n))


def test_dense_vs_sparse_paths():
    from magtube.assemble import lowest_eigenpairs

    for build in (_bent_planar_tube, _square_hardy_segment,
                  _coarse_hardy_pencil):
        matrix, sigma, M = build()
        v_dense, _, r_dense = lowest_eigenpairs(matrix, k=3, M=M,
                                                dense_threshold=10**9)
        v_sparse, _, r_sparse = lowest_eigenpairs(matrix, k=3, sigma=sigma,
                                                  M=M, dense_threshold=1)
        assert np.abs(v_dense - v_sparse).max() < 1e-10, build.__name__
        # residuals ||A v - lam M v|| at roundoff of the matrix's size
        scale = sla.norm(matrix, np.inf)
        assert max(r_dense.max(), r_sparse.max()) < 1e-12 * scale


def test_resolvent_distance_identical_operators(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.2)
    op = ops.assemble_full_2d(tube, axis_field, frame)
    d, info = ops.resolvent_distance(op, op)
    assert info["converged"]
    assert d < 1e-10


def test_resolvent_distance_decays(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    dists = []
    for eps in (0.2, 0.1):
        tube = make_tube(curve, sec, eps)
        opA = ops.assemble_full_2d(tube, axis_field, frame)
        opB = ops.assemble_effective_2d(tube, axis_field, frame=frame,
                                        mode="galerkin")
        d, _ = ops.resolvent_distance(opA, opB)
        dists.append(d)
    assert dists[1] < 0.75 * dists[0]


@pytest.fixture(scope="module")
def small_pair():
    """(full, galerkin effective) planar pair at (eps, delta), n = 1,121."""
    sec = grids.interval(1.0, 1 / 20)
    curve = geo.CurveProfile(dim=2, S=6.0, ds=0.1,
                             kappa=geo.Profile.single(0.0, 1.0, 0.8))
    frame = geo.integrate_frame(curve)
    field = geo.FrameAlignedField2D(geo.Profile.single(0.2, 1.0, 0.5))

    def pair(eps, delta):
        tube = make_tube(curve, sec, eps, delta=delta)
        return (ops.assemble_full_2d(tube, field, frame),
                ops.assemble_effective_2d(tube, field, frame=frame,
                                          mode="galerkin"))

    return pair


def test_resolvent_distance_restarts_from_its_maximizer(small_pair):
    tol = 1e-3
    opA, opB = small_pair(0.1, 1.0)
    cold, info = ops.resolvent_distance(opA, opB, tol=tol)
    assert info["converged"] and info["vector"].shape == (opA.n,)
    warm, warm_info = ops.resolvent_distance(opA, opB, tol=tol,
                                             v0=info["vector"])
    assert warm_info["converged"]
    assert abs(warm - cold) <= tol * cold
    assert warm_info["matvecs"] <= 10 < info["matvecs"]


def test_warm_distance_is_not_below_the_cold_one(small_pair):
    # both are Ritz values, so lower bounds of the norm; a start from the
    # neighbouring point's maximizer must not stop lower than a cold start
    tol = 1e-3
    maximizers, previous = {}, None
    for delta in (0.0, 1.0):
        for eps in (0.2, 0.1, 0.05):
            opA, opB = small_pair(eps, delta)
            cold, _ = ops.resolvent_distance(opA, opB, tol=tol)
            warm, info = ops.resolvent_distance(
                opA, opB, tol=tol, v0=maximizers.get(eps, previous))
            assert info["converged"]
            assert warm >= (1 - tol) * cold, (delta, eps)
            previous = maximizers[eps] = info["vector"]


def test_cold_resolvent_distance_starts_from_the_fiber(small_pair):
    # without v0 a full/effective pair starts from u_B (x) (J1 + w), which
    # lies near the maximizer; a seeded random start finds the same norm
    tol = 1e-3
    for eps in (0.2, 0.1):
        opA, opB = small_pair(eps, 0.0)
        dist, info = ops.resolvent_distance(opA, opB, tol=tol)
        assert info["converged"] and info["matvecs"] <= 15, eps
        v0 = np.random.default_rng(11).standard_normal(opA.n)
        ref, _ = ops.resolvent_distance(opA, opB, tol=tol, v0=v0)
        assert abs(dist - ref) <= tol * ref, eps


def test_resolvent_lanczos_out_of_iterations_raises(small_pair):
    # at k = 1 an unconverged ARPACK run has no Ritz pair to return
    from scipy.sparse.linalg import ArpackNoConvergence

    opA, opB = small_pair(0.1, 1.0)
    with pytest.raises(ArpackNoConvergence):
        ops.resolvent_distance(opA, opB, tol=1e-12, maxiter=1)


def test_truncation_doubling_stability(bent_setup):
    # with supports inside [-S/2, S/2], doubling S moves the bound state by
    # far less than 1e-6 relative (exponential decay)
    sec, curve, frame = bent_setup
    eps = 0.1
    lam = {}
    for S in (14.0, 28.0):
        c = geo.CurveProfile(dim=2, S=S, ds=0.05, kappa=curve.kappa)
        f = geo.integrate_frame(c)
        op = ops.assemble_full_2d(make_tube(c, sec, eps), None, f)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
        lam[S] = spec.eigenvalues[0] - op.shift
    assert abs(lam[28.0] - lam[14.0]) / abs(lam[14.0]) < 1e-6


def test_shift_constant_and_positivity(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    op = ops.assemble_full_2d(tube, axis_field, frame)
    K = op.meta["K"]
    assert K >= 2 * curve.sup_kappa() ** 2 / 4
    spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
    assert spec.eigenvalues[0] > 0.0  # shifted operator positive definite


def test_triplet_export_roundtrip(tmp_path, bent_setup, axis_field):
    sec, curve, frame = bent_setup
    op = ops.assemble_full_2d(make_tube(curve, sec, 0.2), axis_field, frame)
    path = tmp_path / "op.txt"
    save_triplets(op, path)
    mat, shift, meta = load_triplets(path)
    assert shift == op.shift
    assert abs(mat - op.matrix).max() < 1e-15
    assert meta["eps"] == "0.2"


def test_first_approximation_resolvent_decay(bent_setup, axis_field):
    # || (L_full + K)^-1 - (L_app + K)^-1 || = O(eps): the straight-metric
    # approximation differs by the metric factors and the gauge Taylor tail
    sec, curve, frame = bent_setup
    dists = []
    for eps in (0.2, 0.1, 0.05):
        tube = make_tube(curve, sec, eps)
        opA = ops.assemble_full_2d(tube, axis_field, frame)
        opB = ops.assemble_app_2d(tube, axis_field, frame)
        d, info = ops.resolvent_distance(opA, opB)
        assert info["converged"]
        dists.append(d)
    from magtube.fitting import fit_order

    fit = fit_order([0.2, 0.1, 0.05], dists)
    assert fit.slope >= 0.8


def test_assembly_warns_on_a_sampled_overlap():
    # the hairpin of test_validate_tube_hairpin_warning: the assembly runs
    # the overlap probe on the frame it holds and warns
    width = 2.0
    curve = geo.CurveProfile(dim=2, S=10.0, ds=0.05, kappa=geo.Profile.single(
        0.0, width, np.pi / (width * 0.888022)))
    tube = geo.TubeSpec(curve, grids.interval(1.0, 0.1),
                        RegimeParams(eps=0.45))
    with pytest.warns(UserWarning, match="approach"):
        op = ops.assemble_full_2d(tube, None)
    assert op.n == 399 * 19
