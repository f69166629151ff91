"""Full/approximate/effective planar operators, spectra, resolvent distances."""

import functools
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from magtube import geometry as geo, grids, operators as ops
from magtube.assemble import RegimeParams
from magtube.config import ExperimentConfig
from magtube.errors import EigensolverDiverged

from reference import assemble_app_2d, dirichlet_second_difference

PI24 = np.pi**2 / 4


def make_tube(curve, section, eps, delta=1.0, b=None, K=None):
    return geo.TubeSpec(curve, section,
                        RegimeParams(eps=eps, delta=delta, b=b, K=K))


def test_cov_link_matrix_rows_and_canonical_order():
    # links in either orientation, with a Dirichlet ghost at either end
    from magtube.assemble import cov_link_matrix, link_coefficients

    idx_l = np.array([0, 3, -1, 2, 4, -1])
    idx_r = np.array([1, 1, 2, -1, 3, -1])
    phases = np.linspace(0.1, 0.6, 6)
    for ph in (None, phases):
        D = cov_link_matrix(5, idx_l, idx_r, 0.1, ph)
        coef_l, coef_r = link_coefficients(6, 0.1, ph)
        want = np.zeros((6, 5), dtype=D.dtype)
        for k, (i, j) in enumerate(zip(idx_l, idx_r)):
            if i >= 0:
                want[k, i] = coef_l[k]
            if j >= 0:
                want[k, j] = coef_r[k]
        assert np.array_equal(D.toarray(), want)
        assert np.array_equal(D.indptr, [0, 2, 4, 5, 6, 8, 8])
        assert np.array_equal(D.indices, [0, 1, 1, 3, 2, 2, 3, 4])


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
    op = ops.assemble_full(make_tube(curve, sec, eps), None, frame,
                           shifted=False)
    lam1h, _ = ops.transverse_ground(sec)
    spec = ops.smallest_eigenpairs(op, k=1, sigma=0.95 * lam1h / eps**2)
    expect = lam1h / eps**2 + (np.pi / (2 * curve.S)) ** 2
    assert abs(spec.eigenvalues[0] - expect) / expect < 1e-6
    assert not op.is_complex


def test_app_equals_full_free_case(straight_setup):
    sec, curve, frame = straight_setup
    tube = make_tube(curve, sec, 0.1)
    a = ops.assemble_full(tube, None, frame, shifted=False)
    b = assemble_app_2d(tube, None, frame, shifted=False)
    assert abs(a.matrix - b.matrix).max() == 0.0


def test_bent_tube_bound_state(bent_setup):
    sec, curve, frame = bent_setup
    eps = 0.05
    op = ops.assemble_full(make_tube(curve, sec, eps), None, frame)
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
        op = ops.assemble_full(make_tube(curve, sec, eps), axis_field, frame)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
        lam = spec.eigenvalues[0] - op.shift
        errs.append(abs(eps**2 * lam - lam1h))
    assert errs[1] < errs[0]  # second-order trend checked in acceptance


def test_hermiticity_exact(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    for assemble in (ops.assemble_full, assemble_app_2d):
        op = assemble(make_tube(curve, sec, 0.1), axis_field, frame)
        assert op.hermiticity_defect() <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_gauge_covariance_exact(dim, bent_setup, axis_field):
    # a lattice gauge change is a unitary conjugation on the planar and the
    # untwisted spatial tube (a twisted one moves by O(ds^2))
    if dim == 2:
        sec, curve, frame = bent_setup
        field = axis_field
    else:
        sec = grids.square(1.0, 1 / 4)
        curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                                 kappa2=geo.Profile.single(0.0, 2.0, 0.5))
        frame = geo.integrate_frame(curve)
        field = geo.CurlPotentialField3D((
            (0, geo.TensorBump3((0.5, 0.0, 0.0), (2.5, 2.0, 2.0)), 0.8),
            (2, geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0)), 1.0),
        ))
    tube = make_tube(curve, sec, 0.1)
    op = ops.assemble_full(tube, field, frame)
    chi = lambda s: 0.7 * np.sin(0.6 * s) + 0.2 * s
    op_g = ops.assemble_full(tube, field, frame, gauge_chi=chi)
    assert abs(op_g.matrix - op.matrix).max() > 0.1
    e0 = ops.smallest_eigenpairs(op, k=3, sigma=0.0).eigenvalues
    e1 = ops.smallest_eigenpairs(op_g, k=3, sigma=0.0).eigenvalues
    assert np.abs(e0 - e1).max() <= 1e-6


def test_diamagnetic_monotonicity(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    lam_prev = None
    for b in (0.0, 0.5, 1.0, 2.0, 4.0):
        tube = make_tube(curve, sec, 0.1, delta=0.0, b=b)
        op = ops.assemble_full(tube, axis_field if b else None, frame,
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
    tube = make_tube(curve, sec, 0.1, K=0.0)
    eff = ops.assemble_effective(tube, None, frame=frame)
    ax = ops.axis_grid(curve)
    ref = dirichlet_second_difference(ax.ns, ax.ds) \
        + sp.diags(-0.25 * curve.kappa(ax.nodes) ** 2)
    assert abs(eff.matrix - ref).max() < 1e-14


def test_effective_positive_and_quadratic_scaling(straight_setup, axis_field):
    sec, curve, frame = straight_setup
    tube = make_tube(curve, sec, 0.1, delta=1.0, K=0.0)
    eff = ops.assemble_effective(tube, axis_field, frame=frame)
    spec = ops.smallest_eigenpairs(eff, k=1, sigma=-0.5)
    assert spec.eigenvalues[0] >= 0.0  # kappa = 0: nonnegative potential
    doubled = geo.FrameAlignedField2D(
        geo.Profile((geo.Bump(0.5, 1.5, 1.2),)))
    eff2 = ops.assemble_effective(tube, doubled, frame=frame)
    ax = ops.axis_grid(curve)
    kinetic = dirichlet_second_difference(ax.ns, ax.ds).diagonal()
    diag1 = eff.matrix.diagonal() - kinetic
    diag2 = eff2.matrix.diagonal() - kinetic
    # atol floor: subtracting the 2/ds^2 kinetic diagonal leaves ulp noise
    assert np.allclose(diag2, 4 * diag1, rtol=1e-12, atol=1e-12)


def test_effective_coefficient_sources(bent_setup, axis_field):
    from magtube.xsection import PRINTED_T2_COEFFICIENT, compute_constants

    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    c = compute_constants(sec)
    e_meas = ops.assemble_effective(tube, axis_field, frame=frame,
                                    coefficient_source="measured")
    e_prt = ops.assemble_effective(tube, axis_field, frame=frame,
                                   coefficient_source="printed")
    assert np.isclose(e_meas.meta["c_B"], c.moment2)
    assert np.isclose(e_prt.meta["c_B"], PRINTED_T2_COEFFICIENT)
    # the discrepancy is visible in the assembled potentials
    assert abs(e_prt.matrix - e_meas.matrix).max() > 0.05
    # a misspelled source ran the printed coefficient
    with pytest.raises(ValueError, match="'measurd'"):
        ops.assemble_effective(tube, axis_field, frame=frame,
                               coefficient_source="measurd")


def test_effective_rejects_an_unknown_mode(bent_setup, axis_field):
    # a misspelled mode ran the coefficient model and reported the typo
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    with pytest.raises(ValueError, match="'galerkn'"):
        ops.assemble_effective(tube, axis_field, frame=frame, mode="galerkn")


def test_galerkin_effective_below_delta_1_does_not_depend_on_eps():
    # the fiber projection of the whole straight tube carried eps^-2 lam1h
    # and took it off again, leaving 5.4e-10 of roundoff at eps = 0.025
    root = Path(__file__).resolve().parent.parent
    cfg = ExperimentConfig.load(str(root / "configs" / "nrc2d.ini"))
    sec, curve, field = cfg.build_section(), cfg.build_curve(), cfg.build_field()
    frame = geo.integrate_frame(curve)

    def galerkin(eps):
        return ops.assemble_effective(make_tube(curve, sec, eps, delta=0.0),
                                      field, frame=frame,
                                      mode="galerkin").matrix

    assert abs(galerkin(0.2) - galerkin(0.025)).max() == 0.0


def test_galerkin_fiber_matches_app_projection(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1, K=0.0)
    app = assemble_app_2d(tube, axis_field, frame, shifted=False)
    lam1h, J1h = ops.transverse_ground(sec)
    ax = ops.axis_grid(curve)
    fib = ops.fiber_project(app.matrix, J1h, ax.ns, sec.h)
    fib = fib - (lam1h / 0.1**2) * __import__("scipy.sparse", fromlist=["sp"]).eye(ax.ns)
    eff = ops.assemble_effective(tube, axis_field, frame=frame,
                                 mode="galerkin")
    assert abs(fib - eff.matrix).max() < 1e-8


def test_smallest_eigenpairs_free_1d_box(bent_setup):
    sec, curve, frame = bent_setup
    straight = geo.CurveProfile(dim=2, S=10.0, ds=0.1)
    tube = make_tube(straight, sec, 0.1, K=0.0)
    eff = ops.assemble_effective(tube, None)
    spec = ops.smallest_eigenpairs(eff, k=1, sigma=0.0)
    expect = (np.pi / (2 * straight.S)) ** 2
    assert abs(spec.eigenvalues[0] - expect) / expect < 1e-4


def test_effective_bump_has_negative_mode(bent_setup):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1, K=0.0)
    eff = ops.assemble_effective(tube, None, frame=frame)
    spec = ops.smallest_eigenpairs(eff, k=1, sigma=-0.4)
    assert spec.eigenvalues[0] < 0.0


def _bent_planar_tube():
    sec = grids.interval(1.0, 1 / 20)
    curve = geo.CurveProfile(dim=2, S=2.5, ds=0.1,
                             kappa=geo.Profile.single(0.0, 1.0, 0.8))
    frame = geo.integrate_frame(curve)
    field = geo.FrameAlignedField2D(geo.Profile.single(0.0, 1.0, 0.5))
    op = ops.assemble_full(make_tube(curve, sec, 0.2), field, frame)
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


def _far_shifted_hardy_pencil():
    # the coarse Hardy pencil shifted far below its spectrum, where three
    # pairs take more applications than one Lanczos basis holds
    A, _, M = _coarse_hardy_pencil()
    return A, -4.0, M


def test_sparse_path_matches_dense_reference(monkeypatch):
    from magtube import assemble

    applications = []
    body = assemble.lanczos

    def counted(*args):
        theta, Y, used = body(*args)
        applications.append(used)
        return theta, Y, used

    monkeypatch.setattr(assemble, "lanczos", counted)
    for build, restarts in ((_bent_planar_tube, False),
                            (_square_hardy_segment, True),
                            (_coarse_hardy_pencil, False),
                            (_far_shifted_hardy_pencil, True)):
        matrix, sigma, M = build()
        v_dense = la.eigh(matrix.toarray(), None if M is None else M.toarray(),
                          eigvals_only=True, subset_by_index=[0, 2])
        v_sparse, _, r_sparse = assemble.lowest_eigenpairs(
            matrix, k=3, sigma=sigma, M=M)
        assert np.abs(v_dense - v_sparse).max() < 1e-10, build.__name__
        # a thick restart ran when the applications outnumber the basis rows
        assert (applications[-1] > assemble.LANCZOS_ROWS) == restarts
        # residuals ||A v - lam M v|| at roundoff of the matrix's size
        scale = sla.norm(matrix, np.inf)
        assert r_sparse.max() < 1e-12 * scale


def test_resolvent_distance_identical_operators(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.2)
    op = ops.assemble_full(tube, axis_field, frame)
    d, info = ops.resolvent_distance(op, op)
    assert info["converged"]
    assert d < 1e-10


def test_resolvent_distance_decays(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    dists = []
    for eps in (0.2, 0.1):
        tube = make_tube(curve, sec, eps)
        opA = ops.assemble_full(tube, axis_field, frame)
        opB = ops.assemble_effective(tube, axis_field, frame=frame,
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
        return (ops.assemble_full(tube, field, frame),
                ops.assemble_effective(tube, field, frame=frame,
                                       mode="galerkin"))

    return pair


def test_resolvent_distance_restarts_from_its_maximizer(small_pair):
    # a restart from the maximizer stops within a few applications, where a
    # seeded random start takes many (the cold channel start takes 5)
    tol = 1e-3
    opA, opB = small_pair(0.1, 1.0)
    cold, info = ops.resolvent_distance(opA, opB, tol=tol)
    assert info["converged"] and info["vector"].shape == (opA.n,)
    warm, warm_info = ops.resolvent_distance(opA, opB, tol=tol,
                                             v0=info["vector"])
    assert warm_info["converged"]
    assert abs(warm - cold) <= tol * cold
    v0 = np.random.default_rng(11).standard_normal(opA.n)
    _, random_info = ops.resolvent_distance(opA, opB, tol=tol, v0=v0)
    assert warm_info["matvecs"] <= 10 < random_info["matvecs"]


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
    # without v0 a full/effective pair starts from the channel-Galerkin
    # maximizer on span{J1, tau J1} (x) axis, which lies near the maximizer
    # (3 applications at both eps, as measured when that start went in); a
    # seeded random start finds the same norm
    tol = 1e-3
    for eps in (0.2, 0.1):
        opA, opB = small_pair(eps, 0.0)
        dist, info = ops.resolvent_distance(opA, opB, tol=tol)
        assert info["converged"] and info["matvecs"] <= 3, eps
        v0 = np.random.default_rng(11).standard_normal(opA.n)
        ref, _ = ops.resolvent_distance(opA, opB, tol=tol, v0=v0)
        assert abs(dist - ref) <= tol * ref, eps


def test_resolvent_lanczos_out_of_iterations_raises(small_pair):
    # maxiter = 1 allows only the probe, whose Rayleigh quotient is far from
    # an eigenvalue at tol = 1e-12
    opA, opB = small_pair(0.1, 1.0)
    with pytest.raises(EigensolverDiverged, match="1 applications"):
        ops.resolvent_distance(opA, opB, tol=1e-12, maxiter=1)


def _difference(opA, opB):
    """x -> A^-1 x - E B^-1 E* x by SuperLU, independent of the band
    factor that resolvent_distance applies."""
    solve_A, solve_B = (sla.splu(op.matrix.astype(complex).tocsc()).solve
                        for op in (opA, opB))
    E = ops.fiber_embedding(opA.meta["J1h"], opB.n)
    dvol = opA.grid["section"].h

    def apply(x):
        x = x.astype(complex)
        return solve_A(x) - E @ solve_B(dvol * (E.getH() @ x))

    return apply


def test_resolvent_lanczos_stops_at_a_true_residual_below_tol(small_pair):
    # ||D y - theta y||, recomputed with one independent application, meets
    # the stopping rule for a warm, a fiber and a random start
    tol = 1e-3
    opA, opB = small_pair(0.1, 0.5)
    warm = ops.resolvent_distance(*small_pair(0.2, 0.5), tol=tol)[1]["vector"]
    random = np.random.default_rng(5).standard_normal(opA.n)
    apply = _difference(opA, opB)
    for name, v0 in (("warm", warm), ("fiber", None), ("random", random)):
        dist, info = ops.resolvent_distance(opA, opB, tol=tol, v0=v0)
        y = info["vector"]
        assert abs(np.linalg.norm(y) - 1) < 1e-12, name
        Dy = apply(y)
        theta = np.copysign(dist, np.vdot(y, Dy).real)
        assert np.linalg.norm(Dy - theta * y) <= tol * dist, name


def test_resolvent_lanczos_from_an_eigenvector_stops_at_once(small_pair):
    opA, opB = small_pair(0.1, 1.0)
    ref, info = ops.resolvent_distance(opA, opB, tol=1e-10)
    dist, again = ops.resolvent_distance(opA, opB, tol=1e-3,
                                         v0=info["vector"])
    assert again["matvecs"] <= 2
    assert abs(dist - ref) <= 1e-10 * ref


# Applications of the difference in the sweep below, as measured when the
# channel-Galerkin start went in (99 with the per-step stopping rule and
# warm starts from the neighbouring point; ARPACK's eigsh took 174)
SWEEP_APPLICATIONS = 27


def test_resolvent_lanczos_sweep_application_count(small_pair):
    # the delta x eps sweep with the nrc-sweep runner's cold starts; each
    # application is one banded solve pair, so this counts the sweep's cost
    total = 0
    for delta in (0.0, 0.5, 1.0):
        for eps in (0.2, 0.1, 0.05):
            opA, opB = small_pair(eps, delta)
            _, info = ops.resolvent_distance(opA, opB, tol=1e-3)
            total += info["matvecs"]
    assert total <= SWEEP_APPLICATIONS


def test_truncation_doubling_stability(bent_setup):
    # with supports inside [-S/2, S/2], doubling S moves the bound state by
    # far less than 1e-6 relative (exponential decay)
    sec, curve, frame = bent_setup
    eps = 0.1
    lam = {}
    for S in (14.0, 28.0):
        c = geo.CurveProfile(dim=2, S=S, ds=0.05, kappa=curve.kappa)
        f = geo.integrate_frame(c)
        op = ops.assemble_full(make_tube(c, sec, eps), None, f)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
        lam[S] = spec.eigenvalues[0] - op.shift
    assert abs(lam[28.0] - lam[14.0]) / abs(lam[14.0]) < 1e-6


def test_shift_constant_and_positivity(bent_setup, axis_field):
    sec, curve, frame = bent_setup
    tube = make_tube(curve, sec, 0.1)
    op = ops.assemble_full(tube, axis_field, frame)
    K = op.meta["K"]
    assert K >= 2 * curve.sup_kappa() ** 2 / 4
    spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
    assert spec.eigenvalues[0] > 0.0  # shifted operator positive definite


def test_first_approximation_resolvent_decay(bent_setup, axis_field):
    # || (L_full + K)^-1 - (L_app + K)^-1 || = O(eps): the straight-metric
    # approximation differs by the metric factors and the gauge Taylor tail
    sec, curve, frame = bent_setup
    dists = []
    for eps in (0.2, 0.1, 0.05):
        tube = make_tube(curve, sec, eps)
        opA = ops.assemble_full(tube, axis_field, frame)
        opB = assemble_app_2d(tube, axis_field, frame)
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
        op = ops.assemble_full(tube, None)
    assert op.n == 399 * 19


def test_overlap_distances_are_built_once_per_skeleton(monkeypatch):
    # the hairpin again: across an eps sweep on one skeleton the frame's
    # pair distances are built once, and each evaluation warns exactly as
    # validate_tube does on a frame of its own
    builds = []
    build = geo.FrameTrajectory.overlap_pairs.func

    def counting(frame):
        builds.append(frame)
        return build(frame)

    counted = functools.cached_property(counting)
    counted.__set_name__(geo.FrameTrajectory, "overlap_pairs")
    monkeypatch.setattr(geo.FrameTrajectory, "overlap_pairs", counted)
    width = 2.0
    curve = geo.CurveProfile(dim=2, S=10.0, ds=0.05, kappa=geo.Profile.single(
        0.0, width, np.pi / (width * 0.888022)))
    sec = grids.interval(1.0, 0.1)
    skeleton = ops.TubeSkeleton(curve, sec, geo.integrate_frame(curve), None)
    messages = []
    for eps in (0.45, 0.2, 0.05, 0.01):
        tube = geo.TubeSpec(curve, sec, RegimeParams(eps=eps))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ops.assemble_full(tube, None, skeleton=skeleton)
        want = geo.validate_tube(tube, frame=geo.integrate_frame(curve))
        assert [str(w.message) for w in caught] == want.messages
        messages += want.messages
    # the closest pair flagged moves with eps; at eps = 0.01 none is
    assert len(set(messages)) == len(messages) == 3
    assert builds[0] is skeleton.frame and len(builds) == 1 + 4
