"""Hardy constants, weighted certification, stability experiments."""

import gc
import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from magtube import geometry as geo, grids, hardy
from magtube.assemble import RegimeParams
from magtube.errors import DeformationTooLarge, ZeroFieldWarning

from reference import cutoff_pair


@pytest.fixture(scope="module")
def sec2d():
    return grids.interval(1.0, 1 / 20)


@pytest.fixture(scope="module")
def field2d():
    # nonvanishing on Omega(2): a single wide bump
    return geo.AmbientField2D((((0.0, 0.0), 6.0, 1.0),))


def test_cutoff_pair_properties():
    s = np.linspace(-2, 2, 4001)
    chi0, chi1 = cutoff_pair(s)
    assert np.allclose(chi0**2 + chi1**2, 1.0, atol=1e-14)
    inner = np.abs(s) <= 0.5
    assert np.abs(chi0[inner]).max() == 0.0
    outer = np.abs(s) >= 1.0
    assert np.allclose(chi0[outer], 1.0)
    C = hardy.cutoff_constant()
    assert abs(C - (1.5 * np.pi) ** 2) < 1e-6  # cubic ramp peak


def test_segment_zero_field_gap(sec2d, field2d):
    with pytest.warns(ZeroFieldWarning):
        seg = hardy.assemble_segment(sec2d, field2d, 0.0, R=2.0, ds=0.05)
    assert abs(seg.gap) < 1e-10  # constant Neumann longitudinal mode


def test_zero_field_segment_needs_no_solve(sec2d, field2d, monkeypatch):
    # 1 (x) J1 is an exact eigenvector of the zero-field segment: the
    # Neumann s-Laplacian annihilates constants
    def refuse(*args, **kwargs):
        raise AssertionError("no eigensolve expected")

    monkeypatch.setattr(hardy, "lowest_eigenpairs", refuse)
    for b, field in ((0.0, field2d), (1.0, None)):
        with pytest.warns(ZeroFieldWarning):
            seg = hardy.assemble_segment(sec2d, field, b, R=2.0, ds=0.05)
        assert seg.lam1_dn == seg.lam1_omega


def test_coarse_segment_avoids_dense_eigensolvers(field2d, monkeypatch):
    # 41 s-nodes x 39 section nodes = 1,599 unknowns: a dense eigh of the
    # whole matrix takes seconds here for one eigenvalue, the banded solve
    # hundredths of a second.  Lanczos solves its projected matrix, of at
    # most LANCZOS_ROWS rows, densely.
    from magtube.assemble import LANCZOS_ROWS

    def refusing(eigh):
        def refuse(a, *args, **kwargs):
            if len(a) > LANCZOS_ROWS:
                raise AssertionError("dense eigensolver called")
            return eigh(a, *args, **kwargs)

        return refuse

    monkeypatch.setattr(np.linalg, "eigh", refusing(np.linalg.eigh))
    monkeypatch.setattr(la, "eigh", refusing(la.eigh))
    seg = hardy.assemble_segment(grids.interval(1.0, 0.05), field2d, 1.0,
                                 R=2.0, ds=0.1)
    assert seg.op.n == 1599
    assert seg.gap > 1e-3


def test_segment_diamagnetic_strictness(sec2d, field2d):
    seg = hardy.assemble_segment(sec2d, field2d, 1.0, R=2.0, ds=0.05)
    assert seg.gap > 1e-3


def test_segment_self_convergence(sec2d, field2d):
    vals = {}
    for ds in (0.1, 0.05, 0.025):
        sec = grids.interval(1.0, ds)
        seg = hardy.assemble_segment(sec, field2d, 1.0, R=2.0, ds=ds)
        vals[ds] = seg.lam1_dn
    # dyadic refinement: error shrinks ~4x per halving
    d1 = abs(vals[0.1] - vals[0.05])
    d2 = abs(vals[0.05] - vals[0.025])
    assert d2 < 0.4 * d1


def test_hardy_constant_structure(sec2d, field2d):
    R = 2.0
    C = hardy.cutoff_constant()
    limit = 0.25 / (1 + C / R**2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c0 = hardy.hardy_constant(sec2d, field2d, 0.0, R)
    assert c0.c_R == 0.0
    for b in (0.5, 2.0, 6.0):
        cert = hardy.hardy_constant(sec2d, field2d, b, R)
        assert 0.0 <= cert.c_R <= 0.25
        assert cert.c_R <= limit + 1e-15
    big = hardy.hardy_constant(sec2d, field2d, 6.0, R)
    assert abs(big.c_R - limit) / limit < 1e-10  # saturated min(1/4, gap)


def test_small_b_quadratic_law(sec2d, field2d):
    ratios = []
    for b in (0.05, 0.1):
        cert = hardy.hardy_constant(sec2d, field2d, b, 2.0)
        ratios.append(cert.c_R / b**2)
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.25


def test_verify_hardy_certificate(sec2d, field2d):
    from magtube.operators import transverse_ground

    cert = hardy.verify_hardy(sec2d, field2d, 1.0, R=2.0, L=10.0, ds=0.05)
    assert cert.passed
    assert cert.mu_min >= cert.c_R
    # pencil two-route agreement at coarse resolution: the dense generalized
    # eigenvalue of (H - lam1, W) built here
    coarse = grids.interval(1.0, 0.2)
    L, ds = 8.0, 0.2
    cert_c = hardy.verify_hardy(coarse, field2d, 1.0, R=2.0, L=L, ds=ds)
    s = (-L + ds * np.arange(int(round(2 * L / ds)) + 1))[1:-1]
    H = hardy._straight_tube_matrix(coarse, field2d, 1.0, s, False).toarray()
    A = H - transverse_ground(coarse)[0] * np.eye(len(H))
    W = np.diag(np.repeat(1.0 / (1.0 + s**2), coarse.n))
    mu_dense = la.eigh(A, W, eigvals_only=True, subset_by_index=(0, 0))[0]
    assert abs(cert_c.mu_min - mu_dense) < 1e-6 * max(1.0, abs(mu_dense))


def test_verify_hardy_on_a_long_tube(field2d):
    # at L = 40 the first difference of the s-nodes is 0.05000000000000426;
    # a straight curve built on that spacing had no frame sample at s = 0
    # ("grid must contain 0"); the curve now takes the mean node spacing
    section = grids.interval(1.0, 0.05)
    cert = hardy.verify_hardy(section, field2d, 1.0, R=2.0, L=40.0, ds=0.05)
    assert cert.passed
    assert cert.mu_min >= cert.c_R > 0


def test_mu_min_monotone_in_L(sec2d, field2d):
    mus = []
    for L in (8.0, 12.0):
        cert = hardy.verify_hardy(sec2d, field2d, 1.0, R=2.0, L=L, ds=0.05)
        mus.append(cert.mu_min)
    assert mus[1] <= mus[0] + 1e-10  # larger trial space can only lower it


@pytest.fixture
def band_solves(monkeypatch, sec2d):
    """Counts applications of the banded Cholesky solves (each application
    of a shift-invert eigensolve) made while the test runs, one entry per
    factor in the order of factoring.  The ground pair of ``sec2d`` is
    computed first, so its own eigensolve is not counted, whatever ran
    before."""
    from magtube import assemble
    from magtube.operators import transverse_ground

    transverse_ground(sec2d)
    counts = []
    factor = assemble.banded_cholesky

    def counting(matrix, **kwargs):
        solve = factor(matrix, **kwargs)
        counts.append(0)
        which = len(counts) - 1

        def counted(rhs):
            counts[which] += 1
            return solve(rhs)

        return counted

    monkeypatch.setattr(assemble, "banded_cholesky", counting)
    return counts


def test_hardy_eigensolves_start_from_the_fiber(sec2d, field2d, band_solves):
    # a shift just below the diamagnetic floor and a start in the J1 fiber
    # let Lanczos stop after 8-9 solves per eigensolve (ARPACK from a random
    # start took 21)
    hardy.assemble_segment(sec2d, field2d, 1.0, R=2.0, ds=0.05)
    assert sum(band_solves) <= 12
    band_solves.clear()
    hardy.verify_hardy(sec2d, field2d, 1.0, R=2.0, L=8.0, ds=0.05)
    assert sum(band_solves) <= 24  # the segment's solves and the pencil's


def test_zero_field_pencil_separates(sec2d, field2d):
    # at b = 0 the pencil is J1 (x) the 1D weighted Dirichlet pencil; the
    # segment solve inside starts from its exact eigenvector 1 (x) J1
    from reference import dirichlet_second_difference

    L, ds = 8.0, 0.05
    with pytest.warns(ZeroFieldWarning):
        cert = hardy.verify_hardy(sec2d, field2d, 0.0, R=2.0, L=L, ds=ds)
    s = (-L + ds * np.arange(int(round(2 * L / ds)) + 1))[1:-1]
    D = dirichlet_second_difference(len(s), ds).toarray()
    mu = la.eigh(D, np.diag(1.0 / (1.0 + s**2)), eigvals_only=True,
                 subset_by_index=(0, 0))[0]
    assert abs(cert.mu_min - mu) <= 1e-9 * mu
    assert cert.c_R == 0.0


def test_verify_requires_long_tube(sec2d, field2d):
    with pytest.raises(ValueError):
        hardy.verify_hardy(sec2d, field2d, 1.0, R=2.0, L=4.0)


def test_deformed_tube_zero_amplitude(sec2d, field2d):
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0))
    rep = hardy.deformation_experiment(sec2d, field2d, 1.0, dspec, [0.0],
                                       L=12.0, ds=0.1)
    row = rep["rows"][0]
    assert not row["below"]
    assert row["lam1"] >= rep["lam1_omega"]  # field only lifts the energy
    # without the field, the undeformed tube sits at the free threshold
    rep0 = hardy.deformation_experiment(sec2d, None, 0.0, dspec, [0.0],
                                        L=12.0, ds=0.1)
    assert abs(rep0["rows"][0]["lam1"] - rep0["lam1_omega"]) < rep0["budget"]


def test_deformation_with_field_stays_above(sec2d, field2d):
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0),
                                  E1=geo.Profile.single(1.0, 2.0, 0.3))
    rep = hardy.deformation_experiment(sec2d, field2d, 1.0, dspec,
                                       [0.05, 0.1, 0.2, 0.4], L=12.0, ds=0.1)
    assert all(not r["below"] for r in rep["rows"])
    assert rep["admissible"] == [0.05, 0.1, 0.2, 0.4]


def test_deformation_injectivity_guard(sec2d, field2d):
    dspec = hardy.DeformationSpec(E1=geo.Profile.single(0.0, 2.0, 1.0))
    with pytest.raises(DeformationTooLarge):
        # amplitude driving 1 + a E1' through zero
        hardy.deformation_experiment(sec2d, field2d, 1.0, dspec, [1.5],
                                     L=12.0, ds=0.1)


def test_pure_reparametrization_is_inert(sec2d, field2d):
    # e2 = 0, E1 compact: the image domain is the unchanged straight strip,
    # so the lowest eigenvalue matches the undeformed tube to solver accuracy
    dspec = hardy.DeformationSpec(E1=geo.Profile.single(0.0, 2.5, 0.5))
    rep = hardy.deformation_experiment(sec2d, None, 0.0, dspec, [0.0, 0.5],
                                       L=12.0, ds=0.1)
    lam0 = rep["rows"][0]["lam1"]
    lam1 = rep["rows"][1]["lam1"]
    assert abs(lam1 - lam0) < 5e-3


def test_deformation_solve_releases_its_factor(sec2d, field2d):
    # complex generalized shift-invert: the band factor, held by the solve's
    # closure, must not outlive the call, say in a reference cycle
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0))
    gc.collect()
    gc.disable()
    try:
        hardy.deformation_experiment(sec2d, field2d, 1.0, dspec, [0.1],
                                     L=6.0, ds=0.1)
        alive = [o for o in gc.get_objects()
                 if getattr(o, "__qualname__", None)
                 == "banded_cholesky.<locals>.solve"]
    finally:
        gc.enable()
    assert alive == []


def test_straight_gauges_one_call_match_per_line_loop(sec2d, field2d,
                                                       per_line_gauges):
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0),
                                  E1=geo.Profile.single(1.0, 2.0, 0.3))

    def gauged():
        H, _, _ = hardy.assemble_deformed_tube(sec2d, field2d, 1.0, dspec,
                                               0.2, L=4.0)
        return H

    H = gauged()
    per_line_gauges()
    assert (H != gauged()).nnz == 0


def _cellgrad_deformed_tube(section, field, b, deformation, amplitude, L,
                            ds):
    """The deformed tube with its cross term built on a padded node-index
    grid, one cellgrad loop per gradient: the reference for the plaquette
    view of TubeLattice."""
    from magtube.assemble import cov_link_matrix, form_term
    from magtube.operators import TubeLattice

    s_nodes = (-L + ds * np.arange(int(round(2 * L / ds)) + 1))[1:-1]
    tau = section.node_coords()
    dtau = section.h
    ns, nt = len(s_nodes), len(tau)
    n = ns * nt

    def metric(s, t):
        d11, d21 = deformation.map_jacobian(amplitude, s, t)
        return d11, 1.0 / d11, -d21 / d11, (d11**2 + d21**2) / d11

    zero_field = field is None or field.is_zero() or b == 0.0

    def gauge_ref(s_pts, t_pts):
        step = dtau / 4
        lo = min(t_pts.min(), 0.0) - dtau
        hi = max(t_pts.max(), 0.0) + dtau
        tf = lo + step * np.arange(int(np.ceil((hi - lo) / step)) + 1)
        tf = tf - tf[np.argmin(np.abs(tf))]
        Sg, Tg = np.meshgrid(s_pts, tf, indexing="ij")
        pos = np.stack([Sg + amplitude * deformation.E1(Sg),
                        Tg + amplitude * deformation.e2(Sg)], axis=-1)
        Bref = (1.0 + amplitude * deformation.E1.d1(Sg)) * field.value(pos)
        A1f = -geo._cumint_from_zero(Bref, tf, axis=1)
        return A1f[:, np.rint((t_pts - tf[0]) / step).astype(int)]

    lat = TubeLattice(s_nodes, section, ds=ds)
    phases = None
    if not zero_field:
        phases = (ds * b * gauge_ref(lat.mids, tau)).ravel()
    _, w11_e, _, _ = metric(np.repeat(lat.mids, nt), np.tile(tau, ns + 1))
    H = form_term(lat.axis_factor(phases), weights=w11_e)
    il, ir, t_mids = lat.section_links(0)
    _, _, _, w22_e = metric(np.repeat(s_nodes, len(t_mids)),
                            np.tile(t_mids, ns))
    H = H + form_term(cov_link_matrix(n, il, ir, dtau), weights=w22_e)
    node_idx = -np.ones((ns + 2, nt + 2), dtype=np.int64)
    node_idx[1:-1, 1:-1] = np.arange(n).reshape(ns, nt)
    ncell = (ns + 1) * (nt + 1)
    ci = np.repeat(np.arange(ns + 1), nt + 1)
    cj = np.tile(np.arange(nt + 1), ns + 1)
    ll, rl, lr, rr = (node_idx[ci + di, cj + dj] for di, dj in
                      ((0, 0), (1, 0), (0, 1), (1, 1)))
    sc = np.concatenate([[s_nodes[0] - ds], s_nodes]) + ds / 2
    tc = np.concatenate([[tau[0] - dtau], tau]) + dtau / 2
    _, _, w12_c, _ = metric(np.repeat(sc, nt + 1), np.tile(tc, ns + 1))
    eip = np.ones(ncell) if zero_field else np.exp(
        1j * (ds * b * gauge_ref(sc, tc)).ravel())

    def cellgrad(pairs, h, phase):
        rows, cols, vals = [], [], []
        for (a_idx, b_idx) in pairs:
            for idx_arr, coef in ((b_idx, (-1j / h) * 0.5 * phase),
                                  (a_idx, (1j / h) * 0.5 * np.ones(ncell))):
                ok = idx_arr >= 0
                rows.append(np.nonzero(ok)[0])
                cols.append(idx_arr[ok])
                vals.append(np.broadcast_to(coef, (ncell,))[ok])
        return sp.csr_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(ncell, n))

    Gs = cellgrad(((ll, rl), (lr, rr)), ds, eip)
    Gt = cellgrad(((ll, lr), (rl, rr)), dtau, np.ones(ncell))
    H = H + (Gs.getH() @ sp.diags(w12_c) @ Gt
             + Gt.getH() @ sp.diags(w12_c) @ Gs)
    d11n, _ = deformation.map_jacobian(amplitude, np.repeat(s_nodes, nt),
                                       np.tile(tau, ns))
    return H.tocsr(), d11n


@pytest.mark.parametrize("E1", [geo.Profile(), geo.Profile.single(1.0, 2.0, 0.3)],
                         ids=["E1_zero", "E1_bump"])
@pytest.mark.parametrize("b", [0.0, 1.0])
@pytest.mark.parametrize("amplitude", [0.2, 0.4])
def test_deformed_tube_matches_the_cellgrad_cross_term(sec2d, amplitude, b,
                                                       E1):
    field = geo.AmbientField2D((((0.0, 0.0), 8.0, 1.0),))
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0), E1=E1)
    H, mass, _ = hardy.assemble_deformed_tube(sec2d, field, b, dspec,
                                              amplitude, L=6.0, ds=0.08)
    H_ref, d11 = _cellgrad_deformed_tube(sec2d, field, b, dspec, amplitude,
                                         6.0, 0.08)
    assert H.dtype == H_ref.dtype
    assert (H != H_ref).nnz == 0
    assert np.array_equal(mass.diagonal(), d11)


@pytest.mark.parametrize("call, extent", [
    (lambda sec, f: hardy.assemble_segment(sec, f, 1.0, R=1.03, ds=0.05),
     "2.06"),
    (lambda sec, f: hardy.verify_hardy(sec, f, 1.0, R=2.0, L=8.03, ds=0.1),
     "16.06"),
    (lambda sec, f: hardy.assemble_deformed_tube(
        sec, f, 1.0, hardy.DeformationSpec(), 0.1, L=6.03, ds=0.1), "12.06"),
], ids=["segment", "verify", "deformed"])
def test_straight_tubes_reject_a_ds_that_does_not_subdivide(sec2d, field2d,
                                                            call, extent):
    # the node count is not rounded: a tube (-L, L - ds/3) built with the
    # truncation budget of L, or an error about the curve's S, is a bug
    with pytest.raises(ValueError, match=f"does not subdivide extent {extent}"):
        call(sec2d, field2d)


LARGE_B = [0.0, 0.5, 1.0, 2.0, 4.0]


@pytest.fixture(scope="module")
def bent_tube(sec2d):
    # eps = 1 tube: sup|kappa| must stay below 1 for injectivity
    curve = geo.CurveProfile(dim=2, S=20.0, ds=0.08,
                             kappa=geo.Profile.single(0.0, 2.0, 0.85))
    field = geo.AmbientField2D((((0.0, 0.0), 8.0, 1.0),))
    tube = geo.TubeSpec(curve, sec2d, RegimeParams(eps=1.0, delta=0.0, b=0.0))
    return tube, field


@pytest.fixture(scope="module")
def large_b_report(bent_tube):
    tube, field = bent_tube
    return hardy.large_b_experiment(tube, field, LARGE_B)


def test_large_b_experiment(large_b_report):
    rep = large_b_report
    rows = rep["rows"]
    # b = 0: curvature-induced bound state below threshold minus budget
    assert rows[0]["lam1"] < rep["lam1_omega"] - rep["budget"]
    assert not rows[0]["empty"]
    # ground energy nondecreasing along the schedule (field covers the bend)
    lams = [r["lam1"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
    assert rep["conclusive"]
    assert rows[-1]["empty"]


def test_large_b_crossing_needs_an_empty_tail(sec2d, monkeypatch):
    # the crossing is the smallest b from which every later row is empty,
    # not the first empty row
    from magtube.operators import transverse_ground

    lam1 = transverse_ground(sec2d)[0]
    tube = geo.TubeSpec(geo.CurveProfile(dim=2, S=4.0, ds=0.2), sec2d,
                        RegimeParams(eps=1.0, delta=0.0, b=0.0))
    schedule = [0.0, 0.5, 1.0, 2.0, 4.0]
    below, empty = lam1 - 1.0, lam1
    for lams, crossing in (([below, empty, below, empty, empty], 2.0),
                           ([below, empty, empty, empty, below], None)):
        it = iter(lams)
        monkeypatch.setattr(hardy, "lowest_eigenpairs",
                            lambda *a, **kw: (np.array([next(it)]), None, None))
        rep = hardy.large_b_experiment(tube, None, schedule)
        assert [r["empty"] for r in rep["rows"]] == [lam == empty for lam in lams]
        assert rep["crossing_b"] == crossing
        assert rep["conclusive"] == (crossing is not None)


def test_large_b_solves_shift_at_the_diamagnetic_floor(bent_tube,
                                                        band_solves):
    # the b = 0 tube binds below lam1(omega) and keeps its far shift (43
    # solves, 51 with ARPACK); each b != 0 solve shifts just below lam1(0),
    # the floor that the diamagnetic inequality proves, and converges within
    # one basis of LANCZOS_ROWS vectors (14-20 solves)
    from magtube.assemble import LANCZOS_ROWS

    tube, field = bent_tube
    hardy.large_b_experiment(tube, field, LARGE_B)
    assert len(band_solves) == len(LARGE_B)
    assert band_solves[0] <= 45
    assert max(band_solves[1:]) <= LANCZOS_ROWS


def _rows_sit_on_the_floor_and_match_far_shifts(tube, field, rep):
    from magtube.assemble import lowest_eigenpairs
    from magtube.operators import assemble_full

    rows = rep["rows"]
    assert all(r["lam1"] >= rows[0]["lam1"] for r in rows[1:])
    frame = geo.integrate_frame(tube.curve)
    sigma = 0.5 * rep["lam1_omega"]
    for row in rows:
        regime = RegimeParams(eps=1.0, delta=0.0, b=row["b"], K=tube.regime.K)
        op = assemble_full(geo.TubeSpec(tube.curve, tube.section, regime),
                           field, frame, shifted=False)
        far = lowest_eigenpairs(op.matrix, k=1, sigma=sigma, seed=7)[0][0]
        assert abs(row["lam1"] - far) <= 1e-12 * abs(far)


def test_large_b_rows_sit_on_the_floor_and_match_far_shifts(bent_tube,
                                                             large_b_report):
    _rows_sit_on_the_floor_and_match_far_shifts(*bent_tube, large_b_report)


def test_spatial_large_b_rows_sit_on_the_floor_and_match_far_shifts():
    # the same experiment on an untwisted spatial tube, whose diamagnetic
    # floor is exact like the planar one's
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.45))
    field = geo.CurlPotentialField3D((
        (2, geo.TensorBump3((0.0, 0.0, 0.0), (3.0, 3.0, 3.0)), 3.0),))
    tube = geo.TubeSpec(curve, grids.square(1.0, 1 / 4),
                        RegimeParams(eps=1.0, delta=0.0, b=0.0))
    rep = hardy.large_b_experiment(tube, field, LARGE_B)
    lams = [r["lam1"] for r in rep["rows"]]
    assert 4.89 < lams[0] < lams[-1] < 5.18
    assert all(b >= a for a, b in zip(lams, lams[1:]))
    _rows_sit_on_the_floor_and_match_far_shifts(tube, field, rep)


def test_large_b_floor_without_b_0_or_field(bent_tube, large_b_report):
    tube, field = bent_tube
    # a schedule without b = 0 still solves the floor first
    rep = hardy.large_b_experiment(tube, field, LARGE_B[1:])
    assert rep["rows"] == large_b_report["rows"][1:]
    # without a field every b is the b = 0 tube
    rep = hardy.large_b_experiment(tube, None, LARGE_B)
    lam0 = large_b_report["rows"][0]["lam1"]
    assert all(abs(r["lam1"] - lam0) <= 1e-12 * lam0 for r in rep["rows"])


@pytest.mark.parametrize("dim", [2, 3])
def test_straight_tube_is_the_full_operator_at_eps_1(dim):
    # the Hardy tube and the curvilinear assembly share one field orientation
    from magtube import operators as ops

    b = 1.3
    if dim == 2:
        section = grids.interval(1.0, 1 / 20)
        field = geo.AmbientField2D((((0.3, 0.2), 3.0, 1.0),))
    else:
        section = grids.square(1.0, 1 / 5)
        field = geo.CurlPotentialField3D((
            (0, geo.TensorBump3((0.5, 0.0, 0.0), (2.5, 2.0, 2.0)), 0.8),
            (2, geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0)), 1.0),
        ))
    curve = geo.CurveProfile(dim=dim, S=8.0, ds=0.1)
    tube = geo.TubeSpec(curve, section, RegimeParams(eps=1.0, delta=0.0, b=b))
    full = ops.assemble_full(tube, field, shifted=False).matrix
    H = hardy._straight_tube_matrix(section, field, b,
                                    ops.axis_grid(curve).nodes, False)
    assert abs(full - H).max() <= 1e-13 * abs(full).max()
