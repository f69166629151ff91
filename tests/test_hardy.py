"""Hardy constants, weighted certification, stability experiments."""

import gc
import warnings

import numpy as np
import pytest

from magtube import geometry as geo, grids, hardy
from magtube.assemble import RegimeParams
from magtube.errors import DeformationTooLarge, ZeroFieldWarning


@pytest.fixture(scope="module")
def sec2d():
    return grids.interval(1.0, 1 / 20)


@pytest.fixture(scope="module")
def field2d():
    # nonvanishing on Omega(2): a single wide bump
    return geo.AmbientField2D((((0.0, 0.0), 6.0, 1.0),))


def test_cutoff_pair_properties():
    s = np.linspace(-2, 2, 4001)
    chi0, chi1 = hardy.cutoff_pair(s)
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
    cert = hardy.verify_hardy(sec2d, field2d, 1.0, R=2.0, L=10.0, ds=0.05)
    assert cert.passed
    assert cert.mu_min >= cert.c_R
    # pencil two-route agreement at coarse resolution
    coarse = grids.interval(1.0, 0.2)
    cert_c = hardy.verify_hardy(coarse, field2d, 1.0, R=2.0, L=8.0, ds=0.2,
                                dense_check=True)
    assert abs(cert_c.mu_min - cert_c.meta["mu_min_dense"]) < 1e-6 * max(
        1.0, abs(cert_c.mu_min))


def test_mu_min_monotone_in_L(sec2d, field2d):
    mus = []
    for L in (8.0, 12.0):
        cert = hardy.verify_hardy(sec2d, field2d, 1.0, R=2.0, L=L, ds=0.05)
        mus.append(cert.mu_min)
    assert mus[1] <= mus[0] + 1e-10  # larger trial space can only lower it


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
    # complex generalized shift-invert: scipy's ARPACK driver keeps its
    # SuperLU factor in a reference cycle, which must not outlive the call
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0))
    gc.collect()
    gc.disable()
    try:
        hardy.deformation_experiment(sec2d, field2d, 1.0, dspec, [0.1],
                                     L=6.0, ds=0.1)
        alive = [o for o in gc.get_objects()
                 if type(o).__name__ == "SpLuInv"]
    finally:
        gc.enable()
    assert alive == []


def test_straight_gauges_one_call_match_per_line_loop(sec2d, field2d,
                                                       per_line_gauges):
    s_pts = np.linspace(-3.0, 3.0, 121)
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0),
                                  E1=geo.Profile.single(1.0, 2.0, 0.3))

    def gauged():
        H, _, _ = hardy.assemble_deformed_tube(sec2d, field2d, 1.0, dspec,
                                               0.2, L=4.0)
        return hardy._gauge_straight_2d(sec2d, field2d, s_pts), H

    A1, H = gauged()
    per_line_gauges()
    A1_want, H_want = gauged()
    assert np.array_equal(A1, A1_want)
    assert (H != H_want).nnz == 0


def test_large_b_experiment(sec2d):
    # eps = 1 tube: sup|kappa| must stay below 1 for injectivity
    curve = geo.CurveProfile(dim=2, S=20.0, ds=0.08,
                             kappa=geo.Profile.single(0.0, 2.0, 0.85))
    field = geo.AmbientField2D((((0.0, 0.0), 8.0, 1.0),))
    tube = geo.TubeSpec(curve, sec2d, RegimeParams(eps=1.0, delta=0.0, b=0.0))
    rep = hardy.large_b_experiment(tube, field, [0.0, 0.5, 1.0, 2.0, 4.0])
    rows = rep["rows"]
    # b = 0: curvature-induced bound state below threshold minus budget
    assert rows[0]["lam1"] < rep["lam1_omega"] - rep["budget"]
    assert not rows[0]["empty"]
    # ground energy nondecreasing along the schedule (field covers the bend)
    lams = [r["lam1"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
    assert rep["conclusive"]
    assert rows[-1]["empty"]


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
    assemble = ops.assemble_full_2d if dim == 2 else ops.assemble_full_3d
    full = assemble(tube, field, shifted=False).matrix
    H = hardy._straight_tube_matrix(section, field, b,
                                    ops.axis_grid(curve).nodes, False)
    assert abs(full - H).max() <= 1e-13 * abs(full).max()
