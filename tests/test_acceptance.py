"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; each prints a PASS line (pytest -s shows them, and
the summary is the contract).  Fixtures are desk-scale and chosen so every
stated tolerance is met honestly: slope fits compare against grid-consistent
reference constants (the discrete transverse ground energy and the discrete
effective eigenvalue), whose own distance to the continuum constants is
verified separately at the discretization order.
"""

import time
import warnings

import numpy as np
import pytest

from magtube import asymptotics as asym
from magtube import geometry as geo
from magtube import grids
from magtube import hardy
from magtube import operators as ops
from magtube import xsection as xs
from magtube.assemble import RegimeParams
from magtube.fitting import fit_order

from reference import (check_form_resolvent_lemma, make_form_pair,
                       random_spd_pair, richardson)

warnings.filterwarnings("ignore", category=UserWarning)


pytestmark = pytest.mark.slow


def make_tube(curve, sec, eps, delta=1.0, b=None, K=None):
    return geo.TubeSpec(curve, sec,
                        RegimeParams(eps=eps, delta=delta, b=b, K=K))


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- oracle: first zero of the Bessel function J0, by bisection on the series


def bessel_j0(z):
    term, total = 1.0, 1.0
    for k in range(1, 60):
        term *= -(z * z / 4.0) / (k * k)
        total += term
    return total


def bessel_j0_first_root_squared():
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if bessel_j0(lo) * bessel_j0(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return ((lo + hi) / 2) ** 2


def lam1_of(domain):
    return xs.lowest_modes(xs.assemble_dirichlet_laplacian(domain), 1).lam1


def test_criterion_1_cross_section_oracles():
    j01sq = bessel_j0_first_root_squared()
    assert abs(j01sq - 5.78319) < 1e-4  # frozen reference value
    timings = {}
    # interval
    t0 = time.monotonic()
    li = [lam1_of(grids.interval(1.0, h)) for h in (1 / 100, 1 / 200)]
    timings["interval"] = time.monotonic() - t0
    ext_i = richardson(li[0], li[1], order=2)
    rel_i = abs(ext_i - np.pi**2 / 4) / (np.pi**2 / 4)
    # square
    t0 = time.monotonic()
    ls = [lam1_of(grids.square(1.0, h)) for h in (1 / 60, 1 / 120)]
    timings["square"] = time.monotonic() - t0
    ext_s = richardson(ls[0], ls[1], order=2)
    rel_s = abs(ext_s - np.pi**2 / 2) / (np.pi**2 / 2)
    # disk: masked Dirichlet eigenvalue at the stated grid, constants from
    # the symmetry-reduced backend; both extrapolations reported
    t0 = time.monotonic()
    lam80 = lam1_of(grids.disk(1.0, 1 / 80))
    timings["disk_h80"] = time.monotonic() - t0
    assert abs(lam80 - j01sq) / j01sq < 1e-2
    t0 = time.monotonic()
    lam160 = lam1_of(grids.disk(1.0, 1 / 160))
    timings["disk_h160"] = time.monotonic() - t0
    # staircase boundary reduces the masked path to first order
    ext_mask = richardson(lam80, lam160, order=1)
    xs._MEMO.clear()
    cd = [xs.compute_constants(grids.disk(1.0, h)).lam1
          for h in (1 / 80, 1 / 160)]
    ext_d = richardson(cd[0], cd[1], order=2)
    rel_d = abs(ext_d - j01sq) / j01sq
    rel_mask = abs(ext_mask - j01sq) / j01sq
    ok = (rel_i < 1e-4 and rel_s < 1e-3 and rel_d < 5e-3
          and rel_mask < 5e-3 and max(timings.values()) < 10.0)
    report(1, ok,
           f"Richardson rel errs: interval {rel_i:.1e} (<1e-4), "
           f"square {rel_s:.1e} (<1e-3), disk radial {rel_d:.1e} / "
           f"masked {rel_mask:.1e} (<5e-3); slowest solve "
           f"{max(timings.values()):.1f}s (<10s)")


def test_criterion_2_constants():
    target = 1 / 3 - 2 / np.pi**2
    ci = xs.compute_constants(grids.interval(1.0, 1 / 200))
    moment_err = abs(ci.moment2 - target)
    cd = xs.compute_constants(grids.disk(1.0, 1 / 80))
    # kappa_mag >= 0 on every shipped fixture shape
    mask = np.zeros((25, 31), dtype=bool)
    mask[2:23, 2:12] = True
    mask[2:9, 2:29] = True  # L-shaped polygon
    lshape = grids.GridDomain(2, 0.05, (-0.6, -0.75), mask, "polygon-mask")
    fixtures = [
        xs.compute_constants(grids.square(1.0, 1 / 40)),
        xs.compute_constants(grids.disk(1.0, 1 / 48), method="mask"),
        xs.compute_constants(lshape),
        cd,
        ci,
    ]
    kmags = [c.kappa_mag for c in fixtures]
    ok = (moment_err < 1e-5
          and cd.p <= 1e-6 and cd.kappa_mag <= 1e-6
          and all(k >= 0 for k in kmags)
          and "effective_coefficient_discrepancy" in ci.meta)
    report(2, ok,
           f"interval ||tau J1||^2 err {moment_err:.1e} (<1e-5); disk p "
           f"{cd.p:.1e}, kappa_mag {cd.kappa_mag:.1e} (<=1e-6); kappa_mag "
           f">= 0 on {len(kmags)} fixtures; printed-coefficient discrepancy "
           f"{ci.meta['effective_coefficient_discrepancy']:.4f} in metadata")


@pytest.fixture(scope="module")
def sweep_fixture():
    """Bent + magnetized planar tube shared by criteria 3-5."""
    sec = grids.interval(1.0, 1 / 40)
    curve = geo.CurveProfile(dim=2, S=14.0, ds=0.05,
                             kappa=geo.Profile.single(0.0, 2.0, 1.2))
    frame = geo.integrate_frame(curve)
    field = geo.FrameAlignedField2D(geo.Profile.single(0.5, 1.5, 0.6))
    return sec, curve, frame, field


def test_criterion_3_eigenvalue_asymptotics(sweep_fixture):
    t_start = time.monotonic()
    sec, curve, frame, field = sweep_fixture
    lam1h, _ = ops.transverse_ground(sec)
    assert abs(lam1h - np.pi**2 / 4) / (np.pi**2 / 4) < 1e-3
    eff = ops.assemble_effective(make_tube(curve, sec, 0.1, K=0.0), field,
                                 frame=frame, mode="galerkin")
    mu1 = ops.smallest_eigenpairs(eff, k=1, sigma=-0.3).eigenvalues[0]
    eps_list = [0.2, 0.1, 0.05, 0.025]
    lam = []
    for eps in eps_list:
        op = ops.assemble_full(make_tube(curve, sec, eps), field, frame)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
        lam.append(spec.eigenvalues[0] - op.shift)
    lam = np.array(lam)
    err_lead = np.abs(np.array(eps_list) ** 2 * lam - lam1h)
    fit_lead = fit_order(eps_list, err_lead)
    err_mu = np.abs(lam - lam1h / np.array(eps_list) ** 2 - mu1)
    fit_mu = fit_order(eps_list, err_mu)
    elapsed = time.monotonic() - t_start
    ok = fit_lead.slope >= 1.6 and fit_mu.slope >= 0.8 and elapsed < 300
    report(3, ok,
           f"|eps^2 lam1 - pi^2/4(h)| order {fit_lead.slope:.2f} (>=1.6); "
           f"|lam1 - pi^2/(4 eps^2) - mu1| order {fit_mu.slope:.2f} (>=0.8); "
           f"{elapsed:.0f}s (<300s)")


def test_criterion_4_norm_resolvent_rates(sweep_fixture):
    sec, curve, frame, field = sweep_fixture
    # each Lanczos starts where the nrc-sweep runner starts it: cold, from
    # the channel-Galerkin maximizer of its own operators
    slopes = {}
    for delta in (0.0, 0.5, 1.0):
        dists = []
        eps_list = [0.2, 0.1, 0.05, 0.025]
        for eps in eps_list:
            tube = make_tube(curve, sec, eps, delta=delta)
            opA = ops.assemble_full(tube, field, frame)
            opB = ops.assemble_effective(tube, field, frame=frame,
                                         mode="galerkin")
            d, info = ops.resolvent_distance(opA, opB)
            assert info["converged"]
            dists.append(d)
        slopes[delta] = fit_order(eps_list, dists).slope
    ok2d = (slopes[0.0] >= 0.8 and slopes[0.5] >= 0.4 and slopes[1.0] >= 0.8)
    # 3D analog at coarse resolution
    t3 = time.monotonic()
    sec3 = grids.square(1.0, 1 / 10)
    curve3 = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                              kappa2=geo.Profile.single(0.0, 2.0, 0.5),
                              theta_prime=geo.Profile.single(0.2, 2.0, 0.5))
    frame3 = geo.integrate_frame(curve3)
    bump = geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0))
    bump2 = geo.TensorBump3((0.5, 0.0, 0.0), (2.5, 2.0, 2.0))
    field3 = geo.CurlPotentialField3D(((0, bump2, 0.8), (2, bump, 1.0)))
    slopes3 = {}
    applications3 = []
    for delta in (0.0, 1.0):
        dists = []
        eps_list3 = [0.2, 0.1, 0.05, 0.025]
        for eps in eps_list3:
            tube = make_tube(curve3, sec3, eps, delta=delta)
            opA = ops.assemble_full(tube, field3, frame3)
            opB = ops.assemble_effective(tube, field3, frame=frame3,
                                         mode="galerkin")
            d, info = ops.resolvent_distance(opA, opB)
            applications3.append(info["matvecs"])
            dists.append(d)
        slopes3[delta] = fit_order(eps_list3, dists).slope
    elapsed3 = time.monotonic() - t3
    # the channel start lies near the maximizer: the first point (delta 0,
    # eps 0.2), cold like every point, takes at most 15 applications
    ok3d = (slopes3[0.0] >= 0.6 and slopes3[1.0] >= 0.6 and elapsed3 < 900
            and applications3[0] <= 15)
    report(4, ok2d and ok3d,
           f"2D orders delta 0/0.5/1: {slopes[0.0]:.2f}/{slopes[0.5]:.2f}/"
           f"{slopes[1.0]:.2f} (>= 0.8/0.4/0.8); 3D orders delta 0/1: "
           f"{slopes3[0.0]:.2f}/{slopes3[1.0]:.2f} (>=0.6); 3D {elapsed3:.0f}s "
           f"(<900s); 3D first point {applications3[0]} applications (<=15)")


def test_criterion_5_quasimode_residuals():
    sec = grids.interval(1.0, 1 / 30)
    curve = geo.CurveProfile(dim=2, S=12.0, ds=0.075,
                             kappa=geo.Profile.single(0.0, 2.0, 1.2))
    frame = geo.integrate_frame(curve)
    field = geo.FrameAlignedField2D(geo.Profile.single(0.5, 1.5, 0.6))
    tube = make_tube(curve, sec, 0.1)
    series = asym.expand_operator_2d(tube, field, j_max=5, frame=frame)
    eps_list = [0.1, 0.07, 0.05, 0.035, 0.025]
    ops_cache = {
        eps: ops.assemble_full(make_tube(curve, sec, eps), field, frame)
        for eps in eps_list
    }
    slopes = {}
    for J in (2, 3):
        qm = asym.build_quasimode(series, mode_index=1, J=J)
        res = [qm.residual(ops_cache[eps], eps) for eps in eps_list]
        slopes[J] = fit_order(eps_list, res).slope
    ok = slopes[2] >= 2.8 and slopes[3] >= 3.8
    report(5, ok,
           f"residual orders J=2: {slopes[2]:.2f} (>=2.8), "
           f"J=3: {slopes[3]:.2f} (>=3.8) over {len(eps_list)} eps points")


def test_criterion_6_form_resolvent_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(61803)
    worst_printed = np.inf
    worst_sqrt = np.inf
    hyp_all = True
    for _ in range(100):
        A, B = random_spd_pair(rng, n_max=200)
        pair = make_form_pair(A, B)
        out = check_form_resolvent_lemma(pair, n_vector_pairs=1000,
                                         seed=int(rng.integers(2**31)))
        worst_printed = min(worst_printed, out["slack_printed"])
        worst_sqrt = min(worst_sqrt, out["slack_sqrt"])
        hyp_all &= out["hypothesis_ok"]
    elapsed = time.monotonic() - t0
    ok = worst_printed >= 0 and worst_sqrt >= 0 and hyp_all and elapsed < 30
    report(6, ok,
           f"100 SPD pairs: min slack {worst_printed:.2e} (printed) / "
           f"{worst_sqrt:.2e} (sqrt form), hypothesis holds on 1000 vector "
           f"pairs each; {elapsed:.1f}s (<30s)")


def _hardy_fixture(kind):
    if kind == "2d":
        field = geo.AmbientField2D((((0.0, 0.0), 6.0, 1.0),))
        secs = (grids.interval(1.0, 1 / 20), grids.interval(1.0, 1 / 40))
        return secs, field, 0.05, 10.0
    bump = geo.TensorBump3((0.0, 3.0, 0.0), (8.0, 4.5, 8.0))
    field = geo.CurlPotentialField3D(((2, bump, 3.0),))
    if kind == "3d-square":
        secs = (grids.square(1.0, 1 / 8), grids.square(1.0, 1 / 10))
    else:
        secs = (grids.disk(1.0, 1 / 8), grids.disk(1.0, 1 / 10))
    return secs, field, 0.1, 8.0


def test_criterion_7_hardy_certification():
    R = 2.0
    limit = 0.25 / (1 + hardy.cutoff_constant() / R**2)
    details = []
    ok = True
    for kind in ("2d", "3d-square", "3d-disk"):
        secs, field, ds, L = _hardy_fixture(kind)
        # certification at two resolutions
        passes = []
        for sec in secs:
            cert = hardy.verify_hardy(sec, field, 1.0, R=R, L=L, ds=ds)
            passes.append(cert.passed and cert.mu_min >= cert.c_R)
        # small-b quadratic law and large-b saturation on the finer grid
        sec = secs[0]
        ratios = [hardy.hardy_constant(sec, field, b, R, ds=ds).c_R / b**2
                  for b in (0.05, 0.1)]
        vary = abs(ratios[1] - ratios[0]) / ratios[0]
        cs = [hardy.hardy_constant(sec, field, b, R, ds=ds).c_R
              for b in (0.5, 1.0, 2.0, 4.0, 6.0)]
        sat = abs(cs[-1] - limit) / limit
        ok_kind = (all(passes) and vary < 0.25 and max(cs) <= 0.25 + 1e-12
                   and sat < 0.10)
        ok &= ok_kind
        details.append(f"{kind}: verify {passes}, c_R/b^2 varies "
                       f"{100 * vary:.1f}% (<25%), saturation gap "
                       f"{100 * sat:.2f}% (<10%)")
    report(7, ok, "; ".join(details))


def test_criterion_8_stability_experiments():
    sec = grids.interval(1.0, 1 / 20)
    curve = geo.CurveProfile(dim=2, S=20.0, ds=0.08,
                             kappa=geo.Profile.single(0.0, 2.0, 0.85))
    field = geo.AmbientField2D((((0.0, 0.0), 8.0, 1.0),))
    tube = geo.TubeSpec(curve, sec, RegimeParams(eps=1.0, delta=0.0, b=0.0))
    schedule = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    rep = hardy.large_b_experiment(tube, field, schedule)
    rows = {r["b"]: r for r in rep["rows"]}
    # (a) curvature-induced bound state at b = 0, margin beyond the budget
    margin0 = rep["lam1_omega"] - rep["budget"] - rows[0.0]["lam1"]
    ok_a = margin0 > 0
    # (c) crossing within the schedule, still empty at 2 b0
    b0 = rep["crossing_b"]
    ok_c = rep["conclusive"] and (2 * b0 in rows) and rows[2 * b0]["empty"]
    # (b) deformation with field: no dip at small amplitudes
    dspec = hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0),
                                  E1=geo.Profile.single(1.0, 2.0, 0.3))
    rep_d = hardy.deformation_experiment(sec, field, 1.0, dspec,
                                         [0.05, 0.1, 0.2], L=16.0, ds=0.08)
    ok_b = all(not r["below"] for r in rep_d["rows"])
    report(8, ok_a and ok_b and ok_c,
           f"(a) b=0 binding margin {margin0:.3e} beyond budget; "
           f"(b) no sub-threshold mode at amplitudes "
           f"{[r['amplitude'] for r in rep_d['rows']]} with b=1; "
           f"(c) crossing b0={b0}, empty at 2b0={rows[2 * b0]['empty']}")


def test_criterion_9_invariant_suites(sweep_fixture):
    t0 = time.monotonic()
    sec, curve, frame, field = sweep_fixture
    checks = {}
    # operator Hermiticity (2D and 3D with field+twist)
    op2 = ops.assemble_full(make_tube(curve, sec, 0.1), field, frame)
    curve3 = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                              kappa2=geo.Profile.single(0.0, 2.0, 0.5),
                              theta_prime=geo.Profile.single(0.2, 2.0, 0.5))
    frame3 = geo.integrate_frame(curve3)
    sec3 = grids.square(1.0, 1 / 8)
    bump = geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0))
    field3 = geo.CurlPotentialField3D(((2, bump, 1.0),))
    op3 = ops.assemble_full(make_tube(curve3, sec3, 0.1), field3, frame3)
    checks["hermiticity"] = max(op2.hermiticity_defect(),
                                op3.hermiticity_defect()) <= 1e-12
    # gauge covariance of the 2D spectrum under a discrete gauge transform
    chi = lambda s: 0.4 * np.cos(0.8 * s) + 0.1 * s
    op2g = ops.assemble_full(make_tube(curve, sec, 0.1), field, frame,
                             gauge_chi=chi)
    e0 = ops.smallest_eigenpairs(op2, k=2, sigma=0.0).eigenvalues
    e1 = ops.smallest_eigenpairs(op2g, k=2, sigma=0.0).eigenvalues
    checks["gauge_covariance"] = np.abs(e0 - e1).max() <= 1e-6
    # diamagnetic monotonicity across the b sweep
    lam1h, _ = ops.transverse_ground(sec)
    lams = []
    for b in (0.0, 0.5, 1.0, 2.0, 4.0):
        t = make_tube(curve, sec, 0.1, delta=0.0, b=b)
        op = ops.assemble_full(t, field if b else None, frame,
                               shifted=False)
        lams.append(ops.smallest_eigenpairs(
            op, k=1, sigma=0.95 * lam1h / 0.01).eigenvalues[0])
    checks["diamagnetic"] = all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))
    # frame orthonormality
    checks["frame_gram"] = frame3.gram_defect <= 1e-7
    # det DPhi = h by sampling
    def phi(s, t2, t3):
        d = frame3.at(np.array([s]))
        th = d["theta"][0]
        e2 = np.cos(th) * d["M2"][0] + np.sin(th) * d["M3"][0]
        e3 = -np.sin(th) * d["M2"][0] + np.cos(th) * d["M3"][0]
        return d["gamma"][0] + t2 * e2 + t3 * e3
    worst = 0.0
    for s0, t2, t3 in ((0.0, 0.25, -0.2), (0.6, -0.2, 0.15), (-1.2, 0.1, 0.3)):
        ds_fd, h_fd = 0.05, 1e-6
        c1 = (phi(s0 + ds_fd, t2, t3) - phi(s0 - ds_fd, t2, t3)) / (2 * ds_fd)
        c2 = (phi(s0, t2 + h_fd, t3) - phi(s0, t2 - h_fd, t3)) / (2 * h_fd)
        c3 = (phi(s0, t2, t3 + h_fd) - phi(s0, t2, t3 - h_fd)) / (2 * h_fd)
        det = np.linalg.det(np.column_stack([c1, c2, c3]))
        d = frame3.at(np.array([s0]))
        th = d["theta"][0]
        k2 = float(curve3.kappa2(s0))
        h_exact = 1.0 - t2 * k2 * np.cos(th) - t3 * (-k2 * np.sin(th))
        worst = max(worst, abs(det - h_exact))
    checks["det_dphi"] = worst < 5e-3
    # dual-path effective 3D assembly agreement
    tube3 = make_tube(curve3, sec3, 0.1)
    eg = ops.assemble_effective(tube3, field3, frame=frame3,
                                mode="galerkin")
    ec = ops.assemble_effective(tube3, field3, frame=frame3,
                                mode="coefficient")
    mu_g = ops.smallest_eigenpairs(eg, k=1, sigma=0.0).eigenvalues[0]
    mu_c = ops.smallest_eigenpairs(ec, k=1, sigma=0.0).eigenvalues[0]
    checks["dual_path_T3"] = abs(mu_g - mu_c) < 1e-2
    elapsed = time.monotonic() - t0
    ok = all(checks.values()) and elapsed < 600
    report(9, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                            for k, v in checks.items())
           + f"; {elapsed:.0f}s (<600s)")
