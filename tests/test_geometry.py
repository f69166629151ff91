"""Frames, fields, tube validation, gauges, and the comatrix pullback."""

import numpy as np
import pytest

from magtube import geometry as geo, grids
from magtube.assemble import RegimeParams
from magtube.errors import NotApplicable, SupportTruncationError, TubeOverlapError


def make_tube(curve, section, eps, delta=1.0, b=None):
    return geo.TubeSpec(curve, section, RegimeParams(eps=eps, delta=delta, b=b))


def test_straight_line_frame():
    curve = geo.CurveProfile(dim=3, S=6.0, ds=0.1)
    fr = geo.integrate_frame(curve)
    assert np.allclose(fr.T, [1, 0, 0])
    assert np.allclose(fr.M2, [0, 1, 0]) and np.allclose(fr.M3, [0, 0, 1])
    assert np.allclose(fr.gamma[:, 1:], 0.0)
    assert np.allclose(fr.gamma[:, 0], fr.s)
    assert fr.gram_defect < 1e-14


def test_2d_total_turning_angle():
    # constant-curvature-like bump: the tangent turns by int kappa ds
    curve = geo.CurveProfile(dim=2, S=8.0, ds=0.05,
                             kappa=geo.Profile.single(0.0, 2.0, 1.0))
    fr = geo.integrate_frame(curve)
    fine = np.linspace(-2, 2, 40001)
    total = np.trapezoid(curve.kappa(fine), fine)
    ang0 = np.arctan2(fr.T[0, 1], fr.T[0, 0])
    ang1 = np.arctan2(fr.T[-1, 1], fr.T[-1, 0])
    assert abs((ang0 - ang1) - total) < 1e-6  # phi' = -kappa
    # gamma'' = -kappa nu within FD accuracy
    assert fr.tang_residual() < 5e-3


def test_3d_decoupled_row_vs_fine_reference():
    curve = geo.CurveProfile(dim=3, S=6.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 1.5, 0.8))
    fr = geo.integrate_frame(curve)
    # kappa3 = 0 decouples M3
    assert np.abs(fr.M3 - np.array([0, 0, 1.0])).max() < 1e-6
    ref = geo.integrate_frame(
        geo.CurveProfile(dim=3, S=6.0, ds=0.01,
                         kappa2=geo.Profile.single(0.0, 1.5, 0.8)))
    idx = fr._index(np.array([0.0, 1.0, 2.5, -3.0]))
    idx_ref = ref._index(np.array([0.0, 1.0, 2.5, -3.0]))
    assert np.abs(fr.gamma[idx] - ref.gamma[idx_ref]).max() < 1e-8
    assert fr.gram_defect < 1e-10


def test_kappa_identity_3d():
    k2 = geo.Profile.single(0.2, 1.5, 0.5)
    k3 = geo.Profile.single(-0.3, 1.0, 0.4)
    curve = geo.CurveProfile(dim=3, S=6.0, ds=0.1, kappa2=k2, kappa3=k3)
    s = np.linspace(-2, 2, 101)
    assert np.allclose(curve.kappa_mag(s) ** 2, k2(s) ** 2 + k3(s) ** 2)


def test_validate_tube_pass_and_overlap():
    sec = grids.interval(1.0, 0.1)
    straight = geo.CurveProfile(dim=2, S=6.0, ds=0.1)
    rep = geo.validate_tube(make_tube(straight, sec, 0.3))
    assert rep.status == "pass" and rep.curvature_product == 0.0
    bent = geo.CurveProfile(dim=2, S=6.0, ds=0.1,
                            kappa=geo.Profile.single(0.0, 1.5, 1.05))
    with pytest.raises(TubeOverlapError):
        geo.validate_tube(make_tube(bent, sec, 1.0))


def test_validate_tube_hairpin_warning():
    # total turn ~ pi: the two straight rays run back parallel; with a wide
    # section they pass within the tube diameter
    width = 2.0
    amp = np.pi / (width * 0.888022)  # int g = 0.888022 per unit half-width
    curve = geo.CurveProfile(dim=2, S=10.0, ds=0.05,
                             kappa=geo.Profile.single(0.0, width, amp))
    fr = geo.integrate_frame(curve)
    sec = grids.interval(1.0, 0.1)
    tube = make_tube(curve, sec, 0.45)
    # fixture sanity: measured minimum centreline distance between far apart
    # parameters is below twice the tube diameter
    pts, svals = fr.gamma[::8], fr.s[::8]
    d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, axis=2)
    far = np.abs(svals[:, None] - svals[None, :]) > 4 * 2 * 0.45
    assert np.sqrt(d2[far].min()) < 2 * 2 * 0.45
    rep = geo.validate_tube(tube, frame=fr)
    assert rep.status == "warn"
    assert any("approach" in m for m in rep.messages)


def test_gauge_2d_zero_and_slab():
    sec = grids.interval(1.0, 0.1)
    curve = geo.CurveProfile(dim=2, S=6.0, ds=0.1)
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.2)
    tau = sec.node_coords()
    A0 = geo.gauge_2d(geo.ZERO_FIELD_2D, fr, tube, fr.s[::2], tau)
    assert np.abs(A0).max() == 0.0
    # straight tube, frame-aligned B = B0 at the bump peak: A1 = B0 eps tau
    field = geo.FrameAlignedField2D(geo.Profile.single(0.0, 2.5, 1.3))
    A1 = geo.gauge_2d(field, fr, tube, np.array([0.0]), tau)
    assert np.allclose(A1[0], 1.3 * 0.2 * tau)


def test_gauge_2d_derivative_recovers_field():
    # curved tube with an ambient field: d(A1)/dtau / (eps (1 - eps tau kappa))
    # recovers B(Phi) within quadrature tolerance
    sec = grids.interval(1.0, 0.05)
    curve = geo.CurveProfile(dim=2, S=8.0, ds=0.05,
                             kappa=geo.Profile.single(0.0, 2.0, 0.7))
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.05)
    field = geo.AmbientField2D((((0.3, 0.1), 2.0, 1.0),))
    s = np.array([0.0, 0.5, -1.0])
    subdiv = 8
    tau = sec.node_coords()
    fine = geo._fine_axis(tau, subdiv)
    A1f = geo.gauge_2d(field, fr, tube, s, fine, subdiv=4)
    # 4th-order centered first derivative on the fine grid
    hf = fine[1] - fine[0]
    dA = (-A1f[:, 4:] + 8 * A1f[:, 3:-1] - 8 * A1f[:, 1:-3] + A1f[:, :-4]) / (12 * hf)
    mid = fine[2:-2]
    data = fr.at(s)
    pos = data["gamma"][:, None, :] + 0.05 * mid[None, :, None] * data["nu"][:, None, :]
    kap = curve.kappa(s)
    Bexp = field.value(pos)
    rec = dA / (0.05 * (1 - 0.05 * mid[None, :] * kap[:, None]))
    assert np.abs(rec - Bexp).max() < 1e-6


def test_gauge_2d_resolution_guard():
    sec = grids.interval(1.0, 0.25)
    curve = geo.CurveProfile(dim=2, S=6.0, ds=0.1)
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 1.0)
    tiny = geo.AmbientField2D((((0.0, 0.0), 0.05, 1.0),))
    with pytest.raises(geo.QuadratureResolutionError):
        geo.gauge_2d(tiny, fr, tube, np.array([0.0]), sec.node_coords(),
                     subdiv=1)


def _field3d():
    bump = geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0))
    bump2 = geo.TensorBump3((0.5, 0.0, 0.0), (2.5, 2.0, 2.0))
    return geo.CurlPotentialField3D(((0, bump2, 0.8), (2, bump, 1.0)))


def test_curl_field_divergence_free(rng):
    field = _field3d()
    x = rng.uniform(-1.5, 1.5, size=(50, 3))
    h = 1e-5
    div = np.zeros(50)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        div += (field.value(x + e)[:, ax] - field.value(x - e)[:, ax]) / (2 * h)
    assert np.abs(div).max() < 1e-8
    # analytic jacobian matches finite differences
    J = field.jacobian(x)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        fd = (field.value(x + e) - field.value(x - e)) / (2 * h)
        assert np.abs(J[:, :, ax] - fd).max() < 1e-6


def test_pullback_axis_properties():
    sec = grids.square(1.0, 0.25)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             theta_prime=geo.Profile.single(0.0, 2.0, 0.7))
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.1)
    field = _field3d()
    pulled = geo.pullback_field(field, fr, tube)
    s = fr.s[::4]
    B23, B13, B12, dB23 = pulled.on_axis(s)
    data = fr.at(s)
    Bamb = field.value(data["gamma"])
    # B23 on the axis is the tangential component
    assert np.allclose(B23, np.sum(Bamb * data["T"], axis=1), atol=1e-12)
    # twisting is a rotation in the normal plane: the norm is theta-invariant
    untw = geo.integrate_frame(geo.CurveProfile(dim=3, S=8.0, ds=0.1))
    pulled0 = geo.pullback_field(field, untw, make_tube(
        geo.CurveProfile(dim=3, S=8.0, ds=0.1), sec, 0.1))
    B23u, B13u, B12u, _ = pulled0.on_axis(s)
    assert np.allclose(B13**2 + B12**2, B13u**2 + B12u**2, atol=1e-12)
    # field parallel to T: both normal components vanish
    class Parallel:
        frame_aligned = False
        def value(self, x):
            out = np.zeros(x.shape[:-1] + (3,))
            out[..., 0] = 1.0
            return out
        def jacobian(self, x):
            return np.zeros(x.shape[:-1] + (3, 3))
        def support_bound(self):
            return 0.0
        def is_zero(self):
            return False
    straight = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                                theta_prime=geo.Profile.single(0.0, 2.0, 0.7))
    frs = geo.integrate_frame(straight)
    p2 = geo.PulledField(field=Parallel(), frame=frs,
                         tube=make_tube(straight, sec, 0.1))
    _, b13, b12, _ = p2.on_axis(s)
    assert np.abs(b13).max() < 1e-12 and np.abs(b12).max() < 1e-12


def test_straight_constant_field_pullback():
    # straight untwisted tube, constant B = (0,0,B0) over the support:
    # B23 = B0 * T3 = 0, B12 = B0 on the axis region
    sec = grids.square(1.0, 0.25)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1)
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.1)
    bump = geo.TensorBump3((0.0, 0.0, 0.0), (3.5, 3.5, 3.5))
    # potential P_y = B0 * x * bump-ish is not in the family; use curl and
    # check consistency against the analytic curl instead
    field = geo.CurlPotentialField3D(((1, bump, 1.0),))
    s = np.array([0.0])
    B23, B13, B12, _ = geo.pullback_field(field, fr, tube).on_axis(s)
    B = field.value(np.array([[0.0, 0.0, 0.0]]))[0]
    assert np.isclose(B23[0], B[0]) and np.isclose(B12[0], B[2])
    assert np.isclose(B13[0], -B[1])


def test_gauge_3d_properties():
    sec = grids.square(1.0, 0.25)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 1.5, 0.4),
                             theta_prime=geo.Profile.single(0.3, 1.5, 0.5))
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.15)
    field = _field3d()
    pulled = geo.pullback_field(field, fr, tube)
    s = fr.s[40:201]  # half-step spacing 0.05 for the s-part of the stencil
    ax2, ax3 = sec.axes
    A1, A2, A3 = geo.gauge_3d(pulled, tube, s, ax2, ax3, subdiv=4)
    i0_2 = int(np.argmin(np.abs(ax2)))
    i0_3 = int(np.argmin(np.abs(ax3)))
    # axis normalization A_j(s, 0) = 0
    assert np.abs(A1[:, i0_2, i0_3]).max() < 1e-14
    assert np.abs(A2[:, :, i0_3]).max() < 1e-14
    assert np.abs(A3[:, i0_2, :]).max() < 1e-14
    # discrete curl reproduces the pulled-back field at interior nodes
    eps = tube.eps
    B23, B13, B12 = pulled.components(s, ax2, ax3)
    h = sec.h * eps  # derivatives w.r.t. t = eps tau
    d2A3 = (A3[:, 2:, :] - A3[:, :-2, :]) / (2 * h)
    d3A2 = (A2[:, :, 2:] - A2[:, :, :-2]) / (2 * h)
    err23 = d2A3[:, :, 1:-1] - d3A2[:, 1:-1, :] - B23[:, 1:-1, 1:-1]
    assert np.abs(err23).max() < 5e-3  # O(h^2) + quadrature
    dsteps = s[1] - s[0]
    dsA2 = (A2[2:] - A2[:-2]) / (2 * dsteps)
    d2A1 = (A1[:, 2:, :] - A1[:, :-2, :]) / (2 * h)
    err12 = dsA2[:, 1:-1, :] - d2A1[1:-1] - B12[1:-1, 1:-1, :]
    assert np.abs(err12).max() < 5e-3
    dsA3 = (A3[2:] - A3[:-2]) / (2 * dsteps)
    d3A1 = (A1[:, :, 2:] - A1[:, :, :-2]) / (2 * h)
    err13 = dsA3[:, :, 1:-1] - d3A1[1:-1] - B13[1:-1, :, 1:-1]
    assert np.abs(err13).max() < 5e-3


def test_gauge_3d_one_call_matches_per_line_loop(per_line_gauges):
    sec = grids.square(1.0, 0.25)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 1.5, 0.4),
                             theta_prime=geo.Profile.single(0.3, 1.5, 0.5))
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.15)
    pulled = geo.pullback_field(_field3d(), fr, tube)
    s = fr.s[40:201]
    got = geo.gauge_3d(pulled, tube, s, *sec.axes)
    per_line_gauges()
    want = geo.gauge_3d(pulled, tube, s, *sec.axes)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_gauge_2d_one_call_matches_per_line_loop(per_line_gauges):
    sec = grids.interval(1.0, 0.05)
    curve = geo.CurveProfile(dim=2, S=8.0, ds=0.05,
                             kappa=geo.Profile.single(0.0, 2.0, 0.7))
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.05)
    field = geo.AmbientField2D((((0.3, 0.1), 2.0, 1.0),))
    s = fr.s[::3]
    tau = sec.node_coords()
    got = geo.gauge_2d(field, fr, tube, s, tau)
    per_line_gauges()
    assert np.array_equal(got, geo.gauge_2d(field, fr, tube, s, tau))


def test_gauge_3d_zero_field():
    sec = grids.square(1.0, 0.5)
    curve = geo.CurveProfile(dim=3, S=6.0, ds=0.1)
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.2)
    zero = geo.CurlPotentialField3D(())
    pulled = geo.pullback_field(zero, fr, tube)
    A1, A2, A3 = geo.gauge_3d(pulled, tube, fr.s[::8], *sec.axes)
    assert np.abs(A1).max() == 0 and np.abs(A2).max() == 0 and np.abs(A3).max() == 0


def test_frame_aligned_3d_refuses_full_pullback():
    sec = grids.square(1.0, 0.5)
    curve = geo.CurveProfile(dim=3, S=6.0, ds=0.1)
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.2)
    field = geo.FrameAlignedField3D(beta23=geo.Profile.single(0.0, 2.0, 1.0))
    pulled = geo.pullback_field(field, fr, tube)
    with pytest.raises(NotApplicable):
        pulled.components(fr.s[::8], *sec.axes)


def test_support_truncation_guard():
    sec = grids.square(1.0, 0.5)
    curve = geo.CurveProfile(dim=3, S=4.0, ds=0.1)
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.2)
    wide = geo.CurlPotentialField3D(
        ((2, geo.TensorBump3((0, 0, 0), (5.0, 2.0, 2.0)), 1.0),))
    with pytest.raises(SupportTruncationError):
        geo.pullback_field(wide, fr, tube)


def test_det_dphi_equals_h():
    # sampled Jacobian determinant of Phi matches h = 1 - <t, curvature terms>
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.05,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.5),
                             kappa3=geo.Profile.single(0.4, 1.5, 0.3),
                             theta_prime=geo.Profile.single(0.0, 2.0, 0.6))
    fr = geo.integrate_frame(curve)
    eps = 0.12

    def phi(s, t2, t3):
        d = fr.at(np.array([s]))
        th = d["theta"][0]
        e2 = np.cos(th) * d["M2"][0] + np.sin(th) * d["M3"][0]
        e3 = -np.sin(th) * d["M2"][0] + np.cos(th) * d["M3"][0]
        return d["gamma"][0] + t2 * e2 + t3 * e3

    ds = 0.05
    for s0, t2, t3 in ((0.0, 0.3, -0.2), (0.5, -0.25, 0.25), (-1.0, 0.1, 0.4)):
        col1 = (phi(s0 + ds, t2, t3) - phi(s0 - ds, t2, t3)) / (2 * ds)
        hfd = 1e-6
        col2 = (phi(s0, t2 + hfd, t3) - phi(s0, t2 - hfd, t3)) / (2 * hfd)
        col3 = (phi(s0, t2, t3 + hfd) - phi(s0, t2, t3 - hfd)) / (2 * hfd)
        det = np.linalg.det(np.column_stack([col1, col2, col3]))
        d = fr.at(np.array([s0]))
        th = d["theta"][0]
        k2 = float(curve.kappa2(s0))
        k3 = float(curve.kappa3(s0))
        h_exact = (1.0 - t2 * (k2 * np.cos(th) + k3 * np.sin(th))
                   - t3 * (-k2 * np.sin(th) + k3 * np.cos(th)))
        assert abs(det - h_exact) < 5e-3  # O(ds^2) sampling


def test_h_positivity_on_validated_tube():
    # h >= 1 - eps sup|tau| sup|kappa| > 0 across the grid of a valid tube
    sec = grids.square(1.0, 0.2)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.8),
                             kappa3=geo.Profile.single(0.5, 1.5, 0.5),
                             theta_prime=geo.Profile.single(0.0, 2.0, 0.7))
    fr = geo.integrate_frame(curve)
    tube = make_tube(curve, sec, 0.3)
    rep = geo.validate_tube(tube)
    assert rep.ok
    coords = sec.node_coords()
    s = fr.s[::2]
    th = fr.at(s)["theta"]
    k2 = curve.kappa2(s)
    k3 = curve.kappa3(s)
    t2 = 0.3 * coords[:, 0]
    t3 = 0.3 * coords[:, 1]
    h = (1.0
         - t2[None, :] * (k2 * np.cos(th) + k3 * np.sin(th))[:, None]
         - t3[None, :] * (-k2 * np.sin(th) + k3 * np.cos(th))[:, None])
    assert h.min() >= 1.0 - rep.curvature_product - 1e-12
    assert h.min() > 0
