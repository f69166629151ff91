"""Curves, frames, ambient magnetic fields, and curvilinear gauge data.

Curvature components, twist velocity and scalar field profiles are sums of
C-infinity compactly supported bumps, so every coefficient the assemblies
need (including along-axis field values) is available in closed form at any
sample point.  Frames are integrated once on a half-step lattice covering
grid nodes and link midpoints; 3D ambient fields are curls of compactly
supported potentials, hence divergence-free by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson

from .assemble import RegimeParams
from .errors import (
    FrameDriftError,
    NotApplicable,
    QuadratureResolutionError,
    SupportTruncationError,
    TubeOverlapError,
)
from .grids import GridDomain


# -- smooth compactly supported profiles ---------------------------------------


def _bump_g(u):
    """exp(1 - 1/(1-u^2)) on |u|<1, 0 outside; peak value 1 at u=0."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2))
    return out


def _bump_g1(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 0.999999999
    ui = u[inside]
    q = 1.0 - ui**2
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * ui / q**2)
    return out


def _bump_g2(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 0.999999999
    ui = u[inside]
    q = 1.0 - ui**2
    out[inside] = np.exp(1.0 - 1.0 / q) * (
        4.0 * ui**2 / q**4 - 2.0 / q**2 - 8.0 * ui**2 / q**3
    )
    return out


@dataclass(frozen=True)
class Bump:
    center: float
    width: float
    amplitude: float

    def __call__(self, s):
        return self.amplitude * _bump_g((np.asarray(s) - self.center) / self.width)

    def d1(self, s):
        return (self.amplitude / self.width) * _bump_g1(
            (np.asarray(s) - self.center) / self.width
        )

    @property
    def support(self):
        return (self.center - self.width, self.center + self.width)


@dataclass(frozen=True)
class Profile:
    """Sum of bumps; the zero profile is Profile(())."""

    bumps: tuple = ()

    @classmethod
    def single(cls, center=0.0, width=1.0, amplitude=1.0):
        return cls((Bump(center, width, amplitude),))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for b in self.bumps:
            out = out + b(s)
        return out

    def d1(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for b in self.bumps:
            out = out + b.d1(s)
        return out

    @property
    def is_zero(self):
        return len(self.bumps) == 0 or all(b.amplitude == 0.0 for b in self.bumps)

    @property
    def support(self):
        if self.is_zero:
            return (0.0, 0.0)
        los, his = zip(*(b.support for b in self.bumps))
        return (min(los), max(his))

    def sup_abs(self, samples: int = 4001) -> float:
        if self.is_zero:
            return 0.0
        lo, hi = self.support
        s = np.linspace(lo, hi, samples)
        return float(np.abs(self(s)).max())

    def min_width(self) -> float:
        if self.is_zero:
            return np.inf
        return min(b.width for b in self.bumps)


# -- curve profiles and integrated frames ---------------------------------------


@dataclass
class CurveProfile:
    """Arc-length parameterized curve data on [-S, S] with spacing ds.

    2D: signed curvature kappa.  3D: curvature pair (kappa2, kappa3) relative
    to the relatively parallel frame, plus twist velocity theta_prime.  All
    profiles are compactly supported.
    """

    dim: int
    S: float
    ds: float
    kappa: Profile = field(default_factory=Profile)       # 2D
    kappa2: Profile = field(default_factory=Profile)      # 3D
    kappa3: Profile = field(default_factory=Profile)      # 3D
    theta_prime: Profile = field(default_factory=Profile)  # 3D twist

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("curve dimension must be 2 or 3")
        n = int(round(2 * self.S / self.ds))
        if abs(n * self.ds - 2 * self.S) > 1e-9:
            raise ValueError("ds must subdivide [-S, S]")

    def kappa_mag(self, s):
        if self.dim == 2:
            return np.abs(self.kappa(s))
        return np.hypot(self.kappa2(s), self.kappa3(s))

    def sup_kappa(self) -> float:
        if self.dim == 2:
            return self.kappa.sup_abs()
        lo = min(self.kappa2.support[0], self.kappa3.support[0])
        hi = max(self.kappa2.support[1], self.kappa3.support[1])
        if hi <= lo:
            return 0.0
        s = np.linspace(lo, hi, 4001)
        return float(self.kappa_mag(s).max())

    def support_bound(self) -> float:
        """Largest |s| touched by curvature or twist support."""
        bound = 0.0
        for prof in (self.kappa, self.kappa2, self.kappa3, self.theta_prime):
            if not prof.is_zero:
                lo, hi = prof.support
                bound = max(bound, abs(lo), abs(hi))
        return bound


def _cumint_from_zero(y, x, axis=-1):
    """Antiderivative F(x) = int_0^x y along ``axis`` of y, on a grid x
    containing 0 exactly; every line along that axis in one call."""
    i0 = int(np.argmin(np.abs(x)))
    if abs(x[i0]) > 1e-12:
        raise ValueError("grid must contain 0")
    y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
    F = np.empty_like(y)
    if i0 < len(x) - 1:
        F[..., i0:] = cumulative_simpson(y[..., i0:], x=x[i0:], initial=0.0)
    else:
        F[..., i0] = 0.0
    if i0 > 0:
        back = cumulative_simpson(y[..., i0::-1], x=-x[i0::-1], initial=0.0)
        F[..., : i0 + 1] = -back[..., ::-1]
    return np.moveaxis(F, -1, axis)


@dataclass
class FrameTrajectory:
    """Frame samples on the half-step lattice s_k = -S + k ds/2.

    2D: gamma (n,2), T, nu.  3D: gamma (n,3), T, M2, M3 and integrated twist
    theta.  Immutable after construction.
    """

    curve: CurveProfile
    s: np.ndarray
    gamma: np.ndarray
    T: np.ndarray
    nu: np.ndarray | None = None
    M2: np.ndarray | None = None
    M3: np.ndarray | None = None
    theta: np.ndarray | None = None
    gram_defect: float = 0.0

    def _index(self, s_query):
        step = self.s[1] - self.s[0]
        idx = np.rint((np.asarray(s_query) - self.s[0]) / step).astype(int)
        if np.abs(self.s[idx] - s_query).max() > 1e-9:
            raise ValueError("frame sampled off the stored half-step lattice")
        return idx

    def at(self, s_query) -> dict:
        idx = self._index(s_query)
        out = {"gamma": self.gamma[idx], "T": self.T[idx]}
        for name in ("nu", "M2", "M3", "theta"):
            arr = getattr(self, name)
            if arr is not None:
                out[name] = arr[idx]
        return out

    def tang_residual(self) -> float:
        """Max finite-difference defect of the frame ODE over the lattice."""
        ds = self.s[1] - self.s[0]
        dT = (self.T[2:] - self.T[:-2]) / (2 * ds)
        if self.curve.dim == 2:
            rhs = -self.curve.kappa(self.s)[1:-1, None] * self.nu[1:-1]
            # gamma'' = -kappa nu and T' = gamma''
            return float(np.abs(dT - rhs).max())
        k2 = self.curve.kappa2(self.s)[1:-1, None]
        k3 = self.curve.kappa3(self.s)[1:-1, None]
        res = np.abs(dT - (k2 * self.M2[1:-1] + k3 * self.M3[1:-1])).max()
        dM2 = (self.M2[2:] - self.M2[:-2]) / (2 * ds)
        res = max(res, np.abs(dM2 + k2 * self.T[1:-1]).max())
        dM3 = (self.M3[2:] - self.M3[:-2]) / (2 * ds)
        res = max(res, np.abs(dM3 + k3 * self.T[1:-1]).max())
        return float(res)


def integrate_frame(curve: CurveProfile, substeps: int = 8,
                    gram_tol: float = 1e-7) -> FrameTrajectory:
    """Integrate the relatively parallel frame along the curve.

    2D uses the exact angle representation T = (cos phi, sin phi) with
    phi' = -kappa (so gamma'' = -kappa nu, det(T, nu) = 1 and orthonormality
    is exact).  3D integrates the frame ODE system with RK4 on ``substeps``
    sub-intervals per stored half-step.
    """
    half = curve.ds / 2.0
    n_half = int(round(2 * curve.S / half))
    s = -curve.S + half * np.arange(n_half + 1)
    if curve.dim == 2:
        fine = -curve.S + (half / substeps) * np.arange(n_half * substeps + 1)
        phi_fine = -_cumint_from_zero(curve.kappa(fine), fine)
        T_fine = np.column_stack([np.cos(phi_fine), np.sin(phi_fine)])
        gx = _cumint_from_zero(T_fine[:, 0], fine)
        gy = _cumint_from_zero(T_fine[:, 1], fine)
        sel = slice(None, None, substeps)
        T = T_fine[sel]
        nu = np.column_stack([-T[:, 1], T[:, 0]])
        gamma = np.column_stack([gx[sel], gy[sel]])
        theta = None
        M2 = M3 = None
        gram = float(np.abs(np.sum(T * T, axis=1) - 1).max())
    else:
        y = np.zeros((n_half + 1, 12))
        state = np.concatenate([[0.0, 0.0, 0.0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

        def rhs(si, st):
            g, T_, m2, m3 = st[0:3], st[3:6], st[6:9], st[9:12]
            k2 = float(curve.kappa2(si))
            k3 = float(curve.kappa3(si))
            return np.concatenate([T_, k2 * m2 + k3 * m3, -k2 * T_, -k3 * T_])

        # integrate from s = 0 outward in both directions (supports are
        # compact, the straight tails stay exact)
        i0 = int(np.argmin(np.abs(s)))
        y[i0] = state
        hsub = half / substeps
        for direction in (+1, -1):
            st = state.copy()
            rng = range(i0 + 1, n_half + 1) if direction > 0 else range(i0 - 1, -1, -1)
            for k in rng:
                si = s[k] - direction * half
                for _ in range(substeps):
                    hh = direction * hsub
                    k1 = rhs(si, st)
                    k2_ = rhs(si + hh / 2, st + hh / 2 * k1)
                    k3_ = rhs(si + hh / 2, st + hh / 2 * k2_)
                    k4 = rhs(si + hh, st + hh * k3_)
                    st = st + hh / 6 * (k1 + 2 * k2_ + 2 * k3_ + k4)
                    si = si + hh
                y[k] = st
        gamma, T, M2, M3 = y[:, 0:3], y[:, 3:6], y[:, 6:9], y[:, 9:12]
        frames = np.stack([T, M2, M3], axis=2)
        grams = np.einsum("nik,nil->nkl", frames, frames) - np.eye(3)
        gram = float(np.abs(grams).max())
        fine = -curve.S + (half / substeps) * np.arange(n_half * substeps + 1)
        theta_fine = _cumint_from_zero(curve.theta_prime(fine), fine)
        theta = theta_fine[::substeps]
        nu = None
    if gram > gram_tol:
        raise FrameDriftError(
            f"frame Gram defect {gram:.2e} exceeds {gram_tol:.1e}; reduce ds",
            defect=gram,
        )
    return FrameTrajectory(curve=curve, s=s, gamma=gamma, T=T, nu=nu,
                           M2=M2, M3=M3, theta=theta, gram_defect=gram)


# -- ambient magnetic fields -----------------------------------------------------


@dataclass(frozen=True)
class FrameAlignedField2D:
    """Shortcut family: B(Phi(s, t)) := beta(s), constant across the section.

    Fast fixtures with closed-form gauges; the real ambient families evaluate
    B off-axis through Phi.
    """

    beta: Profile

    frame_aligned = True
    dim = 2

    def on_axis(self, frame: FrameTrajectory, s):
        return self.beta(s)

    def min_feature(self):
        return self.beta.min_width()

    def support_bound(self):
        lo, hi = self.beta.support
        return max(abs(lo), abs(hi))

    def is_zero(self):
        return self.beta.is_zero


@dataclass(frozen=True)
class AmbientField2D:
    """Scalar planar field as a sum of radial bumps at ambient positions."""

    bumps: tuple  # of (center(2), width, amplitude)

    frame_aligned = False
    dim = 2

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for (cx, cy), w, a in self.bumps:
            r = np.hypot(x[..., 0] - cx, x[..., 1] - cy)
            out = out + a * _bump_g(r / w)
        return out

    def on_axis(self, frame: FrameTrajectory, s):
        return self.value(frame.at(s)["gamma"])

    def min_feature(self):
        return min(w for _, w, _ in self.bumps) if self.bumps else np.inf

    def support_bound(self):
        return max(
            (abs(c[0]) + w for c, w, _ in self.bumps), default=0.0
        )

    def is_zero(self):
        return not self.bumps or all(a == 0.0 for _, _, a in self.bumps)


@dataclass(frozen=True)
class TensorBump3:
    """Product bump b(x1) b(x2) b(x3) with analytic first partials."""

    center: tuple
    width: tuple

    def _u(self, x):
        x = np.asarray(x, dtype=float)
        return tuple(
            (x[..., i] - self.center[i]) / self.width[i] for i in range(3)
        )

    def value(self, x):
        u = self._u(x)
        return _bump_g(u[0]) * _bump_g(u[1]) * _bump_g(u[2])

    def partial(self, x, axis):
        u = self._u(x)
        fs = [_bump_g(u[i]) for i in range(3)]
        fs[axis] = _bump_g1(u[axis]) / self.width[axis]
        return fs[0] * fs[1] * fs[2]

    def second(self, x, ax1, ax2):
        u = self._u(x)
        fs = [_bump_g(u[i]) for i in range(3)]
        if ax1 == ax2:
            fs[ax1] = _bump_g2(u[ax1]) / self.width[ax1] ** 2
        else:
            fs[ax1] = _bump_g1(u[ax1]) / self.width[ax1]
            fs[ax2] = _bump_g1(u[ax2]) / self.width[ax2]
        return fs[0] * fs[1] * fs[2]


@dataclass(frozen=True)
class CurlPotentialField3D:
    """B = curl(P) with a compactly supported generating potential P.

    Divergence-free and compactly supported by construction, so the induced
    2-form is closed; no global ambient potential is consumed anywhere else.
    components: tuple of (axis, TensorBump3, amplitude) for P_axis terms.
    """

    components: tuple

    frame_aligned = False
    dim = 3

    def value(self, x):
        x = np.asarray(x, dtype=float)
        B = np.zeros(x.shape[:-1] + (3,))
        for axis, bump, amp in self.components:
            # curl of P = amp * bump * e_axis
            i, j = (axis + 1) % 3, (axis + 2) % 3
            B[..., i] += amp * bump.partial(x, j)
            B[..., j] -= amp * bump.partial(x, i)
        return B

    def jacobian(self, x):
        x = np.asarray(x, dtype=float)
        J = np.zeros(x.shape[:-1] + (3, 3))
        for axis, bump, amp in self.components:
            i, j = (axis + 1) % 3, (axis + 2) % 3
            for d in range(3):
                J[..., i, d] += amp * bump.second(x, j, d)
                J[..., j, d] -= amp * bump.second(x, i, d)
        return J

    def min_feature(self):
        return min(
            (min(b.width) for _, b, _ in self.components), default=np.inf
        )

    def support_bound(self):
        out = 0.0
        for _, b, _ in self.components:
            out = max(out, max(abs(c) + w for c, w in zip(b.center, b.width)))
        return out

    def is_zero(self):
        return not self.components or all(a == 0.0 for _, _, a in self.components)


@dataclass(frozen=True)
class FrameAlignedField3D:
    """Axis-only 3D family: on-axis frame components given directly.

    Sufficient for effective models and axis diagnostics.  Not usable for the
    full 3D gauge: a cross-section-constant extension is not a closed 2-form
    unless beta23 is constant, so pullback-based assemblies refuse it.
    """

    beta23: Profile = field(default_factory=Profile)
    beta13: Profile = field(default_factory=Profile)
    beta12: Profile = field(default_factory=Profile)

    frame_aligned = True
    dim = 3

    def min_feature(self):
        return min(p.min_width() for p in (self.beta23, self.beta13, self.beta12))

    def support_bound(self):
        out = 0.0
        for p in (self.beta23, self.beta13, self.beta12):
            if not p.is_zero:
                lo, hi = p.support
                out = max(out, abs(lo), abs(hi))
        return out

    def is_zero(self):
        return all(p.is_zero for p in (self.beta23, self.beta13, self.beta12))


ZERO_FIELD_2D = FrameAlignedField2D(Profile())


# -- tube specification -----------------------------------------------------------


@dataclass
class TubeSpec:
    """Curve + cross section + scaling regime."""

    curve: CurveProfile
    section: GridDomain
    regime: RegimeParams

    def __post_init__(self):
        if self.curve.dim - 1 != self.section.dim:
            raise ValueError("section dimension must be curve dimension - 1")

    @property
    def eps(self):
        return self.regime.eps

    def sup_tau(self) -> float:
        """sup over omega of |tau| (1D) or |tau2| + |tau3| (2D), by shape."""
        sec = self.section
        if sec.shape_tag == "interval":
            return float(sec.shape_params[0])
        if sec.shape_tag == "rectangle":
            return float(sec.shape_params[0] + sec.shape_params[1])
        if sec.shape_tag == "disk":
            return float(np.sqrt(2.0) * sec.shape_params[0])
        coords = sec.node_coords()
        if sec.dim == 1:
            return float(np.abs(coords).max() + sec.h)
        return float(np.abs(coords).sum(axis=1).max() + sec.h)


@dataclass
class TubeReport:
    status: str  # pass | warn | fail
    curvature_product: float
    messages: list

    @property
    def ok(self):
        return self.status != "fail"


def validate_tube(tube: TubeSpec, frame: FrameTrajectory | None = None,
                  sample_stride: int = 8) -> TubeReport:
    """Hard-check the curvature bound; soft-check overlap by sampling.

    The curvature inequality eps * sup|tau| * sup|kappa| < 1 is decidable and
    enforced; global injectivity of Phi is only probed on a coarse lattice
    (sampling cannot prove it), so near-collisions yield warnings.
    """
    messages = []
    prod = tube.eps * tube.sup_tau() * tube.curve.sup_kappa()
    if prod >= 1.0:
        raise TubeOverlapError(
            f"eps*sup|tau|*sup|kappa| = {prod:.3f} >= 1: tube self-overlaps"
        )
    if tube.curve.support_bound() > tube.curve.S / 2:
        messages.append(
            "curvature/twist support exceeds [-S/2, S/2]; truncation budget invalid"
        )
    status = "pass"
    if frame is not None:
        stride = max(1, sample_stride)
        pts = frame.gamma[::stride]
        svals = frame.s[::stride]
        diam = 2 * tube.eps * tube.sup_tau()
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        sdist = np.abs(svals[:, None] - svals[None, :])
        bad = (sdist > 4 * diam) & (d2 < (2 * diam) ** 2)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            messages.append(
                f"sampled centreline points s={svals[i]:.2f}, s={svals[j]:.2f} "
                f"approach within the tube diameter (possible overlap)"
            )
            status = "warn"
    if messages and status == "pass":
        status = "warn"
    return TubeReport(status=status, curvature_product=prod, messages=messages)


# -- gauges ------------------------------------------------------------------------


def _fine_axis(grid: np.ndarray, subdiv: int) -> np.ndarray:
    """Refine a uniform grid by an integer factor (keeps original nodes)."""
    step = grid[1] - grid[0]
    n = (len(grid) - 1) * subdiv
    return grid[0] + (step / subdiv) * np.arange(n + 1)


def gauge_2d(field, frame: FrameTrajectory, tube: TubeSpec,
             s_arr, tau_arr, subdiv: int = 4) -> np.ndarray:
    """A1(s, tau) = int_0^{eps tau} (1 - t' kappa(s)) B(Phi(s, t')) dt'.

    Composite (cumulative) Simpson on a subdivided tau grid; A1(s, 0) = 0.
    Frame-aligned fields use the exact antiderivative.
    """
    eps = tube.eps
    s_arr = np.asarray(s_arr, dtype=float)
    tau_arr = np.asarray(tau_arr, dtype=float)
    kappa = tube.curve.kappa(s_arr)
    if getattr(field, "frame_aligned", False):
        beta = field.on_axis(frame, s_arr)
        t = eps * tau_arr
        return beta[:, None] * (t[None, :] - kappa[:, None] * t[None, :] ** 2 / 2)
    if field.min_feature() < 4 * eps * (tau_arr[1] - tau_arr[0]) / subdiv:
        raise QuadratureResolutionError(
            "field feature size below gauge quadrature resolution"
        )
    fine = _fine_axis(tau_arr, subdiv)
    data = frame.at(s_arr)
    pos = (
        data["gamma"][:, None, :]
        + eps * fine[None, :, None] * data["nu"][:, None, :]
    )
    Bvals = field.value(pos) * (1.0 - eps * fine[None, :] * kappa[:, None])
    A1_fine = eps * _cumint_from_zero(Bvals, fine, axis=1)
    return A1_fine[:, ::subdiv][:, : len(tau_arr)]


@dataclass
class PulledField:
    """Pullback data of a 3D ambient field through Phi.

    Provides on-axis components and arbitrary-grid samples of the comatrix
    pullback B_curv = tCom(DPhi) B(Phi).  The comatrix convention is used
    consistently off-axis; on the axis it reduces to frame components of B.
    """

    field: object
    frame: FrameTrajectory
    tube: TubeSpec

    def _frames(self, s_arr):
        data = self.frame.at(s_arr)
        th = data["theta"]
        c, sn = np.cos(th), np.sin(th)
        e2 = c[:, None] * data["M2"] + sn[:, None] * data["M3"]
        e3 = -sn[:, None] * data["M2"] + c[:, None] * data["M3"]
        return data, e2, e3

    def on_axis(self, s_arr):
        """(B23, B13, B12)(s, 0, 0) plus d/ds B23(s, 0, 0)."""
        s_arr = np.asarray(s_arr, dtype=float)
        data, e2, e3 = self._frames(s_arr)
        if getattr(self.field, "frame_aligned", False):
            return (
                self.field.beta23(s_arr),
                self.field.beta13(s_arr),
                self.field.beta12(s_arr),
                self.field.beta23.d1(s_arr),
            )
        B = self.field.value(data["gamma"])
        B23 = np.sum(B * data["T"], axis=1)
        B13 = -np.sum(B * e2, axis=1)
        B12 = np.sum(B * e3, axis=1)
        J = self.field.jacobian(data["gamma"])
        k2 = self.tube.curve.kappa2(s_arr)
        k3 = self.tube.curve.kappa3(s_arr)
        Tp = k2[:, None] * data["M2"] + k3[:, None] * data["M3"]
        dB23 = (
            np.einsum("ni,nij,nj->n", data["T"], J, data["T"])
            + np.sum(B * Tp, axis=1)
        )
        return B23, B13, B12, dB23

    def components(self, s_arr, tau2, tau3):
        """Full-grid samples B23, B13, B12 on s x tau2 x tau3 (t = eps tau)."""
        if getattr(self.field, "frame_aligned", False):
            raise NotApplicable(
                "frame-aligned 3D fields have no closed pullback off the axis; "
                "use an ambient (curl-potential) field for full-tube assembly"
            )
        s_arr = np.asarray(s_arr, dtype=float)
        tau2 = np.asarray(tau2, dtype=float)
        tau3 = np.asarray(tau3, dtype=float)
        eps = self.tube.eps
        data, e2, e3 = self._frames(s_arr)
        t2 = eps * tau2
        t3 = eps * tau3
        pos = (
            data["gamma"][:, None, None, :]
            + t2[None, :, None, None] * e2[:, None, None, :]
            + t3[None, None, :, None] * e3[:, None, None, :]
        )
        B = self.field.value(pos)
        curve = self.tube.curve
        th = data["theta"]
        k2 = curve.kappa2(s_arr)
        k3 = curve.kappa3(s_arr)
        ca, sa = np.cos(th), np.sin(th)
        hfac = (
            1.0
            - t2[None, :, None] * (k2 * ca + k3 * sa)[:, None, None]
            - t3[None, None, :] * (-k2 * sa + k3 * ca)[:, None, None]
        )
        tp = curve.theta_prime(s_arr)
        h2 = -t2[None, :, None] * tp[:, None, None] + 0.0 * t3[None, None, :]
        h3 = 0.0 * t2[None, :, None] + t3[None, None, :] * tp[:, None, None]
        dotT = np.einsum("sabj,sj->sab", B, data["T"])
        dot2 = np.einsum("sabj,sj->sab", B, e2)
        dot3 = np.einsum("sabj,sj->sab", B, e3)
        B23 = dotT
        B13 = -(hfac * dot2 + h3 * dotT)
        B12 = hfac * dot3 + h2 * dotT
        return B23, B13, B12


def pullback_field(field, frame: FrameTrajectory, tube: TubeSpec) -> PulledField:
    """Validate support coverage and wrap the comatrix pullback."""
    if field.support_bound() > tube.curve.S / 2:
        raise SupportTruncationError(
            "field support exceeds [-S/2, S/2]; enlarge the arc-length range"
        )
    return PulledField(field=field, frame=frame, tube=tube)


def gauge_3d(pulled: PulledField, tube: TubeSpec, s_arr,
             tau2, tau3, subdiv: int = 4):
    """Explicit transverse-linear gauge of the pulled-back field.

    A2 = -t3 B23(s,0,0)/2
    A3 = -t2 B23(s,0,0)/2 + int_0^{t2} B23(s, u, t3) du
    A1 = -t2 t3 d_s B23(s,0,0)/2 - int_0^{t2} B12(s, u, t3) du
         - int_0^{t3} B13(s, 0, u) du
    All A_j(s, 0) = 0 and the diagonal transverse derivatives vanish at 0.
    Returns arrays on the s x tau2 x tau3 product grid (t = eps tau).
    """
    eps = tube.eps
    s_arr = np.asarray(s_arr, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    tau3 = np.asarray(tau3, dtype=float)
    B23ax, B13ax, B12ax, dB23ax = pulled.on_axis(s_arr)
    t2 = eps * tau2
    t3 = eps * tau3
    A2 = np.broadcast_to(
        -0.5 * t3[None, None, :] * B23ax[:, None, None],
        (len(s_arr), len(tau2), len(tau3)),
    ).copy()
    fine2 = _fine_axis(tau2, subdiv)
    B23f, B13f, B12f = pulled.components(s_arr, fine2, tau3)
    int_B23 = eps * _cumint_from_zero(B23f, fine2, axis=1)
    int_B12 = eps * _cumint_from_zero(B12f, fine2, axis=1)
    sel = slice(None, None, subdiv)
    A3 = -0.5 * t2[None, :, None] * B23ax[:, None, None] + int_B23[:, sel, :]
    A1 = (
        -0.5 * (t2[None, :, None] * t3[None, None, :]) * dB23ax[:, None, None]
        - int_B12[:, sel, :]
    )
    fine3 = _fine_axis(tau3, subdiv)
    _, B13line, _ = pulled.components(s_arr, np.array([0.0]), fine3)
    int_B13 = eps * _cumint_from_zero(B13line[:, 0, :], fine3)
    A1 = A1 - int_B13[:, None, ::subdiv]
    return A1, A2, A3
