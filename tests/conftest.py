import numpy as np
import pytest

from magtube import geometry as geo
from magtube import grids
from magtube.assemble import RegimeParams


@pytest.fixture(scope="session")
def interval_section():
    return grids.interval(1.0, 1 / 40)


@pytest.fixture(scope="session")
def bent_curve():
    return geo.CurveProfile(dim=2, S=14.0, ds=0.05,
                            kappa=geo.Profile.single(0.0, 2.0, 1.2))


@pytest.fixture(scope="session")
def bent_frame(bent_curve):
    return geo.integrate_frame(bent_curve)


@pytest.fixture(scope="session")
def axis_field():
    """Frame-aligned planar field, slightly off-center for genericity."""
    return geo.FrameAlignedField2D(geo.Profile.single(0.5, 1.5, 0.6))


def make_tube(curve, section, eps, delta=1.0, b=None, K=None):
    return geo.TubeSpec(curve, section,
                        RegimeParams(eps=eps, delta=delta, b=b, K=K))


@pytest.fixture(scope="session")
def write_polygon_file():
    """Writer of the polygon mask format that grids.from_polygon_file
    reads: ``nrows ncols h x0 y0``, then one row of 0/1 per mask row."""

    def write(path, domain):
        lines = [
            f"{domain.mask.shape[0]} {domain.mask.shape[1]} {domain.h:.12g} "
            f"{domain.lo[0]:.12g} {domain.lo[1]:.12g}"
        ]
        for row in domain.mask.astype(int):
            lines.append(" ".join(str(v) for v in row))
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    return write


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def per_line_gauges(monkeypatch):
    """Route every gauge quadrature through a per-line 1D loop of
    ``_cumint_from_zero``: the oracle for the one-call vectorized form."""
    from magtube import hardy

    one_call = geo._cumint_from_zero

    def per_line(y, x, axis=-1):
        y = np.moveaxis(np.asarray(y, dtype=float), axis, -1)
        out = np.empty_like(y)
        for idx in np.ndindex(y.shape[:-1]):
            out[idx] = one_call(y[idx], x)
        return np.moveaxis(out, -1, axis)

    def install():
        monkeypatch.setattr(geo, "_cumint_from_zero", per_line)
        monkeypatch.setattr(hardy, "_cumint_from_zero", per_line)

    return install
