"""Masked uniform grids for waveguide cross sections.

A :class:`GridDomain` is a uniform lattice over a bounding box with a boolean
inclusion mask marking the nodes strictly inside the cross section.  Nodes
outside the mask carry the Dirichlet value 0.  Grid functions are stored as
flat arrays over the interior nodes, in the order produced by
``numpy.nonzero(mask)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DomainEmpty, DomainNotConnected


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _components4(mask: np.ndarray):
    """Connected components of the True cells of a 2D mask under 4-neighbour
    adjacency: their number and the label of each True cell in C order."""
    idx = np.full(mask.shape, -1, dtype=np.int64)
    n = int(mask.sum())
    idx[mask] = np.arange(n)
    vert = mask[:-1, :] & mask[1:, :]
    horz = mask[:, :-1] & mask[:, 1:]
    rows = np.concatenate([idx[:-1, :][vert], idx[:, :-1][horz]])
    cols = np.concatenate([idx[1:, :][vert], idx[:, 1:][horz]])
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(graph, directed=False)


@dataclass
class GridDomain:
    """Uniform grid with an inclusion mask.

    dim          1 (interval cross section of a planar tube) or 2
    h            lattice spacing
    lo           coordinate of lattice index 0 along each axis
    mask         boolean array over the closed bounding lattice; True = node
                 strictly inside the cross section (boundary ring is False)
    shape_tag    "interval" | "rectangle" | "disk" | "polygon-mask"
    shape_params parameters identifying the shape (for caching/reporting)
    """

    dim: int
    h: float
    lo: tuple
    mask: np.ndarray
    shape_tag: str
    shape_params: tuple = ()
    index_map: np.ndarray = field(init=False, repr=False)
    n: int = field(init=False)

    def __post_init__(self):
        self.mask = _read_only(np.asarray(self.mask, dtype=bool))
        if self.mask.ndim != self.dim:
            raise ValueError("mask dimensionality does not match dim")
        self.n = int(self.mask.sum())
        if self.n == 0:
            raise DomainEmpty(f"mask of shape {self.mask.shape} has no interior node")
        self._check_simply_connected()
        idx = -np.ones(self.mask.shape, dtype=np.int64)
        idx[self.mask] = np.arange(self.n)
        self.index_map = _read_only(idx)

    # -- validation ---------------------------------------------------------

    def _check_simply_connected(self):
        if self.dim == 1:
            if self.mask[0] or self.mask[-1]:
                raise DomainNotConnected("lattice border must stay outside the mask")
            (ones,) = np.nonzero(self.mask)
            if ones[-1] - ones[0] + 1 != len(ones):
                raise DomainNotConnected("1D mask is not a contiguous run")
            return
        border = np.zeros(self.mask.shape, dtype=bool)
        border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
        if (self.mask & border).any():
            raise DomainNotConnected("lattice border must stay outside the mask")
        ncomp, _ = _components4(self.mask)
        if ncomp != 1:
            raise DomainNotConnected(f"mask has {ncomp} connected components")
        # a hole is a complement component that does not touch the border
        ncomp, comp = _components4(~self.mask)
        touching = np.unique(comp[border[~self.mask]])
        if len(touching) != ncomp:
            raise DomainNotConnected("mask has interior holes (not simply connected)")

    # -- coordinates ---------------------------------------------------------

    @property
    def axes(self) -> tuple:
        """1D coordinate arrays of the closed lattice."""
        return tuple(
            self.lo[d] + self.h * np.arange(self.mask.shape[d]) for d in range(self.dim)
        )

    def node_coords(self) -> np.ndarray:
        """Coordinates of interior nodes, shape (n,) in 1D or (n, 2) in 2D."""
        if self.dim == 1:
            return self.axes[0][self.mask]
        X, Y = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([X[self.mask], Y[self.mask]])

    # -- grid functions ------------------------------------------------------

    def inner(self, u, v) -> float:
        """Trapezoidal L2(omega) inner product (boundary values are 0)."""
        return float(self.h**self.dim * np.real(np.vdot(u, v)))

    def norm(self, u) -> float:
        return float(np.sqrt(self.h**self.dim * np.real(np.vdot(u, u))))

    def embed(self, u) -> np.ndarray:
        full = np.zeros(self.mask.shape, dtype=np.asarray(u).dtype)
        full[self.mask] = u
        return full

    # -- lattice links -------------------------------------------------------

    def links(self, axis: int):
        """Lattice links along ``axis`` with at least one interior endpoint.

        Returns (idx_left, idx_right, mid_coords): interior indices (-1 for a
        Dirichlet endpoint outside the mask) and the link midpoint coordinates.
        """
        m = self.mask
        idx = self.index_map
        left = tuple(
            slice(0, -1) if d == axis else slice(None) for d in range(self.dim)
        )
        right = tuple(
            slice(1, None) if d == axis else slice(None) for d in range(self.dim)
        )
        used = m[left] | m[right]
        idx_l = idx[left][used]
        idx_r = idx[right][used]
        grids = np.meshgrid(*self.axes, indexing="ij") if self.dim == 2 else [self.axes[0]]
        mids = []
        for d in range(self.dim):
            g = grids[d]
            gl = g[left][used]
            mids.append(gl + (self.h / 2 if d == axis else 0.0))
        return idx_l, idx_r, np.column_stack(mids) if self.dim == 2 else mids[0]

    # -- derivatives up to the boundary ---------------------------------------

    def gradient_axis(self, u, axis: int) -> np.ndarray:
        """d(u)/d(tau_axis) on the closed lattice, boundary-aware.

        Input/output are full lattice arrays.  Uses centered differences where
        both neighbours are inside, second-order one-sided stencils next to the
        mask boundary, first-order where only one inward neighbour exists.
        Outside-the-mask nodes adjacent to the mask get a one-sided value too
        (the function vanishes there), so integrands that do not vanish on the
        boundary can be integrated with trapezoidal weights.
        """
        m = self.mask
        h = self.h
        u = np.asarray(u, dtype=float)
        g = np.zeros_like(u)
        sh = lambda a, k: np.roll(a, -k, axis=axis)
        # roll wraps around; the outermost lattice ring is never inside the
        # mask for valid domains, so wrapped values are zeros and unused
        mp, mm = sh(m, 1), sh(m, -1)
        mp2, mm2 = sh(m, 2), sh(m, -2)
        up, um = sh(u, 1), sh(u, -1)
        up2, um2 = sh(u, 2), sh(u, -2)
        active = m | mp | mm  # interior plus the Dirichlet ring
        cen = active & mp & mm
        g[cen] = (up[cen] - um[cen]) / (2 * h)
        bwd = active & ~mp & mm & mm2
        g[bwd] = (3 * u[bwd] - 4 * um[bwd] + um2[bwd]) / (2 * h)
        fwd = active & ~mm & mp & mp2
        g[fwd] = (-3 * u[fwd] + 4 * up[fwd] - up2[fwd]) / (2 * h)
        b1 = active & ~mp & mm & ~mm2
        g[b1] = (u[b1] - um[b1]) / h
        f1 = active & ~mm & mp & ~mp2
        g[f1] = (up[f1] - u[f1]) / h
        return g

    def quadrature_weights(self) -> np.ndarray:
        """Trapezoidal weights over the closure (interior + Dirichlet ring).

        Full lattice array; interior nodes weigh h^dim, ring nodes roughly
        half/quarter weight depending on how many interior neighbours they
        have.  Exact for tensor-product boxes; staircase boundaries carry the
        reduced-order error budget of the masked discretization.
        """
        m = self.mask
        w = np.zeros(m.shape, dtype=float)
        w[m] = 1.0
        ring = np.zeros(m.shape, dtype=bool)
        for axis in range(self.dim):
            ring |= np.roll(m, 1, axis=axis) | np.roll(m, -1, axis=axis)
        if self.dim == 2:
            for di in (1, -1):
                for dj in (1, -1):
                    ring |= np.roll(np.roll(m, di, axis=0), dj, axis=1)
        ring &= ~m
        if self.dim == 1:
            w[ring] = 0.5
        else:
            # tensor-grid ring: an edge node (one interior 4-neighbour) weighs
            # 1/2, a corner node (no interior 4-neighbour, diagonal only) 1/4;
            # staircase ring nodes inherit the same rule heuristically
            cnt = np.zeros(m.shape, dtype=int)
            for axis in range(2):
                cnt += np.roll(m, 1, axis=axis).astype(int)
                cnt += np.roll(m, -1, axis=axis).astype(int)
            w[ring] = 0.25 * (1 + np.clip(cnt[ring], 0, 1))
        return w * self.h**self.dim

    def descriptor(self) -> str:
        """Stable text key identifying shape + resolution (cache key).

        A polygon mask is not determined by its parameters, so its key ends
        in a digest of the mask, its shape and ``lo``.
        """
        params = ",".join(f"{p:.12g}" for p in self.shape_params)
        key = f"{self.shape_tag}[{params}]h={self.h:.12g}"
        if self.shape_tag == "polygon-mask":
            content = repr((self.mask.shape, tuple(map(float, self.lo))))
            digest = hashlib.sha256(content.encode() + self.mask.tobytes())
            key += f"#{digest.hexdigest()[:16]}"
        return key


# -- constructors -------------------------------------------------------------


def _subdivide(length: float, h: float) -> int:
    n = int(round(length / h))
    if n < 2 or abs(n * h - length) > 1e-9 * length:
        raise ValueError(f"spacing {h} does not subdivide extent {length}")
    return n


def interval(half_width: float = 1.0, h: float = 0.01) -> GridDomain:
    """Interval (-a, a) as a 1D cross section."""
    n = _subdivide(2 * half_width, h)
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = mask[-1] = False
    return GridDomain(1, h, (-half_width,), mask, "interval", (half_width,))


def rectangle(ax: float = 1.0, ay: float = 1.0, h: float = 0.02) -> GridDomain:
    """Rectangle (-ax, ax) x (-ay, ay)."""
    nx = _subdivide(2 * ax, h)
    ny = _subdivide(2 * ay, h)
    mask = np.zeros((nx + 1, ny + 1), dtype=bool)
    mask[1:-1, 1:-1] = True
    return GridDomain(2, h, (-ax, -ay), mask, "rectangle", (ax, ay))


def square(a: float = 1.0, h: float = 0.02) -> GridDomain:
    return rectangle(a, a, h)


def disk(radius: float = 1.0, h: float = 0.0125) -> GridDomain:
    """Unit-style disk as a staircase mask on a Cartesian lattice."""
    n = _subdivide(2 * radius, h)
    xs = -radius + h * np.arange(n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    mask = X**2 + Y**2 < radius**2
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
    return GridDomain(2, h, (-radius, -radius), mask, "disk", (radius,))


def from_polygon_file(path) -> GridDomain:
    """Read a polygon mask from plain text.

    Format: first line ``nrows ncols h [x0 y0]`` (node counts, spacing,
    optional lower-left node coordinate, default centers the box at 0);
    then ``nrows`` rows of ``ncols`` 0/1 entries.  Nonzero marks an interior
    node; the file's outermost ring must be zero.
    """
    with open(path, "r", encoding="utf-8") as f:
        tokens = f.readline().split()
        if len(tokens) not in (3, 5):
            raise ValueError("polygon header must be 'nrows ncols h [x0 y0]'")
        nr, nc = int(tokens[0]), int(tokens[1])
        h = float(tokens[2])
        rows = []
        for _ in range(nr):
            rows.append([int(t) for t in f.readline().split()])
    mask = np.array(rows, dtype=bool)
    if mask.shape != (nr, nc):
        raise ValueError("polygon mask body does not match declared counts")
    if len(tokens) == 5:
        lo = (float(tokens[3]), float(tokens[4]))
    else:
        lo = (-h * (nr - 1) / 2, -h * (nc - 1) / 2)
    return GridDomain(2, h, lo, mask, "polygon-mask", (float(nr), float(nc)))
