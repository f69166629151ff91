"""Experiment configuration: one INI-style structured-text format.

Schema (version 1), sections and keys; lists are whitespace separated and
bump families use ``center width amplitude`` triplets joined by ';':

    [experiment]
    version = 1
    kind = xsection | full2d | full3d | effective | nrc-sweep |
           asymptotics | hardy | stability
    seed = 7
    out = output directory (CLI --out overrides)

    [section]
    shape = interval | square | rectangle | disk | polygon
    h = 0.05
    half_width / a / ax ay / radius = ... (interval / square / rectangle /
                                           disk)
    file = mask.txt                       (polygon)

    [curve]
    dim = 2 | 3
    S = 14.0
    ds = 0.05
    kappa = c w a [; c w a ...]           (2D)
    kappa2 / kappa3 / theta_prime = ...   (3D)

    [field]
    kind = none | frame2d | ambient2d | frame3d | curl3d
    beta = c w a [; ...]                  (frame2d)
    bumps = cx cy w a [; ...]             (ambient2d)
    comp = axis cx cy cz wx wy wz amp [; ...]   (curl3d)
    beta23 / beta13 / beta12 = c w a      (frame3d)

    [regime]
    eps = 0.2 0.1 0.05 0.025              (strictly decreasing for sweeps)
    delta = 0 0.5 1
    b = 0 0.5 1 2 4                       (hardy / stability schedules)
    K = 2.0                               (full2d / full3d / effective: the
                                           shift constant K >= sup kappa^2/2;
                                           default sup kappa^2/2 + 1)

    [solver]
    k = 1 / tol = 1e-3 / R = 2 / L = 10 / ds = 0.05 / J = 2 / mode = 1 /
    coefficient = measured|printed /
    amplitudes = 0.05 0.1 0.2 / b_deform / shift_center / shift_width
                                          (hardy / stability: 2 R and 2 L
                                           are multiples of ds, hardy's
                                           L >= 4 R)

Keys are case-insensitive (``K`` and ``k`` in [regime] are the same key).
KIND_KEYS lists the [regime] and [solver] keys each kind reads.  A section
or key not listed, for the config's kind, is a ConfigError: no code reads it.
So is a section of KIND_UNREAD_SECTIONS: xsection reads no [curve] or
[field], and hardy, whose tubes are straight, no [curve].
A [curve] or [field] whose dimension is not the section's plus one is a
ConfigError, and so is a tube dimension its kind does not run
(KIND_TUBE_DIM), and a [solver] coefficient other than measured or printed,
or printed (the planar T^[2] coefficient) on a spatial tube.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from . import geometry as geo
from . import grids

KINDS = (
    "xsection", "full2d", "full3d", "effective", "nrc-sweep",
    "asymptotics", "hardy", "stability",
)

# Every key the builders below and the runners read, per section; the
# [regime] and [solver] keys per kind.
KEYS = {
    "experiment": {"version", "kind", "seed", "out"},
    "section": {"shape", "h", "half_width", "a", "ax", "ay", "radius", "file"},
    "curve": {"dim", "s", "ds", "kappa", "kappa2", "kappa3", "theta_prime"},
    "field": {"kind", "beta", "bumps", "comp", "beta23", "beta13", "beta12"},
    "regime": set(),
    "solver": set(),
}
_SPECTRUM = {"regime": {"eps", "delta", "k"}, "solver": {"k"}}
KIND_KEYS = {
    "xsection": {},
    "full2d": _SPECTRUM,
    "full3d": _SPECTRUM,
    "effective": {**_SPECTRUM, "solver": {"k", "coefficient"}},
    "nrc-sweep": {"regime": {"eps", "delta"}, "solver": {"tol"}},
    "asymptotics": {"regime": {"eps"}, "solver": {"j", "mode"}},
    "hardy": {"regime": {"b"}, "solver": {"r", "l", "ds"}},
    "stability": {"regime": {"b"}, "solver": {
        "amplitudes", "l", "ds", "b_deform", "shift_center", "shift_width"}},
}
# The sections a kind never reads, whatever their keys.
KIND_UNREAD_SECTIONS = {"xsection": {"curve", "field"}, "hardy": {"curve"}}
# The tube dimension of the kinds that run only one; the others run either.
KIND_TUBE_DIM = {"full2d": 2, "full3d": 3, "asymptotics": 2, "stability": 2}


def _floats(text: str) -> list:
    try:
        return [float(t) for t in text.split()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list: {text!r}") from exc


def _profile(text: str) -> geo.Profile:
    text = text.strip()
    if not text or text == "none":
        return geo.Profile()
    bumps = []
    for part in text.split(";"):
        vals = _floats(part)
        if len(vals) != 3:
            raise ConfigError(f"bump needs 'center width amplitude': {part!r}")
        bumps.append(geo.Bump(*vals))
    return geo.Profile(tuple(bumps))


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out_dir: str
    raw: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"config parse failure: {exc}") from exc
        raw = {s: dict(parser[s]) for s in parser.sections()}
        for section in raw:
            if section not in KEYS:
                raise ConfigError(f"unknown section [{section}]")
        exp = raw.get("experiment", {})
        if exp.get("version", "") != "1":
            raise ConfigError("missing or unsupported schema version "
                              "([experiment] version = 1)")
        kind = exp.get("kind", "")
        if kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {kind!r}; "
                              f"expected one of {KINDS}")
        ignored = sorted(raw.keys() & KIND_UNREAD_SECTIONS.get(kind, set()))
        if ignored:
            raise ConfigError(f"kind {kind} reads no section "
                              + ", ".join(f"[{name}]" for name in ignored))
        for section, keys in raw.items():
            read = KEYS[section] | KIND_KEYS[kind].get(section, set())
            unread = sorted(set(keys) - read)
            if unread:
                raise ConfigError(f"unknown key(s) in [{section}]: "
                                  f"{', '.join(unread)} (kind {kind})")
        seed = int(exp.get("seed", "7"))
        out = exp.get("out", "out")
        cfg = cls(kind=kind, seed=seed, out_dir=out, raw=raw)
        cfg.validate()
        return cfg

    # -- typed accessors ----------------------------------------------------

    def get(self, section: str, key: str, default=None):
        return self.raw.get(section, {}).get(key, default)

    def get_float(self, section, key, default=None):
        v = self.get(section, key)
        return default if v is None else float(v)

    def get_int(self, section, key, default=None):
        v = self.get(section, key)
        return default if v is None else int(v)

    def get_floats(self, section, key, default=()):
        v = self.get(section, key)
        return list(default) if v is None else _floats(v)

    def validate(self):
        sweeps = ("nrc-sweep", "asymptotics")
        eps = self.get_floats("regime", "eps")
        if self.kind in sweeps:
            if len(eps) < 3:
                raise ConfigError(f"{self.kind} needs an eps list (>= 3 points)")
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise ConfigError("eps list must be strictly decreasing")
        if self.kind == "nrc-sweep":
            delta = self.get_floats("regime", "delta", (1.0,))
            if len(set(delta)) < len(delta):
                raise ConfigError("delta list must not repeat a value")
        if self.kind in ("full2d", "full3d", "effective") and not eps:
            raise ConfigError(f"{self.kind} needs a non-empty eps list")
        if self.kind in ("hardy", "stability"):
            if not self.get_floats("regime", "b"):
                raise ConfigError(f"{self.kind} needs a b schedule")
            self.tube_lengths()
        if self.kind not in ("xsection", "hardy") and "curve" not in self.raw:
            raise ConfigError(f"{self.kind} needs a [curve] section")
        if "section" not in self.raw:
            raise ConfigError("missing [section]")
        tube_dim = self.build_section().dim + 1
        for name, build in (("curve", self.build_curve),
                            ("field", self.build_field)):
            obj = build() if name in self.raw else None
            if obj is not None and obj.dim != tube_dim:
                raise ConfigError(
                    f"[{name}] is {obj.dim}D but the [section] makes a "
                    f"{tube_dim}D tube")
        need = KIND_TUBE_DIM.get(self.kind)
        if need is not None and tube_dim != need:
            raise ConfigError(f"kind {self.kind} runs {need}D tubes, not "
                              f"the {tube_dim}D tube of this [section]")
        source = self.get("solver", "coefficient", "measured")
        if source not in ("measured", "printed"):
            raise ConfigError(f"[solver] coefficient = {source!r}; expected "
                              f"measured or printed")
        if source == "printed" and tube_dim != 2:
            raise ConfigError("[solver] coefficient = printed is the planar "
                              "T^[2] coefficient; a spatial tube takes "
                              "measured")

    def tube_lengths(self) -> dict:
        """[solver] ds and the straight tubes' half-lengths r and l (hardy)
        or l (stability), with their defaults; 2 r and 2 l must be
        multiples of ds, and hardy's l at least 4 r."""
        hardy = self.kind == "hardy"
        out = {"ds": self.get_float("solver", "ds", 0.05 if hardy else 0.08),
               "l": self.get_float("solver", "l", 10.0 if hardy else 16.0)}
        if hardy:
            out["r"] = self.get_float("solver", "r", 2.0)
        for key in sorted(out.keys() - {"ds"}):
            try:
                grids._subdivide(2 * out[key], out["ds"])
            except ValueError as exc:
                raise ConfigError(f"[solver] ds = {out['ds']:g} does not "
                                  f"subdivide 2 {key} = {2 * out[key]:g}"
                                  ) from exc
        if hardy and out["l"] < 4 * out["r"]:
            raise ConfigError(f"[solver] l = {out['l']:g} is below "
                              f"4 r = {4 * out['r']:g}")
        return out

    # -- fixture builders ----------------------------------------------------

    def build_section(self) -> grids.GridDomain:
        sec = self.raw.get("section", {})
        shape = sec.get("shape", "interval")
        h = float(sec.get("h", "0.05"))
        if shape == "interval":
            return grids.interval(float(sec.get("half_width", "1.0")), h)
        if shape == "square":
            return grids.square(float(sec.get("a", "1.0")), h)
        if shape == "rectangle":
            return grids.rectangle(float(sec.get("ax", "1.0")),
                                   float(sec.get("ay", "1.0")), h)
        if shape == "disk":
            return grids.disk(float(sec.get("radius", "1.0")), h)
        if shape == "polygon":
            path = sec.get("file")
            if not path:
                raise ConfigError("polygon section needs file = <mask path>")
            return grids.from_polygon_file(path)
        raise ConfigError(f"unknown section shape {shape!r}")

    def build_curve(self) -> geo.CurveProfile:
        cur = self.raw.get("curve", {})
        dim = int(cur.get("dim", "2"))
        S = float(cur.get("s", "10.0"))
        ds = float(cur.get("ds", "0.05"))
        try:
            return geo.CurveProfile(
                dim=dim, S=S, ds=ds,
                kappa=_profile(cur.get("kappa", "")),
                kappa2=_profile(cur.get("kappa2", "")),
                kappa3=_profile(cur.get("kappa3", "")),
                theta_prime=_profile(cur.get("theta_prime", "")),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_field(self):
        fld = self.raw.get("field", {})
        kind = fld.get("kind", "none")
        if kind == "none":
            return None
        if kind == "frame2d":
            return geo.FrameAlignedField2D(_profile(fld.get("beta", "")))
        if kind == "ambient2d":
            bumps = []
            for part in fld.get("bumps", "").split(";"):
                vals = _floats(part)
                if len(vals) != 4:
                    raise ConfigError("ambient2d bump needs 'cx cy width amp'")
                bumps.append(((vals[0], vals[1]), vals[2], vals[3]))
            return geo.AmbientField2D(tuple(bumps))
        if kind == "frame3d":
            return geo.FrameAlignedField3D(
                beta23=_profile(fld.get("beta23", "")),
                beta13=_profile(fld.get("beta13", "")),
                beta12=_profile(fld.get("beta12", "")),
            )
        if kind == "curl3d":
            comps = []
            for part in fld.get("comp", "").split(";"):
                vals = _floats(part)
                if len(vals) != 8:
                    raise ConfigError(
                        "curl3d component needs 'axis cx cy cz wx wy wz amp'"
                    )
                bump = geo.TensorBump3(
                    (vals[1], vals[2], vals[3]), (vals[4], vals[5], vals[6])
                )
                comps.append((int(vals[0]), bump, vals[7]))
            return geo.CurlPotentialField3D(tuple(comps))
        raise ConfigError(f"unknown field kind {kind!r}")

    def echo_lines(self) -> list:
        """Flat, sorted key-value echo for the run manifest."""
        out = []
        for section in sorted(self.raw):
            for key in sorted(self.raw[section]):
                out.append(f"{section}.{key} = {self.raw[section][key]}")
        return out
