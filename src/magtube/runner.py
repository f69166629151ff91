"""Experiment driver: sweeps, result tables, plots, manifest.

Every experiment is a pure function of its config and seed; CSV outputs are
byte-reproducible (fixed float formatting, deterministic row order), and the
run manifest echoes the full config plus library versions so each table is
reconstructible from the manifest alone.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__
from .assemble import RegimeParams, blas_report, blas_threads
from .config import ExperimentConfig
from .errors import MagtubeError, ZeroFieldWarning
from .fitting import fit_order
from .svgplot import LinePlot


# Significant digits of every float a CSV prints.
DIGITS = 12


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.{DIGITS}g}"
    return str(v)


def _at_resolution_of(v: float, ref: float) -> float:
    """``v`` rounded to the last decimal place that _fmt prints of ``ref``,
    the absolute resolution of a difference of two values near ``ref``.
    Adding 0.0 turns a rounded -0.0 into 0."""
    return round(v, DIGITS - 1 - math.floor(math.log10(abs(ref)))) + 0.0


@dataclass
class ResultTable:
    name: str
    columns: list
    rows: list = field(default_factory=list)
    footer: dict = field(default_factory=dict)

    def add(self, *vals):
        if len(vals) != len(self.columns):
            raise ValueError("row width does not match the schema")
        self.rows.append(tuple(vals))

    def write_csv(self, path):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        for key in sorted(self.footer):
            lines.append(f"# {key} = {_fmt(self.footer[key])}")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")


class PartialFailure(MagtubeError):
    """A sweep point failed; completed tables are flushed before re-raise."""

    def __init__(self, point, original, tables):
        super().__init__(f"failure at sweep point {point}: {original}")
        self.point = point
        self.original = original
        self.tables = tables


def _sweep(points, worker, on_result=None, tables=()):
    """Run sweep points in order; on error identify the point and carry the
    partially filled tables for flushing."""
    results = []
    for p in points:
        try:
            r = worker(p)
        except Exception as exc:
            raise PartialFailure(p, exc, list(tables)) from exc
        results.append(r)
        if on_result is not None:
            on_result(p, r)
    return results


@blas_threads(1)
def run(config: ExperimentConfig, out_dir: str | None = None,
        seed: int | None = None) -> dict:
    """Execute one experiment; returns {tables, artifacts, elapsed}.

    The run holds every BLAS pool at one thread, so its CSV bytes do not
    depend on OPENBLAS_NUM_THREADS."""
    out = out_dir or config.out_dir
    os.makedirs(out, exist_ok=True)
    seed = seed if seed is not None else config.seed
    t0 = time.time()
    runner = _RUNNERS[config.kind]
    try:
        tables, artifacts = runner(config, out, seed)
    except PartialFailure as exc:
        # flush whatever completed before surfacing the failing point
        for table in exc.tables:
            table.write_csv(os.path.join(out, f"{table.name}.partial.csv"))
        _write_manifest(config, out,
                        [f"{t.name}.partial.csv" for t in exc.tables],
                        seed, time.time() - t0)
        raise
    elapsed = time.time() - t0
    written = []
    for table in tables:
        path = os.path.join(out, f"{table.name}.csv")
        table.write_csv(path)
        written.append(path)
    written.extend(artifacts)
    _write_manifest(config, out, written, seed, elapsed)
    return {"tables": tables, "artifacts": written, "elapsed": elapsed}


def _write_manifest(config, out, written, seed, elapsed):
    manifest = {
        "schema": "magtube-manifest v1",
        "kind": config.kind,
        "seed": seed,
        "config": config.echo_lines(),
        "versions": {
            "magtube": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": sorted(os.path.basename(p) for p in written),
        "elapsed_s": round(elapsed, 3),
        # the process's peak resident set so far (ru_maxrss is in KiB)
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "blas": blas_report(),
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


# -- experiments -------------------------------------------------------------------


def _run_xsection(config, out, seed):
    from . import xsection as xs

    section = config.build_section()
    consts = xs.compute_constants(section)
    table = ResultTable(
        "xsection_constants",
        ["descriptor", "backend", "name", "value"],
    )
    for name, val in consts.scalar_items().items():
        table.add(consts.descriptor, consts.backend, name, val)
    for key, val in consts.meta.items():
        if isinstance(val, float):
            table.footer[key] = val
    table.footer["note"] = consts.meta.get("note", "")
    return [table], []


def _spectrum_rows(table, op, spec, extra):
    for i, lam in enumerate(spec.eigenvalues):
        table.add(*extra, i + 1, float(lam - op.shift),
                  float(spec.residuals[i]), bool(spec.discrete_flags[i]))


def _run_spectrum(config, out, seed):
    """Lowest eigenvalues of the full2d, full3d or effective operator over
    the (delta, eps) grid, shifted by the configured ``K``."""
    from . import geometry as geo, operators as ops

    section = config.build_section()
    curve = config.build_curve()
    fieldobj = config.build_field()
    frame = geo.integrate_frame(curve)
    kind = config.kind
    k = config.get_int("solver", "k", 2 if kind == "full3d" else 3)
    K = config.get_float("regime", "k")
    eps_list = config.get_floats("regime", "eps")
    delta_list = config.get_floats("regime", "delta", (1.0,))
    source = config.get("solver", "coefficient", "measured")
    table = ResultTable(
        f"spectrum_{kind}",
        ["eps", "delta", "b", "K", "n", "eigenvalue", "residual", "discrete"],
    )

    def point(pt):
        delta, eps = pt
        tube = geo.TubeSpec(curve, section,
                            RegimeParams(eps=eps, delta=delta, K=K))
        if kind == "effective":
            op = ops.assemble_effective(tube, fieldobj, frame=frame,
                                        coefficient_source=source)
        else:
            op = ops.assemble_full(tube, fieldobj, frame=frame)
        spec = ops.smallest_eigenpairs(op, k=k, sigma=0.0, seed=seed)
        _spectrum_rows(table, op, spec,
                       (eps, delta, tube.regime.b, op.meta["K"]))

    _sweep([(d, e) for d in delta_list for e in eps_list], point,
           tables=(table,))
    if kind == "effective":
        table.footer["coefficient_source"] = source
    return [table], []


# Lower bounds on the fitted eps-order of the resolvent distance, per curve
# dimension and delta: the thresholds of acceptance criterion 4.
NRC_TARGET_ORDERS = {2: {0.0: 0.8, 0.5: 0.4, 1.0: 0.8}, 3: {0.0: 0.6, 1.0: 0.6}}


def _run_nrc_sweep(config, out, seed):
    from . import geometry as geo, operators as ops

    section = config.build_section()
    curve = config.build_curve()
    fieldobj = config.build_field()
    frame = geo.integrate_frame(curve)
    eps_list = config.get_floats("regime", "eps")
    delta_list = config.get_floats("regime", "delta", (1.0,))
    tol = config.get_float("solver", "tol", 1e-3)
    table = ResultTable(
        "nrc_distances",
        # converged is always 1: an unconverged Lanczos raises instead
        ["delta", "eps", "b", "distance", "converged"],
    )
    plot = LinePlot(title="norm-resolvent distance", xlabel="eps",
                    ylabel="|| inv difference ||", xlog=True, ylog=True)
    # Every point starts cold, from the channel-Galerkin maximizer of its own
    # operators (not from ``seed``), so each row depends only on its
    # (delta, eps), not on the sweep order.
    # delta -> its Galerkin operator off the critical regime, where the field
    # drops out and the operator does not depend on eps
    galerkin = {}
    skeleton = None

    def point(pt):
        nonlocal skeleton
        delta, eps = pt
        if skeleton is None:  # at the first point: its errors name the point
            skeleton = ops.TubeSkeleton(curve, section, frame, fieldobj)
        tube = geo.TubeSpec(curve, section, RegimeParams(eps=eps, delta=delta))
        opA = ops.assemble_full(tube, fieldobj, skeleton=skeleton)
        opB = galerkin.get(delta)
        if opB is None:
            opB = ops.assemble_effective(tube, fieldobj, frame=frame,
                                         mode="galerkin")
            if not tube.regime.critical:
                galerkin[delta] = opB
        dist, info = ops.resolvent_distance(opA, opB, tol=tol, seed=seed)
        return (delta, eps, tube.regime.b, dist, info["converged"])

    points = [(d, e) for d in delta_list for e in eps_list]
    results = _sweep(points, point, on_result=lambda p, r: table.add(*r),
                     tables=(table,))
    for delta in delta_list:
        sub = [r for r in results if r[0] == delta]
        fit = fit_order([r[1] for r in sub], [r[3] for r in sub])
        table.footer[f"fitted_order_delta_{delta:g}"] = fit.slope
        table.footer[f"fitted_order_ci95_delta_{delta:g}"] = fit.ci95
        target = NRC_TARGET_ORDERS[curve.dim].get(delta)
        if target is not None:
            table.footer[f"target_order_delta_{delta:g}"] = target
        plot.add_series(f"delta={delta:g}", [r[1] for r in sub],
                        [r[3] for r in sub])
    table.footer["effective_mode"] = "galerkin"
    svg = os.path.join(out, "nrc_distances.svg")
    plot.save(svg)
    return [table], [svg]


def _run_asymptotics(config, out, seed):
    from . import asymptotics as asym, geometry as geo

    section = config.build_section()
    curve = config.build_curve()
    fieldobj = config.build_field()
    frame = geo.integrate_frame(curve)
    J = config.get_int("solver", "j", 2)
    mode = config.get_int("solver", "mode", 1)
    eps_list = config.get_floats("regime", "eps")
    tube = geo.TubeSpec(curve, section, RegimeParams(eps=eps_list[0], delta=1.0))
    qm, rows, overlaps, residuals = asym.eigenvalue_expansion(
        tube, fieldobj, mode, J, eps_list, frame=frame)
    gamma_table = ResultTable("gamma_coefficients", ["n", "j", "gamma"])
    gammas = qm.gamma_table()
    gamma_0 = dict(gammas)[0]
    for j, g in gammas:
        # rows past j = 0 print at the absolute resolution of the gamma_0
        # row, so gamma_1, an exact 0, prints 0 and not its roundoff
        gamma_table.add(mode, j,
                        _at_resolution_of(g, gamma_0) if j >= 1 else g)
    gamma_table.footer["fredholm_defect"] = qm.fredholm_defect
    gamma_table.footer["effective_coefficient_source"] = "measured"
    track = ResultTable(
        "eigenvalue_tracking",
        ["eps", "lambda_shifted", "Gamma", "abs_diff", "overlap"],
    )
    for (eps, lam, gam, diff), ovl in zip(rows, overlaps):
        track.add(eps, lam, gam, diff, ovl)
    fit = fit_order([r[0] for r in rows], [max(r[3], 1e-300) for r in rows])
    track.footer["fitted_order"] = fit.slope
    res_table = ResultTable("quasimode_residuals", ["eps", "residual"])
    for eps, res in zip(eps_list, residuals):
        res_table.add(eps, res)
    fit2 = fit_order([r[0] for r in res_table.rows],
                     [r[1] for r in res_table.rows])
    res_table.footer["fitted_order"] = fit2.slope
    res_table.footer["target_order"] = J + 1
    plot = LinePlot(title=f"quasimode residual (J={J})", xlabel="eps",
                    ylabel="residual", xlog=True, ylog=True)
    plot.add_series("residual", [r[0] for r in res_table.rows],
                    [r[1] for r in res_table.rows])
    svg = os.path.join(out, "quasimode_residuals.svg")
    plot.save(svg)
    return [gamma_table, track, res_table], [svg]


def _run_hardy(config, out, seed):
    from . import hardy

    section = config.build_section()
    fieldobj = config.build_field()
    lengths = config.tube_lengths()
    R, L, ds = lengths["r"], lengths["l"], lengths["ds"]
    b_list = config.get_floats("regime", "b")
    table = ResultTable(
        "hardy_certificates",
        ["R", "b", "lam1_dn", "C", "c_R", "mu_min", "margin", "pass"],
    )

    def point(b):
        with warnings.catch_warnings():
            # c_R = 0 at b = 0 is the expected degenerate case, still certified
            warnings.simplefilter("ignore", ZeroFieldWarning)
            return hardy.verify_hardy(section, fieldobj, b, R, L, ds=ds)

    certs = _sweep(list(b_list), point, tables=(table,))
    for cert in certs:
        # c_R is a multiple of lam1_dn - lam1(omega): at small b, digits
        # below lam1_dn's printed resolution are eigensolver roundoff
        c_R = _at_resolution_of(cert.c_R, cert.lam1_dn)
        table.add(cert.R, cert.b, cert.lam1_dn, cert.cutoff_C, c_R,
                  cert.mu_min, cert.margin, cert.passed)
    plot = LinePlot(title="Hardy certification", xlabel="b", ylabel="value")
    bs = [c.b for c in certs]
    plot.add_series("c_R(b)", bs, [max(c.c_R, 1e-300) for c in certs])
    plot.add_series("mu_min(b)", bs, [max(c.mu_min or 0, 1e-300) for c in certs])
    svg = os.path.join(out, "hardy_certificates.svg")
    plot.save(svg)
    table.footer["limit_quarter"] = 0.25 / (1 + hardy.cutoff_constant() / R**2)
    return [table], [svg]


def _run_stability(config, out, seed):
    from . import geometry as geo, hardy

    section = config.build_section()
    curve = config.build_curve()
    fieldobj = config.build_field()
    b_list = config.get_floats("regime", "b")
    amplitudes = config.get_floats("solver", "amplitudes", (0.05, 0.1, 0.2))
    lengths = config.tube_lengths()
    L, ds = lengths["l"], lengths["ds"]
    dspec = hardy.DeformationSpec(
        e2=geo.Profile.single(
            config.get_float("solver", "shift_center", 0.0),
            config.get_float("solver", "shift_width", 3.0),
            1.0,
        )
    )
    b_def = config.get_float("solver", "b_deform", max(b_list))
    rep_def = hardy.deformation_experiment(section, fieldobj, b_def, dspec,
                                           amplitudes, L=L, ds=ds, seed=seed)
    t_def = ResultTable(
        "deformation",
        ["amplitude", "b", "lam1", "threshold", "budget", "below_threshold"],
    )
    for row in rep_def["rows"]:
        t_def.add(row["amplitude"], b_def, row["lam1"], row["threshold"],
                  row["budget"], row["below"])
    t_def.footer["admissible_amplitudes"] = " ".join(
        _fmt(a) for a in rep_def["admissible"])
    tube = geo.TubeSpec(curve, section, RegimeParams(eps=1.0, delta=0.0, b=0.0))
    rep_b = hardy.large_b_experiment(tube, fieldobj, b_list, seed=seed)
    t_b = ResultTable("large_b", ["b", "lam1", "discrete_empty"])
    for row in rep_b["rows"]:
        t_b.add(row["b"], row["lam1"], row["empty"])
    t_b.footer["crossing_b"] = rep_b["crossing_b"] if rep_b["conclusive"] else "none"
    t_b.footer["conclusive"] = rep_b["conclusive"]
    t_b.footer["trend_slope"] = rep_b["trend_slope"]
    t_b.footer["threshold"] = rep_b["lam1_omega"]
    t_b.footer["budget"] = rep_b["budget"]
    return [t_def, t_b], []


_RUNNERS = {
    "xsection": _run_xsection,
    "full2d": _run_spectrum,
    "full3d": _run_spectrum,
    "effective": _run_spectrum,
    "nrc-sweep": _run_nrc_sweep,
    "asymptotics": _run_asymptotics,
    "hardy": _run_hardy,
    "stability": _run_stability,
}
