"""Config parsing, rate fits, reproducibility, CLI surface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magtube
from magtube import cli, geometry as geo
from magtube.assemble import _blas_pools
from magtube.config import ExperimentConfig
from magtube.errors import ConfigError, FitDomainError, ZeroFieldWarning
from magtube.fitting import fit_order
from magtube.runner import ResultTable, run
from magtube.svgplot import LinePlot


def write_config(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return str(path)


MINI_HARDY = """
[experiment]
version = 1
kind = hardy
seed = 7
out = {out}

[section]
shape = interval
h = 0.1
half_width = 1.0

[field]
kind = ambient2d
bumps = 0.0 0.0 6.0 1.0

[regime]
b = 0 0.5 2

[solver]
r = 2.0
l = 8.0
ds = 0.1
"""


def test_fit_order_examples():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    fit = fit_order(eps, eps)
    assert abs(fit.slope - 1.0) < 1e-12 and fit.ci95 < 1e-10
    fit2 = fit_order(eps, eps**2 + 0.01 * eps**3)
    assert 1.9 <= fit2.slope <= 2.1
    fit3 = fit_order(eps, np.full(4, 3.7))
    assert abs(fit3.slope) < 1e-12
    with pytest.raises(FitDomainError):
        fit_order([0.1, 0.05], [1, 2])
    with pytest.raises(FitDomainError):
        fit_order(eps, [1, 2, -3, 4])


@pytest.mark.parametrize("n", range(3, 13))
def test_fit_order_ci95_is_the_student_t_half_width(n):
    # ci95 reaches the CSV footers, so the Student-t quantile must be the
    # bits of scipy.stats.t.ppf
    from scipy import stats

    rng = np.random.default_rng(n)
    eps = 0.4 * 0.5 ** np.arange(n)
    fit = fit_order(eps, eps**2 * np.exp(0.1 * rng.standard_normal(n)))
    assert fit.ci95 == stats.t.ppf(0.975, n - 2) * fit.stderr


def test_import_loads_only_the_solver_stack():
    # scipy.stats, integrate and ndimage once took half of a cold start
    heavy = ("scipy.stats", "scipy.integrate", "scipy.ndimage",
             "scipy.optimize", "scipy.interpolate", "scipy.spatial")
    code = ("import sys; import magtube.cli, magtube.runner, magtube.hardy, "
            f"magtube.asymptotics; print([m for m in {heavy!r} "
            "if m in sys.modules])")
    src = str(Path(magtube.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.load(tmp_path / "missing.ini")
    bad = write_config(tmp_path / "bad.ini", "[experiment]\nkind = full2d\n")
    with pytest.raises(ConfigError):  # no schema version
        ExperimentConfig.load(bad)
    empty_eps = write_config(
        tmp_path / "noeps.ini",
        "[experiment]\nversion = 1\nkind = nrc-sweep\n"
        "[section]\nshape = interval\nh = 0.1\n"
        "[curve]\ndim = 2\nS = 4.0\nds = 0.2\n[regime]\neps =\n",
    )
    with pytest.raises(ConfigError):
        ExperimentConfig.load(empty_eps)
    increasing = write_config(
        tmp_path / "inc.ini",
        "[experiment]\nversion = 1\nkind = nrc-sweep\n"
        "[section]\nshape = interval\nh = 0.1\n"
        "[curve]\ndim = 2\nS = 4.0\nds = 0.2\n"
        "[regime]\neps = 0.05 0.1 0.2\n",
    )
    with pytest.raises(ConfigError):
        ExperimentConfig.load(increasing)


def test_config_rejects_keys_no_code_reads(tmp_path, capsys):
    # [regime] k_shift is the key the spectrum runner read before K, and
    # [solver] cache_dir the directory of a constants cache on disk that
    # no longer exists
    root = Path(__file__).resolve().parent.parent
    good = MINI_HARDY.format(out=tmp_path / "out")
    disk = (root / "configs" / "xsection_disk.ini").read_text()
    for kind, text, named in (
        ("hardy", good.replace("[regime]\n", "[regime]\nk_shift = 50\n"),
         "[regime]: k_shift"),
        ("hardy",
         good.replace("[solver]\n", "[solver]\nmode_kind = galerkin\n"),
         "[solver]: mode_kind"),
        ("hardy", good + "[solvers]\ntol = 1e-3\n", "[solvers]"),
        ("xsection", disk + "[solver]\ncache_dir = c\n",
         "[solver]: cache_dir"),
    ):
        path = write_config(tmp_path / "extra.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main([kind, "--config", path]) == 2
        assert named in capsys.readouterr().err


def test_config_rejects_keys_its_kind_never_reads(tmp_path, capsys):
    # each key is read by some kind, but not by the config's own: the
    # asymptotics runner always runs at delta = 1, nrc-sweep has no K and
    # hardy no eps; xsection reads no curve or field, and hardy's tubes are
    # straight
    root = Path(__file__).resolve().parent.parent
    asym = (root / "configs" / "asymptotics2d.ini").read_text()
    nrc = (root / "configs" / "nrc2d.ini").read_text()
    disk = (root / "configs" / "xsection_disk.ini").read_text()
    hardy = MINI_HARDY.format(out=tmp_path / "out")
    curve = "[curve]\ndim = 2\nS = 8.0\nds = 0.1\n"
    field = "[field]\nkind = frame2d\nbeta = 0.0 1.0 1.0\n"
    for kind, text, named in (
        ("xsection", disk + curve + field, "[curve], [field]"),
        ("hardy", hardy + curve, "reads no section [curve]"),
        ("asymptotics", asym.replace("[regime]\n", "[regime]\ndelta = 0.5\n"),
         "[regime]: delta"),
        ("nrc-sweep", nrc.replace("[regime]\n", "[regime]\nK = 50\n"),
         "[regime]: k"),
        ("nrc-sweep", nrc.replace("[solver]\n", "[solver]\nk = 2\n"),
         "[solver]: k"),
        ("hardy", hardy.replace("[regime]\n", "[regime]\neps = 0.1 0.05\n"),
         "[regime]: eps"),
    ):
        path = write_config(tmp_path / f"{kind}.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main([kind, "--config", path]) == 2
        assert named in capsys.readouterr().err


def test_config_rejects_keys_of_another_field_kind_or_shape(tmp_path,
                                                            capsys):
    # each key is read by some field kind (shape), but not by the config's
    # own; every one ran and wrote the shipped CSV before
    root = Path(__file__).resolve().parent.parent
    eff = (root / "configs" / "effective2d.ini").read_text()
    disk = (root / "configs" / "xsection_disk.ini").read_text()
    hardy = MINI_HARDY.format(out=tmp_path / "out")
    for kind, text, named in (
        ("effective",
         eff.replace("[field]\n", "[field]\nbumps = 0.0 0.0 6.0 9.0\n"),
         "[field] kind = frame2d reads no key bumps"),
        ("effective",
         eff.replace("[field]\n", "[field]\nbeta23 = 0 1 5\n"),
         "[field] kind = frame2d reads no key beta23"),
        ("effective",
         eff.replace("kind = frame2d", "kind = none"),
         "[field] kind = none reads no key beta"),
        ("hardy", hardy.replace("[section]\n", "[section]\na = 2.0\n"),
         "[section] shape = interval reads no key a"),
        ("xsection",
         disk.replace("[section]\n", "[section]\nhalf_width = 2.0\n"),
         "[section] shape = disk reads no key half_width"),
    ):
        path = write_config(tmp_path / f"{kind}.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main([kind, "--config", path]) == 2
        assert named in capsys.readouterr().err
    # the shipped configs read every key they hold
    for path in sorted((root / "configs").glob("*.ini")):
        ExperimentConfig.load(path)


def test_config_rejects_a_hardy_tube_shorter_than_4_r(tmp_path, capsys):
    # verify_hardy wants L >= 4 R; the config says so before the first point
    text = MINI_HARDY.format(out=tmp_path / "out").replace("l = 8.0", "l = 6.0")
    path = write_config(tmp_path / "hardy.ini", text)
    with pytest.raises(ConfigError, match=re.escape("l = 6 is below 4 r = 8")):
        ExperimentConfig.load(path)
    assert cli.main(["hardy", "--config", path]) == 2
    assert "l = 6 is below 4 r = 8" in capsys.readouterr().err


def test_config_rejects_a_ds_that_does_not_subdivide_the_tubes(tmp_path,
                                                               capsys):
    # [solver] r and l of hardy, l of stability, set or defaulted, must be
    # multiples of [solver] ds, which is set or defaulted too
    root = Path(__file__).resolve().parent.parent
    hardy = MINI_HARDY.format(out=tmp_path / "out")
    stability = (root / "configs" / "stability2d.ini").read_text()
    for kind, text, named in (
        ("hardy", hardy.replace("ds = 0.1", "ds = 0.07"),
         "ds = 0.07 does not subdivide 2 l = 16"),
        ("hardy", hardy.replace("l = 8.0", "l = 8.03"), "2 l = 16.06"),
        ("hardy", hardy.replace("r = 2.0\n", "r = 2.03\n")
         .replace("ds = 0.1\n", ""), "ds = 0.05 does not subdivide 2 r"),
        ("stability", stability.replace("l = 16.0", "l = 16.02"),
         "2 l = 32.04"),
        ("stability", stability.replace("l = 16.0\nds = 0.08", "ds = 0.07"),
         "ds = 0.07 does not subdivide 2 l = 32"),
    ):
        path = write_config(tmp_path / f"{kind}.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main([kind, "--config", path]) == 2
        assert named in capsys.readouterr().err


def test_shipped_configs_load():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "configs").glob("*.ini"))
    assert len(paths) == 7
    for path in paths + [root / "perfbench" / "fixtures" / "hardy3d.ini"]:
        ExperimentConfig.load(str(path))


SPATIAL_CURVE = "[curve]\ndim = 3\nS = 8.0\nds = 0.1\nkappa2 = 0.0 2.0 0.5\n"
DISK_SECTION = "[section]\nshape = disk\nh = 0.125\nradius = 1.0\n"
CURL3D_FIELD = ("[field]\nkind = curl3d\n"
                "comp = 2 0.0 0.0 0.0 6.0 6.0 6.0 3.0\n")


def _with_blocks(text, **blocks):
    """``text`` with each INI block ``[name]`` replaced by ``blocks[name]``."""
    for header, block in blocks.items():
        text = re.sub(rf"\[{header}\]\n(?:[^\[]*\n)?(?=\[|\Z)",
                      block + "\n", text)
    return text


FULL2D = """
[experiment]
version = 1
kind = full2d
out = {out}

[section]
shape = interval
h = 0.1

[curve]
dim = 2
S = 4.0
ds = 0.1

[regime]
eps = 0.2
"""


def test_config_rejects_a_tube_of_another_dimension(tmp_path, capsys):
    # a stability config with a spatial curve, a disk section and a curl3d
    # field died in the planar deformation with an IndexError; a full2d
    # config with a spatial curve failed at its first point with exit 1
    root = Path(__file__).resolve().parent.parent
    out = f"out = {tmp_path / 'out'}"
    stability = (root / "configs" / "stability2d.ini").read_text().replace(
        "out = out/stab2d", out)
    full2d = FULL2D.format(out=tmp_path / "out")
    for kind, text, named in (
        ("stability", _with_blocks(stability, curve=SPATIAL_CURVE,
                                   section=DISK_SECTION, field=CURL3D_FIELD),
         "kind stability runs 2D tubes, not the 3D"),
        ("full2d", _with_blocks(full2d, curve=SPATIAL_CURVE,
                                section=DISK_SECTION),
         "kind full2d runs 2D tubes, not the 3D"),
        ("full2d", _with_blocks(full2d, curve=SPATIAL_CURVE),
         "[curve] is 3D but the [section] makes a 2D tube"),
        ("stability", _with_blocks(stability, field=CURL3D_FIELD),
         "[field] is 3D but the [section] makes a 2D tube"),
    ):
        path = write_config(tmp_path / f"{kind}.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main([kind, "--config", path]) == 2
        assert named in capsys.readouterr().err


def _shipped(name, tmp_path):
    """The text of ``configs/<name>.ini`` writing under ``tmp_path``."""
    root = Path(__file__).resolve().parent.parent
    text = (root / "configs" / f"{name}.ini").read_text()
    return re.sub(r"(?m)^out = .*$", f"out = {tmp_path / 'out'}", text)


def test_config_rejects_regime_values_no_run_accepts(tmp_path, capsys):
    # nrc2d with delta = 1.5 failed at its first point (exit 1), leaving a
    # partial CSV; effective2d with delta = 2 or eps = 0 exited 1, and with
    # eps = -0.1 exited 0 and wrote rows of b = -10
    nrc2d, effective2d = (_shipped(name, tmp_path)
                          for name in ("nrc2d", "effective2d"))
    for kind, text, named in (
        ("nrc-sweep", nrc2d.replace("delta = 0 0.5 1", "delta = 0 0.5 1.5"),
         "delta = 0 0.5 1.5: every delta must be <= 1"),
        ("effective", effective2d.replace("delta = 1", "delta = 2"),
         "delta = 2: every delta must be <= 1"),
        ("effective", effective2d.replace("eps = 0.1", "eps = 0"),
         "eps = 0: every eps must be > 0"),
        ("effective", effective2d.replace("eps = 0.1", "eps = -0.1"),
         "eps = -0.1: every eps must be > 0"),
    ):
        path = write_config(tmp_path / f"{kind}.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main([kind, "--config", path]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_rejects_a_curve_profile_of_the_other_dimension(tmp_path,
                                                              capsys):
    # effective2d with a kappa2 or theta_prime wrote the shipped CSV, the
    # key silently ignored; full2d with theta_prime exited 1
    effective2d = _shipped("effective2d", tmp_path)
    full3d = _shipped("full3d", tmp_path)
    for kind, text, named in (
        ("effective", effective2d.replace("kappa = 0.0 2.0 1.2",
                                          "kappa2 = 0.0 2.0 5.0"),
         "a 2D curve takes no kappa2 profile"),
        ("effective", effective2d.replace(
            "kappa = 0.0 2.0 1.2", "kappa = 0.0 2.0 1.2\nkappa3 = 0 1 0\n"
            "theta_prime = 0.0 2.0 1.0"),
         "a 2D curve takes no kappa3, theta_prime profile"),
        ("full2d", FULL2D.format(out=tmp_path / "out").replace(
            "ds = 0.1\n", "ds = 0.1\ntheta_prime = 0.0 2.0 1.0\n", 1),
         "a 2D curve takes no theta_prime profile"),
        ("full3d", full3d.replace("kappa2 = 0.0 2.0 0.5",
                                  "kappa = 0.0 2.0 0.5"),
         "a 3D curve takes no kappa profile"),
    ):
        path = write_config(tmp_path / f"{kind}.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main([kind, "--config", path]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="a 3D curve takes no kappa"):
        geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                         kappa=geo.Profile.single(0.0, 2.0, 0.5))


def test_config_checks_the_coefficient_source(tmp_path, capsys):
    # a misspelled source ran the printed coefficient, and a spatial tube ran
    # the measured T^[3] under a "printed" footer; both exited 0
    root = Path(__file__).resolve().parent.parent
    planar = (root / "configs" / "effective2d.ini").read_text().replace(
        "out = out/effective2d", f"out = {tmp_path / 'out'}")
    spatial = _with_blocks(planar, curve=SPATIAL_CURVE, section=DISK_SECTION,
                           field=CURL3D_FIELD)
    for text, named in (
        (planar.replace("coefficient = measured", "coefficient = measurd"),
         "coefficient = 'measurd'; expected measured or printed"),
        (spatial.replace("coefficient = measured", "coefficient = printed"),
         "a spatial tube takes measured"),
    ):
        path = write_config(tmp_path / "effective.ini", text)
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.load(path)
        assert cli.main(["effective", "--config", path]) == 2
        assert named in capsys.readouterr().err
    ExperimentConfig.load(write_config(tmp_path / "effective.ini", spatial))


def test_check_targets_reads_the_nrc_order_footers():
    table = ResultTable("nrc_distances", ["delta", "eps", "b", "distance",
                                          "converged"])
    table.footer.update({"fitted_order_delta_0": 0.85,
                         "target_order_delta_0": 0.8,
                         "fitted_order_delta_0.5": 0.45,
                         "target_order_delta_0.5": 0.4})
    assert cli._check_targets([table])
    table.footer["fitted_order_delta_0.5"] = 0.35
    assert not cli._check_targets([table])


def test_check_targets_reads_the_conclusive_footer():
    table = ResultTable("large_b", ["b", "lam1", "discrete_empty"])
    table.footer["conclusive"] = False
    assert not cli._check_targets([table])
    table.footer["conclusive"] = True
    assert cli._check_targets([table])


def test_hardy_runner_certifies_b_0(tmp_path):
    # b = 0 solves the (real, positive definite) pencil like every other b
    from magtube import hardy

    cfg = ExperimentConfig.load(write_config(
        tmp_path / "hardy.ini", MINI_HARDY.format(out=tmp_path / "out")))
    table = run(cfg, out_dir=str(tmp_path / "out"))["tables"][0]
    row = dict(zip(table.columns, table.rows[0]))
    assert row["b"] == 0.0
    with pytest.warns(ZeroFieldWarning):
        cert = hardy.verify_hardy(cfg.build_section(), cfg.build_field(), 0.0,
                                  R=2.0, L=8.0, ds=0.1)
    assert row["mu_min"] == cert.mu_min > 0
    assert row["margin"] == cert.margin and row["pass"]


def test_hardy_c_R_prints_at_the_resolution_of_lam1_dn(tmp_path, monkeypatch):
    # at small b, c_R is a multiple of a gap lam1_dn - lam1 ~ 4e-5 of two
    # eigenvalues near 2.47: gaps 1e-10 apart (relative), far below the
    # resolution of the printed lam1_dn, print the same c_R
    from magtube import hardy

    lam1, C = 2.46613301349753, hardy.cutoff_constant()

    def certificate(section, field, b, R, L, ds):
        gap = 4.1234567e-5 * (1.0 + 1e-10 * b)
        c_R = gap / (1.0 + C / R**2)
        return hardy.HardyCertificate(R=R, b=b, lam1_dn=lam1 + gap,
                                      cutoff_C=C, c_R=c_R, mu_min=0.1,
                                      margin=0.1 - c_R, passed=True)

    monkeypatch.setattr(hardy, "verify_hardy", certificate)
    cfg = ExperimentConfig.load(write_config(
        tmp_path / "hardy.ini",
        MINI_HARDY.format(out=tmp_path / "out").replace("b = 0 0.5 2",
                                                        "b = 0 1")))
    run(cfg, out_dir=str(tmp_path / "out"))
    csv_path = tmp_path / "out" / "hardy_certificates.csv"
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:3]]
    assert rows[0]["c_R"] == rows[1]["c_R"] != "0"


def test_result_table_formatting(tmp_path):
    t = ResultTable("demo", ["a", "b"])
    t.add(1.0 / 3.0, True)
    t.footer["slope"] = 2.0
    path = tmp_path / "demo.csv"
    t.write_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "0.333333333333,1" in text
    assert "# slope = 2" in text


def test_run_reproducible_bytes(tmp_path):
    cfg_path = write_config(tmp_path / "hardy.ini",
                            MINI_HARDY.format(out=tmp_path / "o1"))
    cfg = ExperimentConfig.load(cfg_path)
    run(cfg, out_dir=str(tmp_path / "o1"))
    run(cfg, out_dir=str(tmp_path / "o2"))
    a = (tmp_path / "o1" / "hardy_certificates.csv").read_bytes()
    b = (tmp_path / "o2" / "hardy_certificates.csv").read_bytes()
    assert a == b
    svg_a = (tmp_path / "o1" / "hardy_certificates.svg").read_bytes()
    svg_b = (tmp_path / "o2" / "hardy_certificates.svg").read_bytes()
    assert svg_a == svg_b


def test_manifest_echoes_config(tmp_path):
    cfg_path = write_config(tmp_path / "hardy.ini",
                            MINI_HARDY.format(out=tmp_path / "out"))
    cfg = ExperimentConfig.load(cfg_path)
    run(cfg, out_dir=str(tmp_path / "out"))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["schema"] == "magtube-manifest v1"
    assert manifest["seed"] == 7
    assert any(line.startswith("regime.b") for line in manifest["config"])
    assert "hardy_certificates.csv" in manifest["outputs"]
    assert manifest["versions"]["magtube"]
    # the BLAS pools found, each at the one thread the run holds it at
    assert manifest["blas"] == {
        "pools": {name: 1 for name, _, _ in _blas_pools()}}
    # the process's peak resident set so far, in MiB
    assert 10 < manifest["peak_rss_mb"] < 1e5


def test_cli_exit_codes(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "hardy.ini",
                            MINI_HARDY.format(out=tmp_path / "cli_out"))
    rc = cli.main(["hardy", "--config", cfg_path,
                   "--out", str(tmp_path / "cli_out"), "--check"])
    assert rc == 0
    rc = cli.main(["full2d", "--config", cfg_path])
    assert rc == 2  # kind mismatch is a config error
    rc = cli.main(["hardy", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2


def test_svg_writer_stable():
    p1 = LinePlot(title="t", xlabel="x", ylabel="y", xlog=True, ylog=True)
    p1.add_series("a", [0.1, 0.01], [1.0, 0.1])
    p2 = LinePlot(title="t", xlabel="x", ylabel="y", xlog=True, ylog=True)
    p2.add_series("a", [0.1, 0.01], [1.0, 0.1])
    assert p1.render() == p2.render()
    assert "<svg" in p1.render() and "polyline" in p1.render()


def test_polygon_section_config(tmp_path, write_polygon_file):
    from magtube import grids

    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 2:7] = True
    dom = grids.GridDomain(2, 0.1, (-0.4, -0.4), mask, "polygon-mask")
    pfile = tmp_path / "mask.txt"
    write_polygon_file(pfile, dom)
    cfg_path = write_config(
        tmp_path / "xs.ini",
        "[experiment]\nversion = 1\nkind = xsection\nseed = 3\n"
        f"out = {tmp_path / 'xs_out'}\n"
        f"[section]\nshape = polygon\nfile = {pfile}\n",
    )
    cfg = ExperimentConfig.load(cfg_path)
    result = run(cfg, out_dir=str(tmp_path / "xs_out"))
    table = result["tables"][0]
    names = [r[2] for r in table.rows]
    assert "lam1" in names and "p" in names and "kappa_mag" in names


def test_partial_flush_on_sweep_failure(tmp_path):
    # a mid-sweep failure flushes completed rows and names the failing point
    from magtube.runner import PartialFailure

    bad_cfg = write_config(
        tmp_path / "bad_sweep.ini",
        "[experiment]\nversion = 1\nkind = hardy\nseed = 7\n"
        f"out = {tmp_path / 'bad_out'}\n"
        "[section]\nshape = interval\nh = 0.1\nhalf_width = 1.0\n"
        # a bump narrower than the gauge quadrature step: b = 0 needs no
        # gauge and certifies, b = 0.5 fails
        "[field]\nkind = ambient2d\nbumps = 0.0 0.0 0.05 1.0\n"
        "[regime]\nb = 0 0.5 2\n"
        "[solver]\nr = 2.0\nl = 8.0\nds = 0.1\n",
    )
    cfg = ExperimentConfig.load(bad_cfg)
    with pytest.raises(PartialFailure) as err:
        run(cfg, out_dir=str(tmp_path / "bad_out"))
    assert "0.5" in str(err.value)  # failing point identified
    assert (tmp_path / "bad_out" / "manifest.json").exists()


def test_nrc_sweep_names_the_point_of_a_set_up_failure(tmp_path):
    # the tube skeleton is built at the first sweep point, so a curvature
    # support past S/2 fails as that point and still leaves a manifest
    from magtube.errors import SupportTruncationError
    from magtube.runner import PartialFailure

    cfg = ExperimentConfig.load(write_config(
        tmp_path / "wide.ini",
        "[experiment]\nversion = 1\nkind = nrc-sweep\nseed = 7\n"
        f"out = {tmp_path / 'wide_out'}\n"
        "[section]\nshape = interval\nh = 0.1\nhalf_width = 1.0\n"
        "[curve]\ndim = 2\nS = 6.0\nds = 0.1\nkappa = 0.0 4.0 1.0\n"
        "[regime]\neps = 0.2 0.1 0.05\ndelta = 1\n",
    ))
    with pytest.raises(PartialFailure) as err:
        run(cfg, out_dir=str(tmp_path / "wide_out"))
    assert err.value.point == (1.0, 0.2)
    assert isinstance(err.value.original, SupportTruncationError)
    for name in ("manifest.json", "nrc_distances.partial.csv"):
        assert (tmp_path / "wide_out" / name).exists()


def test_runner_full2d_and_effective(tmp_path):
    text = """
[experiment]
version = 1
kind = {kind}
seed = 7
out = {out}

[section]
shape = interval
h = 0.05
half_width = 1.0

[curve]
dim = 2
S = 6.0
ds = 0.1
kappa = 0.0 1.5 1.0

[field]
kind = frame2d
beta = 0.2 1.0 0.5

[regime]
eps = 0.1
delta = 1
K = 50

[solver]
k = 2
"""
    for kind, table_name in (("full2d", "spectrum_full2d"),
                             ("effective", "spectrum_effective")):
        out = tmp_path / kind
        cfg = ExperimentConfig.load(write_config(
            tmp_path / f"{kind}.ini", text.format(kind=kind, out=out)))
        result = run(cfg, out_dir=str(out))
        table = result["tables"][0]
        assert table.name == table_name
        assert len(table.rows) == 2
        cols = table.columns
        assert cols[:4] == ["eps", "delta", "b", "K"]
        assert "discrete" in cols
        assert [row[3] for row in table.rows] == [50.0, 50.0]


MINI_ASYM = """
[experiment]
version = 1
kind = asymptotics
seed = 7
out = {out}

[section]
shape = interval
h = 0.05

[curve]
dim = 2
S = 8.0
ds = 0.1
kappa = 0.0 2.0 1.2

[field]
kind = frame2d
beta = 0.5 1.5 0.6

[regime]
eps = 0.1 0.07 0.05

[solver]
j = 2
mode = 1
"""


def test_runner_asymptotics_kind(tmp_path):
    text = MINI_ASYM.format(out=tmp_path / "asym")
    cfg = ExperimentConfig.load(write_config(tmp_path / "asym.ini", text))
    result = run(cfg, out_dir=str(tmp_path / "asym"))
    names = {t.name: t for t in result["tables"]}
    gam = names["gamma_coefficients"]
    byj = {row[1]: row[2] for row in gam.rows}
    assert abs(byj[-2] - np.pi**2 / 4) < 1e-2
    assert byj[-1] == 0.0
    assert byj[0] < 0.0
    res = names["quasimode_residuals"]
    assert res.footer["fitted_order"] >= 2.8
    assert os.path.exists(tmp_path / "asym" / "quasimode_residuals.svg")


def test_gamma_rows_print_at_the_resolution_of_gamma_0(tmp_path, monkeypatch):
    # gamma_1 is an exact 0 that the expansion returns as roundoff of either
    # sign; rows past j = 0 print at the absolute resolution of the gamma_0
    # row, and a rounded -0 prints as 0
    from types import SimpleNamespace

    from magtube import asymptotics as asym

    gammas = [(-2, 2.46683744177), (-1, 0.0), (0, -0.0691905487894),
              (1, -5.26915584648e-15), (2, -0.0295799906878123)]
    qm = SimpleNamespace(gamma_table=lambda: gammas, fredholm_defect=8e-13)
    eps_list = [0.1, 0.07, 0.05]
    tracking = [(eps, 1.0, 1.0, eps**3) for eps in eps_list]
    monkeypatch.setattr(asym, "eigenvalue_expansion", lambda *a, **kw: (
        qm, tracking, [1.0] * len(eps_list), [eps**3 for eps in eps_list]))
    cfg = ExperimentConfig.load(write_config(
        tmp_path / "asym.ini", MINI_ASYM.format(out=tmp_path / "out")))
    run(cfg, out_dir=str(tmp_path / "out"))
    lines = (tmp_path / "out" / "gamma_coefficients.csv").read_text()
    assert lines.splitlines()[1:6] == [
        "1,-2,2.46683744177", "1,-1,0", "1,0,-0.0691905487894", "1,1,0",
        "1,2,-0.0295799906878"]


MINI_NRC = """
[experiment]
version = 1
kind = nrc-sweep
seed = 7
out = {out}

[section]
shape = interval
h = 0.05

[curve]
dim = 2
S = 8.0
ds = 0.1
kappa = 0.0 2.0 1.0

[field]
kind = frame2d
beta = 0.2 1.2 0.5

[regime]
eps = 0.2 0.1 0.05
delta = {delta}

[solver]
tol = 1e-3
"""


def test_runner_nrc_kind_minimal(tmp_path):
    text = MINI_NRC.format(out=tmp_path / "nrc", delta="1")
    cfg = ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text))
    result = run(cfg, out_dir=str(tmp_path / "nrc"))
    table = result["tables"][0]
    assert table.footer["fitted_order_delta_1"] > 0.5
    assert os.path.exists(tmp_path / "nrc" / "nrc_distances.svg")


def test_nrc_sweep_starts_every_point_cold(tmp_path, monkeypatch):
    # no point passes a start vector: each starts from the channel-Galerkin
    # maximizer of its own operators, never from another point's maximizer
    from magtube import operators as ops

    calls = []

    def record(opA, opB, **kwargs):
        delta, eps = opA.regime.delta, opA.regime.eps
        calls.append(((delta, eps), sorted(kwargs)))
        return eps * (1 + delta), {"converged": True,
                                   "vector": ("maximizer", delta, eps)}

    monkeypatch.setattr(ops, "resolvent_distance", record)
    text = MINI_NRC.format(out=tmp_path / "nrc", delta="0 0.5 1")
    run(ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text)),
        out_dir=str(tmp_path / "nrc"))
    assert calls == [((delta, eps), ["seed", "tol"])
                     for delta in (0.0, 0.5, 1.0) for eps in (0.2, 0.1, 0.05)]


def test_nrc_sweep_rows_do_not_depend_on_the_delta_order(tmp_path):
    # a point's row is a function of its own (delta, eps): the sweeps
    # delta = 1 0, 0 1 and 1 write the same bytes for every shared point
    rows = {}
    for delta in ("1 0", "0 1", "1"):
        out = tmp_path / delta.replace(" ", "_")
        text = MINI_NRC.format(out=out, delta=delta)
        run(ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text)),
            out_dir=str(out))
        lines = (out / "nrc_distances.csv").read_text().splitlines()
        rows[delta] = {tuple(line.split(",")[:2]): line for line in lines[1:]
                       if not line.startswith("#")}
    assert len(rows["1 0"]) == len(rows["0 1"]) == 6 and len(rows["1"]) == 3
    assert rows["1 0"] == rows["0 1"]
    for point, line in rows["1"].items():
        assert rows["1 0"][point] == line, point


def test_nrc_sweep_builds_one_galerkin_operator_per_subcritical_delta(
        tmp_path, monkeypatch):
    # below delta = 1 the Galerkin operator does not depend on eps, so the
    # sweep builds it once per delta; at delta = 1 once per point
    from magtube import operators as ops

    built, used = [], []
    assemble = ops.assemble_effective

    def count(tube, *args, **kwargs):
        built.append((tube.regime.delta, tube.regime.eps))
        return assemble(tube, *args, **kwargs)

    def record(opA, opB, tol, seed):
        used.append((opA.regime.delta, opB))
        return opA.regime.eps, {"converged": True, "vector": None}

    monkeypatch.setattr(ops, "assemble_effective", count)
    monkeypatch.setattr(ops, "resolvent_distance", record)
    text = MINI_NRC.format(out=tmp_path / "nrc", delta="0 0.5 1")
    run(ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text)),
        out_dir=str(tmp_path / "nrc"))
    assert built == [(0.0, 0.2), (0.5, 0.2), (1.0, 0.2), (1.0, 0.1),
                     (1.0, 0.05)]
    for delta, distinct in ((0.0, 1), (0.5, 1), (1.0, 3)):
        assert len({id(op) for d, op in used if d == delta}) == distinct


def test_nrc_sweep_rejects_a_repeated_delta(tmp_path, monkeypatch):
    # a repeated delta would solve its points twice and fit each order over
    # the duplicates; each point is one row, and each delta's fit reads its
    # own points
    from magtube import operators as ops

    text = MINI_NRC.format(out=tmp_path / "nrc", delta="1 1")
    with pytest.raises(ConfigError, match="delta list must not repeat"):
        ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text))
    monkeypatch.setattr(
        ops, "resolvent_distance",
        lambda opA, opB, tol, seed: (
            opA.regime.eps ** (1 + opA.regime.delta),
            {"converged": True, "vector": None}))
    text = MINI_NRC.format(out=tmp_path / "nrc", delta="0 1")
    table = run(ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text)),
                out_dir=str(tmp_path / "nrc"))["tables"][0]
    assert [row[:2] for row in table.rows] == [
        (delta, eps) for delta in (0.0, 1.0) for eps in (0.2, 0.1, 0.05)]
    for delta in (0, 1):
        assert table.footer[f"fitted_order_delta_{delta}"] == \
            pytest.approx(1 + delta)
        assert table.footer[f"fitted_order_ci95_delta_{delta}"] < 1e-12


def test_nrc_sweep_reproducible_bytes(tmp_path):
    # every point starts from its own operators; nothing else reaches a row
    text = MINI_NRC.format(out=tmp_path / "o1", delta="0 1")
    cfg = ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text))
    run(cfg, out_dir=str(tmp_path / "o1"))
    run(cfg, out_dir=str(tmp_path / "o2"))
    a = (tmp_path / "o1" / "nrc_distances.csv").read_bytes()
    assert a == (tmp_path / "o2" / "nrc_distances.csv").read_bytes()


def test_nrc_sweep_bytes_do_not_depend_on_the_seed(tmp_path):
    # every point starts from the channel-Galerkin maximizer of its
    # operators, so no start vector is drawn from the seed
    text = MINI_NRC.format(out=tmp_path / "s7", delta="0 1")
    cfg = ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text))
    run(cfg, out_dir=str(tmp_path / "s7"), seed=7)
    run(cfg, out_dir=str(tmp_path / "s8"), seed=8)
    a = (tmp_path / "s7" / "nrc_distances.csv").read_bytes()
    assert a == (tmp_path / "s8" / "nrc_distances.csv").read_bytes()


MINI_FULL3D = """
[experiment]
version = 1
kind = full3d
seed = 7
out = {out}

[section]
shape = square
h = 0.1
a = 0.85

[curve]
dim = 3
S = 1.5
ds = 0.1
kappa2 = 0.0 0.5 0.5
theta_prime = 0.2 0.5 0.5

[field]
kind = curl3d
comp = 2 0.0 0.2 -0.1 0.5 0.5 0.5 1.0

[regime]
eps = 0.1
delta = 1

[solver]
k = 1
"""


def test_nrc_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OPENBLAS_NUM_THREADS = 1 and 2 set the ambient pools of two fresh
    # processes; the run pins every solve to one thread, so the bytes agree
    # (the asymptotics run adds the eps-expansion's contour sums and sparse
    # products, the full3d runs a complex band of kd = 288 on a field and a
    # twist: one band of 3,328 rows between the straight ends, and a longer
    # field whose rest of 7,936 rows splits in two halves on two threads)
    configs = {
        "nrc-sweep": MINI_NRC.format(out=tmp_path / "o", delta="0 1"),
        "asymptotics": MINI_ASYM.format(out=tmp_path / "o"),
        "full3d": MINI_FULL3D.format(out=tmp_path / "o"),
        "full3d-split": MINI_FULL3D.format(out=tmp_path / "o").replace(
            "S = 1.5", "S = 3.0").replace("-0.1 0.5", "-0.1 1.5"),
    }
    src = str(Path(magtube.__file__).resolve().parent.parent)
    for name, text in configs.items():
        kind = name.split("-split")[0]
        cfg_path = write_config(tmp_path / f"{name}.ini", text)
        csv = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"{name}-t{threads}"
            subprocess.run([sys.executable, "-m", "magtube.cli", kind,
                            "--config", cfg_path, "--out", str(out)],
                           env=env, check=True, capture_output=True,
                           timeout=600)
            csv[threads] = {p.name: p.read_bytes()
                            for p in sorted(out.glob("*.csv"))}
        assert csv["1"] and csv["1"] == csv["2"]
