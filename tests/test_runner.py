"""Config parsing, rate fits, reproducibility, CLI surface."""

import json
import os

import numpy as np
import pytest

from magtube import cli
from magtube.config import ExperimentConfig
from magtube.errors import ConfigError, FitDomainError
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


def test_cli_cache_commands(tmp_path, capsys):
    from magtube import grids, xsection as xs

    cache = str(tmp_path / "cache")
    xs._MEMO.clear()
    xs.compute_constants(grids.interval(1.0, 0.05), cache_dir=cache)
    assert cli.main(["cache", "inspect", "--dir", cache]) == 0
    out = capsys.readouterr().out
    assert "interval" in out
    assert cli.main(["cache", "clear", "--dir", cache]) == 0
    assert xs.cache_inspect(cache) == []


def test_svg_writer_stable():
    p1 = LinePlot(title="t", xlabel="x", ylabel="y", xlog=True, ylog=True)
    p1.add_series("a", [0.1, 0.01], [1.0, 0.1])
    p2 = LinePlot(title="t", xlabel="x", ylabel="y", xlog=True, ylog=True)
    p2.add_series("a", [0.1, 0.01], [1.0, 0.1])
    assert p1.render() == p2.render()
    assert "<svg" in p1.render() and "polyline" in p1.render()


def test_polygon_section_config(tmp_path):
    from magtube import grids

    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 2:7] = True
    dom = grids.GridDomain(2, 0.1, (-0.4, -0.4), mask, "polygon-mask")
    pfile = tmp_path / "mask.txt"
    grids.write_polygon_file(pfile, dom)
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
        "[field]\nkind = ambient2d\nbumps = 0.0 0.0 6.0 1.0\n"
        "[regime]\nb = 0 0.5 2\n"
        "[solver]\nr = 2.0\nl = 4.0\nds = 0.1\n",  # L < 4R: point failure
    )
    cfg = ExperimentConfig.load(bad_cfg)
    with pytest.raises(PartialFailure) as err:
        run(cfg, out_dir=str(tmp_path / "bad_out"))
    assert "0.5" in str(err.value)  # failing point identified
    assert (tmp_path / "bad_out" / "manifest.json").exists()


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


def test_runner_asymptotics_kind(tmp_path):
    text = f"""
[experiment]
version = 1
kind = asymptotics
seed = 7
out = {tmp_path / 'asym'}

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


def test_runner_nrc_kind_minimal(tmp_path):
    text = f"""
[experiment]
version = 1
kind = nrc-sweep
seed = 7
out = {tmp_path / 'nrc'}

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
delta = 1

[solver]
tol = 1e-3
"""
    cfg = ExperimentConfig.load(write_config(tmp_path / "nrc.ini", text))
    result = run(cfg, out_dir=str(tmp_path / "nrc"))
    table = result["tables"][0]
    assert table.footer["fitted_order_delta_1"] > 0.5
    assert os.path.exists(tmp_path / "nrc" / "nrc_distances.svg")
