"""Command-line front end.

Subcommands mirror the experiment kinds:

    magtube xsection   --config cfg.ini [--out DIR] [--seed S] [--check]
    magtube full2d     ...
    magtube full3d     ...
    magtube effective  ...
    magtube nrc-sweep  ...
    magtube asymptotics ...
    magtube hardy      ...
    magtube stability  ...

Exit codes: 0 pass, 1 computation error, 2 config error, 3 acceptance-check
failure (a sweep whose fitted order or certificate misses its target, or a
stability run whose large-b crossing is inconclusive).
"""

from __future__ import annotations

import argparse
import sys

from .config import KINDS, ExperimentConfig
from .errors import ConfigError, MagtubeError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magtube",
        description="magnetic quantum-waveguide spectral laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--check", action="store_true",
                       help="exit 3 when a footer target is missed")
    return parser


def _check_targets(tables) -> bool:
    """Footer-driven pass/fail: fitted orders vs target_order (nominal, 0.2
    slack) and target_order_delta_<d> (lower bounds), ``conclusive``
    footers, pass columns."""
    ok = True
    for table in tables:
        target = table.footer.get("target_order")
        if target is not None:
            fitted = table.footer.get("fitted_order")
            if fitted is not None and fitted < float(target) - 0.2:
                ok = False
        for key, bound in table.footer.items():
            if key.startswith("target_order_delta_"):
                ok &= table.footer["fitted" + key[len("target"):]] >= bound
        if "conclusive" in table.footer:
            ok &= bool(table.footer["conclusive"])
        if "pass" in table.columns:
            idx = table.columns.index("pass")
            ok &= all(bool(r[idx]) for r in table.rows)
    return ok


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.load(args.config)
        if config.kind != args.command:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand "
                f"{args.command!r}"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    from .runner import run

    try:
        result = run(config, out_dir=args.out, seed=args.seed)
    except MagtubeError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    for table in result["tables"]:
        print(f"wrote {table.name}.csv ({len(table.rows)} rows)")
        for key in sorted(table.footer):
            print(f"  {key} = {table.footer[key]}")
    if args.check and not _check_targets(result["tables"]):
        print("acceptance targets missed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
