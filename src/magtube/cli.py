"""Command-line front end.

Subcommands mirror the experiment kinds plus cache maintenance:

    magtube xsection   --config cfg.ini [--out DIR] [--seed S] [--check]
    magtube full2d     ...
    magtube full3d     ...
    magtube effective  ...
    magtube nrc-sweep  ...
    magtube asymptotics ...
    magtube hardy      ...
    magtube stability  ...
    magtube cache inspect|clear --dir CACHEDIR

Exit codes: 0 pass, 1 computation error, 2 config error, 3 acceptance-check
failure (a sweep whose fitted order or certificate misses its target).
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
    pc = sub.add_parser("cache", help="inspect or clear the constants cache")
    pc.add_argument("action", choices=("inspect", "clear"))
    pc.add_argument("--dir", required=True, help="cache directory")
    return parser


def _check_targets(tables) -> bool:
    """Footer-driven pass/fail: fitted orders vs *_target keys, pass columns."""
    ok = True
    for table in tables:
        target = table.footer.get("target_order")
        if target is not None:
            fitted = table.footer.get("fitted_order")
            if fitted is not None and fitted < float(target) - 0.2:
                ok = False
        if "pass" in table.columns:
            idx = table.columns.index("pass")
            ok &= all(bool(r[idx]) for r in table.rows)
    return ok


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cache":
        from .xsection import cache_clear, cache_inspect

        if args.action == "inspect":
            for name, key in cache_inspect(args.dir):
                print(f"{name}  {key}")
        else:
            n = cache_clear(args.dir)
            print(f"removed {n} cached entries")
        return 0
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
