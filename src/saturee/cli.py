"""Command line front end."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import NumericalError
from .harness import KINDS, ExperimentSpec, format_csv, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saturee",
        description="Energy-efficiency experiments for the MU-MISO downlink.")
    # Every dest names an ExperimentSpec field. An option left off the
    # command line sets no attribute, so the spec's own default applies.
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", dest="config_path", metavar="CONFIG",
                       required=(kind != "toy"),
                       help="JSON system configuration")
        p.add_argument("--pmin-dbm", type=float)
        p.add_argument("--pmax-dbm", type=float)
        p.add_argument("--pstep-db", type=float)
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--workers", type=int)
        p.add_argument("--bits", action="store_true",
                       help="report rates and efficiencies in base-2 units")
        if kind == "toy":
            p.add_argument("--pstatic", dest="p_static", metavar="PSTATIC",
                           type=float,
                           help="static power of the single-link model")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec(**vars(args))
        points, note = run(spec)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    text = format_csv(points, bits=spec.bits)
    if spec.out:
        try:
            Path(spec.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {spec.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if note:
        print(note)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
