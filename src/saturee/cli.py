"""Command line front end."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import NumericalError
from .harness import KINDS, ExperimentSpec, format_csv, run


# ExperimentSpec field -> its option and the option's argparse keywords.
_OPTIONS = {
    "config_path": ("--config", dict(metavar="CONFIG", required=True,
                                     help="JSON system configuration")),
    "pmin_dbm": ("--pmin-dbm", dict(type=float)),
    "pmax_dbm": ("--pmax-dbm", dict(type=float)),
    "pstep_db": ("--pstep-db", dict(type=float)),
    "trials": ("--trials", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "workers": ("--workers", dict(type=int)),
    "p_static": ("--pstatic", dict(metavar="PSTATIC", type=float,
                                   help="static power of the single-link model")),
    "out": ("--out", dict(help="CSV output path (default: stdout)")),
    "bits": ("--bits", dict(action="store_true", help="report rates and "
                            "efficiencies in base-2 units")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saturee",
        description="Energy-efficiency experiments for the MU-MISO downlink.")
    # Each kind takes the options of the fields it reads.  One left off the
    # command line sets no attribute, so the spec's own default applies.
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, reads in KINDS.items():
        p = sub.add_parser(kind, argument_default=argparse.SUPPRESS)
        for dest in reads + ("out", "bits"):
            flag, options = _OPTIONS[dest]
            p.add_argument(flag, dest=dest, **options)
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
