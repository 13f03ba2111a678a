"""Where the bench scripts write their machine-readable records.

A full run records into the committed ``benchmarks/BENCH_*.json`` file.  A
``--smoke`` run measures a reduced configuration, so unless ``--json`` names
a destination it writes under the git-ignored ``.bench_out/smoke/`` instead
and can never overwrite a committed record.
"""

from __future__ import annotations

import argparse
from pathlib import Path

#: Destination of smoke records written without an explicit ``--json``.
SMOKE_DIR = Path(__file__).resolve().parent.parent / ".bench_out" / "smoke"


def add_record_arguments(
    parser: argparse.ArgumentParser,
    smoke_help: str = "small configuration for CI (seconds, not minutes)",
) -> None:
    """Add the ``--smoke`` and ``--json`` options every bench script shares."""
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument("--json", type=Path, default=None,
                        help="where to write the machine-readable results (default: "
                             "the committed BENCH_*.json, or .bench_out/smoke/ "
                             "with --smoke)")


def resolve_record_path(args: argparse.Namespace, committed: Path) -> None:
    """Fill in ``args.json``: explicit path, smoke path or the committed file."""
    if args.json is None:
        args.json = SMOKE_DIR / committed.name if args.smoke else committed
    args.json.parent.mkdir(parents=True, exist_ok=True)
