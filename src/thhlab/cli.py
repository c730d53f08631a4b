"""Command line entry point: run catalog scenarios or scenario files."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .scenarios import (
    Report,
    UnknownScenario,
    default_cap,
    emit_report,
    list_scenarios,
    run_scenario,
)
from .serialize import ParseError, load_scenario_file, run_file_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thhlab",
        description="Run the catalogued page and sequence computations and "
                    "report pass/fail checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="run one scenario, the whole catalog, or a scenario file"
    )
    runp.add_argument("scenario", nargs="?", help="catalog scenario name")
    runp.add_argument("--prime", type=int, default=None,
                      help="odd prime (default 3, or the file's value)")
    runp.add_argument("--cap", type=int, default=None,
                      help="total-degree bound (default 2p^2+4p, or the file's)")
    runp.add_argument("--format", choices=("text", "json"), default="text")
    runp.add_argument("--out", default=None,
                      help="write the report to this file instead of stdout")
    runp.add_argument("--all", action="store_true", help="run every catalog scenario")
    runp.add_argument("--scenario-file", default=None,
                      help="run a scenario from a file (see docs/scenario-format.md)")

    sub.add_parser("list", help="list catalog scenarios")
    return parser


def _assemble(reports: Sequence[Report], format: str) -> bytes:
    if len(reports) == 1:
        return emit_report(reports[0], format)
    if format == "json":
        docs = [json.loads(emit_report(r, "json")) for r in reports]
        return (json.dumps(docs, indent=2) + "\n").encode("utf-8")
    return b"\n".join(emit_report(r, "text") for r in reports)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name, _ in list_scenarios())
        for name, desc in list_scenarios():
            sys.stdout.write(f"{name:<{width}}  {desc}\n")
        return 0

    chosen = [bool(args.scenario), args.all, bool(args.scenario_file)]
    if sum(chosen) != 1:
        parser.error("pass exactly one of: a scenario name, --all, --scenario-file")

    reports: list[Report] = []
    try:
        if args.scenario_file:
            fs = load_scenario_file(args.scenario_file)
            reports.append(run_file_scenario(fs, args.prime, args.cap))
        else:
            prime = 3 if args.prime is None else args.prime
            cap = default_cap(prime) if args.cap is None else args.cap
            names = [n for n, _ in list_scenarios()] if args.all else [args.scenario]
            for name in names:
                reports.append(run_scenario(name, prime, cap))
    except (UnknownScenario, ParseError, OSError, ValueError) as exc:
        sys.stderr.write(f"thhlab: {exc}\n")
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError is one
        detail = f": {exc}" if str(exc) else ""
        sys.stderr.write(f"thhlab: out of memory{detail}\n")
        return 2

    payload = _assemble(reports, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as handle:
                handle.write(payload)
        except OSError as exc:  # exit 1 is kept for a failing check
            sys.stderr.write(f"thhlab: {exc}\n")
            return 2
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0 if all(r.ok for r in reports) else 1
