#!/usr/bin/env python3
"""Print the sha256 of every report a set of `thhlab run` calls writes.

    python3 scripts/report_digests.py --primes 3 5 7 --caps 300 600
    python3 scripts/report_digests.py --primes 17 23 --formats json

For each prime of --primes it runs `thhlab run --all --prime P`, and for
each cap of --caps it runs thhz, thh-ell-log and thh-ku-ss at
--page-prime (default 3) and that cap, each in every format of --formats.
It prints one line per report, `run format sha256`, in a fixed order.
Run it on two checkouts (with their src/ on PYTHONPATH) and `diff` the
outputs to see whether a change keeps every report byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import tempfile

from thhlab import cli

PAGE_TURN_SCENARIOS = ("thhz", "thh-ell-log", "thh-ku-ss")


def runs(primes, caps, page_prime):
    """(run name, cli arguments) of every run, catalog runs first."""
    for p in primes:
        yield f"all-p{p}", ["run", "--all", "--prime", str(p)]
    for cap in caps:
        for name in PAGE_TURN_SCENARIOS:
            yield (f"{name}-p{page_prime}-cap{cap}",
                   ["run", name, "--prime", str(page_prime), "--cap", str(cap)])


def digest(argv: list[str], fmt: str, out_path: str) -> str:
    """The sha256 of the report that `thhlab argv --format fmt` writes."""
    cli.main(argv + ["--format", fmt, "--out", out_path])
    with open(out_path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", type=int, nargs="*", default=[],
                        help="primes of the --all runs")
    parser.add_argument("--caps", type=int, nargs="*", default=[],
                        help="caps of the page-turn scenario runs")
    parser.add_argument("--page-prime", type=int, default=3,
                        help="prime of the page-turn scenario runs")
    parser.add_argument("--formats", nargs="+", choices=("json", "text"),
                        default=["json", "text"])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "report")
        for name, run_argv in runs(args.primes, args.caps, args.page_prime):
            for fmt in args.formats:
                print(name, fmt, digest(run_argv, fmt, out_path), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
