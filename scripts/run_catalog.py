#!/usr/bin/env python3
"""Run every built-in scenario across a sweep of primes and report timings.

After the last scenario it prints the process's peak resident set size to
stderr, so that

    PYTHONPATH=src python scripts/run_catalog.py --primes 53 --format json > /dev/null

reads the peak of the p = 53 catalog (ru_maxrss, which Linux gives in KiB).
"""

import argparse
import resource
import sys
import time

from thhlab.scenarios import default_cap, emit_report, list_scenarios, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5])
    parser.add_argument("--cap", type=int, default=None,
                        help="degree cap (default 2p^2 + 4p per prime)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    failed = 0
    for p in args.primes:
        cap = default_cap(p) if args.cap is None else args.cap
        for name, _ in list_scenarios():
            t0 = time.perf_counter()
            report = run_scenario(name, p, cap)
            elapsed = time.perf_counter() - t0
            sys.stdout.buffer.write(emit_report(report, args.format))
            if args.format == "text":
                print(f"  elapsed {elapsed:.2f}s\n")
            if not report.ok:
                failed += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS {peak / 1024:.1f} MiB", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
