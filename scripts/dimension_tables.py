#!/usr/bin/env python3
"""Print dimension tables for the divided-power tower page: the starting
bigraded page, the stable page after the declared differential family, and
the single-graded answers those totals collapse onto."""

import argparse

from thhlab.graded_algebra import hilbert
from thhlab.scenarios import _log_answer, _tower_answer, _tower_base, _tower_rules, default_cap
from thhlab.spectral_sequence import run_differential
from thhlab.tor_engine import fp_module, tor_closed_form


def tower_page(p, cap):
    base, left = _tower_base(p)
    return tor_closed_form(base, left, fp_module(base), cap)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prime", type=int, default=3)
    parser.add_argument("--cap", type=int, default=None,
                        help="degree cap (default 2p^2 + 4p)")
    parser.add_argument("--classes-through", type=int, default=None,
                        help="list stable classes up to this total degree")
    args = parser.parse_args(argv)
    p = args.prime
    cap = default_cap(p) if args.cap is None else args.cap

    start = tower_page(p, cap)
    stable = run_differential(tower_page(p, cap), _tower_rules(p, cap))
    answer = hilbert(_tower_answer(p), cap)
    log_answer = hilbert(_log_answer(p), cap)

    print(f"tower page over p={p}, cap={cap}")
    print(f"{'n':>4} {'start':>6} {'stable':>7} {'answer':>7} {'log':>6}")
    start_totals = start.total_dims(cap)
    stable_totals = stable.total_dims(cap)
    for n in range(cap + 1):
        print(f"{n:>4} {start_totals[n]:>6} {stable_totals[n]:>7}"
              f" {answer[n]:>7} {log_answer[n]:>6}")

    bound = args.classes_through
    if bound is None:
        bound = min(cap, 4 * p * p)
    print(f"\nstable classes through total degree {bound} (s, t): basis")
    for (s, t), d in sorted(stable.bigraded_dims(cap).items(),
                            key=lambda kv: (sum(kv[0]), kv[0])):
        if not d or s + t > bound:
            continue
        names = ", ".join(stable.format_key(k) for k in stable.keys_at(s, t))
        print(f"  ({s:>2}, {t:>3}): {names}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
