#!/usr/bin/env python3
"""Monte Carlo cross-check of the exact whole-coup statistics.

Simulates each pure (action-at-5, assumed-rule) scenario and reports the
z-score of every empirical rate against its exact value.  All runs are
seeded, so the output is reproducible bit for bit.

Usage: python scripts/montecarlo_check.py [--coups N] [--seed S]
"""

from __future__ import annotations

import argparse
import time
from fractions import Fraction

from chemin import (
    CoupPolicy,
    FiveAction,
    PlayerRule,
    SimConfig,
    best_response_table,
    coup_stats,
    simulate,
)
from chemin.rational import render_decimal, render_sqrt


def at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}: {value}")
        return value

    return integer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coups", type=at_least(1), default=1_000_000)
    parser.add_argument("--seed", type=at_least(0), default=2026)
    args = parser.parse_args()

    print(f"{args.coups} coups per scenario, base seed {args.seed}\n")
    worst = Fraction(0)
    for index, (action, assumed) in enumerate(
        (a, v) for a in FiveAction for v in PlayerRule
    ):
        policy = CoupPolicy.for_action(action, best_response_table(assumed))
        exact = coup_stats(policy)
        started = time.perf_counter()
        result = simulate(SimConfig(coups=args.coups, seed=args.seed + index, policy=policy))
        elapsed = time.perf_counter() - started

        label = f"{action.name.lower():5s} at 5 vs assumed {assumed.name.lower().replace('_', '-')}"
        print(f"{label}  ({elapsed:.1f}s)")
        pairs = [
            ("W", result.wins, exact.win),
            ("T", result.ties, exact.tie),
            ("L", result.losses, exact.loss),
        ]
        for name, count, truth in pairs:
            empirical = Fraction(count, args.coups)
            z_squared = (empirical - truth) ** 2 / (truth * (1 - truth) / args.coups)
            worst = max(worst, z_squared)
            z = ("-" if empirical < truth else "+") + render_sqrt(z_squared, 2)
            print(f"  {name}: empirical {render_decimal(empirical, 6)} vs exact {render_decimal(truth, 6)}  (z = {z})")
    print(f"\nlargest |z| = {render_sqrt(worst, 2)} (anything under ~4 is unremarkable)")


if __name__ == "__main__":
    main()
