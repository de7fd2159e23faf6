#!/usr/bin/env python3
"""Orbit points creeping up on a solenoid target.

Draws a random target on the solenoid for a = (1, 2, 2, ...), computes the
approximating time sequence, and prints how the flow point at each time
matches the target coordinate by coordinate while the weighted distance drops
below the tail bound 2^-k.
"""

import argparse
import random
from fractions import Fraction

from kronflow import (
    UNIT,
    GeometricWeights,
    SigmaSequence,
    SolenoidCoords,
    SolenoidRule,
    TorusPoint,
    flow,
    product_metric,
    times_and_target,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    a = SigmaSequence((1, 2), "constant", (2,))
    rng = random.Random(args.seed)
    tau = Fraction(rng.randint(0, 119), 120)
    digits = tuple(rng.randrange(a.term(j)) for j in range(2, args.depth + 1))
    coords = SolenoidCoords(tau, digits)
    times, target_pairs = times_and_target(a, coords)
    target = TorusPoint.exact_point([Fraction(p, q) for p, q in target_pairs])
    weights = GeometricWeights(Fraction(1, 2))
    rule, origin = SolenoidRule(UNIT, a), TorusPoint.origin(args.depth)

    print(f"target tau={tau}, digits={digits}")
    print(f"{'k':>3} {'t_k (turns)':>16} {'matching coords':>16} {'d_rho residual':>16} {'tail 2^-k':>12}")
    for k, (p, q) in enumerate(times, start=1):
        t = Fraction(p, q)
        moved = flow(rule, origin, t)
        matched = sum(1 for x, y in zip(moved.angles, target.angles) if x == y)
        residual, _tail = product_metric(weights, moved, target)
        print(f"{k:>3} {str(t):>16} {matched:>16} {float(residual):>16.3e} {2.0**-k:>12.3e}")


if __name__ == "__main__":
    main()
