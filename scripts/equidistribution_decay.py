#!/usr/bin/env python3
"""Decay of time averages along a non-resonant flow.

Sweeps the averaging window T for omega = (1, sqrt2, sqrt3) and a few integer
monomials, printing the closed-form magnitude next to the analytic envelope
2 / (T |omega . nu|).  Doubling T should halve the envelope; the magnitudes
wobble underneath it.
"""

import argparse

from kronflow import IntVecFin, TorusPoint, equidistribution_report, parse_frequency_spec

SPEC = '{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}'


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-grid", type=float, nargs="+", default=[1e1, 1e2, 1e3, 1e4, 1e5])
    args = ap.parse_args()

    fv = parse_frequency_spec(SPEC)
    nus = [
        IntVecFin.from_list([1, -1, 0]),
        IntVecFin.from_list([2, 0, -1]),
        IntVecFin.from_list([1, 1, 1]),
    ]
    rows = equidistribution_report(fv, nus, args.t_grid, TorusPoint.origin(3))
    print(f"{'nu':>14} {'T':>10} {'|average|':>12} {'bound':>12} pass")
    for r in rows:
        nu_str = ",".join(str(r["nu"].get(str(j), 0)) for j in range(1, 4))
        print(f"{nu_str:>14} {r['T']:>10.0f} {r['magnitude']:>12.3e} {r['bound']:>12.3e} {r['pass']}")


if __name__ == "__main__":
    main()
