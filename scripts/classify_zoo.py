#!/usr/bin/env python3
"""Classify a small zoo of frequency vectors and print their orbit closures.

Covers the classical examples: finite rational vectors (tori), the factorial
and odd-indexed-prime product rules (solenoids with distinct invariants), a
mixed free/non-free product construction, and a dyadic integrable-flow
spectrum (circle x solenoid).
"""

import json
from fractions import Fraction

from kronflow import (
    UNIT,
    BoRule,
    Generator,
    RationalSequenceSpec,
    SigmaSequence,
    SolenoidRule,
    SubgroupOfQSpec,
    build_product_vector,
    classification_report,
    decompose_module,
    parse_frequency_spec,
)

ZOO = {
    "torus T^3 (1, sqrt2, sqrt3)": parse_frequency_spec(
        '{"kind":"finite","terms":[{"1":"1"},{"sqrt2":"1"},{"sqrt3":"1"}]}'
    ),
    "harmonic prefix (1, 1/2, 1/3)": parse_frequency_spec(
        '{"kind":"finite","terms":[{"1":"1"},{"1":"1/2"},{"1":"1/3"}]}'
    ),
    "factorial rule 1/j!": SolenoidRule(UNIT, SigmaSequence((1,), "increment")),
    "odd-indexed prime rule": SolenoidRule(UNIT, SigmaSequence((1,), "odd_indexed_primes")),
    "product Z + Z[1/2]": build_product_vector(
        [SubgroupOfQSpec(free_generator=Fraction(1)), SubgroupOfQSpec(qa=SigmaSequence((1,), "constant", (2,)))]
    ),
    "dyadic quadratic spectrum": BoRule(
        Generator("beta", "opaque"), RationalSequenceSpec((), Fraction(1, 2), Fraction(1, 2))
    ),
}


def main() -> None:
    for name, fv in ZOO.items():
        rep = classification_report(fv, 16)
        closure = json.dumps(rep["closure"])
        print(f"{name:32} rank={rep['rank']} free={rep['free']} closure={closure}")
    fact = ZOO["factorial rule 1/j!"]
    odd = ZOO["odd-indexed prime rule"]
    print(
        "\nfactorial vs odd-indexed closures homeomorphic:",
        decompose_module(fact, 16).closure_homeomorphic(decompose_module(odd, 16)),
    )


if __name__ == "__main__":
    main()
