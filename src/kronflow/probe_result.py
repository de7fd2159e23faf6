"""The record ``dynamics.minimality_probe`` returns.

It stays a frozen dataclass, so ``dataclasses.replace`` and ``asdict`` keep
working on a probe result, and it lives in its own module, which the probe
imports when it runs: importing ``kronflow.dynamics`` loads neither
``dataclasses`` nor the ``inspect`` it imports.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ProbeResult:
    hit: bool
    time: float | None
    distance: float
    samples: int
