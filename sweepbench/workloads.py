"""Seeded sweep plans for the three benchmark workloads.

A workload is a list of rounds; a round is a fixed pattern of CLI sweeps
whose parameter values come from the seed.  Runs always execute whole
rounds, so the share of points a workload refuses is a property of the
program, not of how many sweeps happened to fit in the time window.

Why each workload exists (see BENCHMARK.json for the one-line version):

* ``tscan-quartic`` -- ``tscan`` at N=50 with the VAR_JX readout.  Almost
  all of a point's time is the quadruple-minor sum behind <J_x^4>, so a
  change to that sum must show here.
* ``tscan-pairs`` -- ``tscan`` at N=300 without VAR_JX.  Never calls the
  fourth moment; its time is the N Toeplitz pair determinants of var_jx.
  It is the "predict no change" workload for quadruple-minor work, and it
  runs the pair sums at large N where ``tscan-quartic`` runs many small ones.
* ``phase-map`` -- the README's 41x41 ``phase-diagram`` at N=50.  Each
  point costs about a millisecond, so per-point overhead (stencil
  ensembles, kernel rebuilds, row emission) dominates.  The grid at
  T=0.05 contains the known Var(J_z) underflow at gamma=0, h/J>=1.9, which
  aborts the sweep with exit code 3; those rows count as failed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TSCAN_TEMPS = "0.05:5:6:log"  # log temperatures in 0.05-5, T=0.05 included
PHASE_GAMMA = "-1:1:41"
PHASE_FIELD = "0:2:41"
PHASE_COLD = "0.05"  # the phase-diagram default temperature
EXTRA_TEMP_RANGE = (0.1, 2.0)  # seeded extra phase-map temperatures, log-uniform
# the intersections of the lines gamma in {0, +-1} and h/J in {0, 1, 2}
LINE_POINTS = tuple((g, h) for g in (-1.0, 0.0, 1.0) for h in (0.0, 1.0, 2.0))

WORKLOADS = {
    "tscan-quartic": {"sites": 50, "obs": "crb,varjx,meanjz"},
    "tscan-pairs": {"sites": 300, "obs": "crb,meanjz"},
    "phase-map": {"sites": 50, "obs": "crb,meanjz"},
}

# sweeps of round 0 that a traced run replays (fixed work, so counts repeat)
TRACE_SWEEPS = {"tscan-quartic": 10, "tscan-pairs": 10, "phase-map": 4}


def axis(text: str) -> tuple[float, ...]:
    """Grid values of a 'start:stop:steps[:log]' axis or a bare number."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(text),)
    start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    space = np.geomspace if parts[3:] == ["log"] else np.linspace
    return tuple(float(v) for v in space(start, stop, steps))


@dataclass(frozen=True)
class Sweep:
    """One CLI invocation and the grid it is expected to cover."""

    command: str
    gamma: str
    field: str
    temp: str
    sites: int
    obs: str
    modulation: str = "uniform"

    @property
    def argv(self) -> list[str]:
        argv = [self.command, "--gamma", self.gamma, "--field", self.field,
                "--temp", self.temp, "--sites", str(self.sites), "--obs", self.obs]
        if self.modulation != "uniform":
            argv += ["--modulation", self.modulation]
        return argv

    @property
    def points(self) -> list[tuple[float, float, float]]:
        """Grid points in the order the CLI visits them."""
        return [(g, f, t) for g in axis(self.gamma) for f in axis(self.field)
                for t in axis(self.temp)]


def _tscan_round(rng: np.random.Generator, sites: int, obs: str) -> list[Sweep]:
    # half the sweeps at uniform (gamma, h), half on the paper's lines: the
    # nine line intersections plus one point of the factorization circle
    g = float(rng.uniform(-1.0, 1.0))
    lines = list(LINE_POINTS) + [(g, math.sqrt(1.0 - g * g))]
    rng.shuffle(lines)
    sweeps = []
    for line_point in lines:
        uniform = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 2.0)))
        for gamma, field in (uniform, line_point):
            sweeps.append(Sweep("tscan", repr(gamma), repr(field), TSCAN_TEMPS, sites, obs))
    return sweeps


def _phase_round(rng: np.random.Generator, sites: int, obs: str) -> list[Sweep]:
    lo, hi = np.log(EXTRA_TEMP_RANGE)
    extra = [repr(float(np.exp(rng.uniform(lo, hi)))) for _ in range(2)]
    pattern = ((PHASE_COLD, "uniform"), (extra[0], "half"),
               (PHASE_COLD, "half"), (extra[1], "uniform"))
    return [Sweep("phase-diagram", PHASE_GAMMA, PHASE_FIELD, temp, sites, obs, modulation)
            for temp, modulation in pattern]


def rounds(workload: str, seed: int, count: int) -> list[list[Sweep]]:
    """The first ``count`` rounds of a workload's seeded plan."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, 1])
    make = _phase_round if workload == "phase-map" else _tscan_round
    return [make(rng, spec["sites"], spec["obs"]) for _ in range(count)]


def trace_sweeps(workload: str, seed: int) -> list[Sweep]:
    """The fixed sweep list a traced run measures twice (untraced, traced)."""
    return rounds(workload, seed, 1)[0][: TRACE_SWEEPS[workload]]


def oracle_sweeps(workload: str, seed: int) -> list[Sweep]:
    """A seeded handful of small sweeps, each checked against the dense oracle."""
    rng = np.random.default_rng([seed, 2])
    spec = WORKLOADS[workload]
    sweeps = []
    for i in range(2):
        gamma, field = float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 2.0))
        sites = int(rng.choice((6, 8, 10)))
        if workload == "phase-map":
            sweeps.append(Sweep("phase-diagram", repr(gamma), repr(field), "0.2:2:3:log",
                                sites, spec["obs"], ("uniform", "half")[i]))
        else:
            sweeps.append(Sweep("tscan", repr(gamma), repr(field), "0.2:2:3:log",
                                sites, spec["obs"]))
    return sweeps
