"""Seeded JSONL stop-event streams for the fleet serving benchmark.

One function, :func:`build_stream`, turns ``(workload, seed)`` into the
exact bytes the server will see.  Stop lengths come from the repo's
Chicago-shaped fleet generator (``repro.fleet``), so the realized
competitive ratio the benchmark reports is the paper's metric on the
paper's kind of traffic.  Every vehicle's timestamps strictly increase
(the timestamp is the line's global position).  Vehicle ids are fixed per
workload, so every seed sends the same vehicles to the same shards (the
server routes by a hash of the id; depot's ten split 5/5 between its two
shards): the seed changes stop lengths, interleaving and arrival times,
not how the load splits.

The two shapes differ in events per vehicle per chunk, which serving
throughput depends on:

* ``depot``: 10 vehicles, 100k events in random interleaving, so a
  1,024-line chunk holds ~100-event runs per vehicle.
* ``drip``: 300 vehicles; one warm-up event each, then a Poisson
  schedule at 150 events/s, so the server sees chunks of 1-3 lines.
  ~0.2% of the scheduled lines are malformed (truncated JSON, a missing
  ``stop`` or a non-numeric one); none is a vehicle's first line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

#: Break-even interval B (s) of the served config (the CLI default).
BREAK_EVEN = 28.0
#: Lines per closed-loop round trip.
CLOSED_BATCH = 1024
#: Drip's open-loop arrival rate (events/s) and the seconds of arrivals
#: each stream holds; a run sends those due within its ``--seconds``.
DRIP_RATE = 150.0
DRIP_HORIZON_S = 60.0
#: Share of drip's timed lines sent malformed.
MALFORMED_SHARE = 0.002

WORKLOADS = ("depot", "drip")


@dataclass
class Stream:
    """A generated stream: the lines plus what the checker needs.

    ``stops[i]`` is line ``i``'s stop length and ``malformed[i]`` marks a
    line that must be answered with ``null``.  ``warmup`` lines (drip)
    are sent untimed before the timed ``lines``; ``due_s[i]`` is line
    ``i``'s open-loop send offset (drip only, else empty).
    """

    lines: list[str]
    stops: list[float]
    malformed: list[bool]
    warmup: list[str] = field(default_factory=list)
    warmup_stops: list[float] = field(default_factory=list)
    due_s: list[float] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """Everything the server will be sent, as one byte string."""
        return ("\n".join(self.warmup + self.lines) + "\n").encode()


class _OneDistributionArea:
    """An area config that builds its stop-length mixture once.

    ``FleetGenerator.generate_vehicle`` asks the config for the mixture
    on every call, and building it (scipy frozen distributions) costs
    ~90% of the call.  Building it takes no randomness, so reusing one
    leaves every draw, and so the fleet, bit-identical.
    """

    def __init__(self, config) -> None:
        self._config = config
        self._distribution = config.stop_length_distribution()

    def __getattr__(self, name):
        return getattr(self._config, name)

    def stop_length_distribution(self):
        return self._distribution


def _fleet(count: int, rng: np.random.Generator) -> list[list[float]]:
    """Per-vehicle stop-length arrays from the Chicago fleet generator."""
    from repro.fleet import FleetGenerator, area_config

    generator = FleetGenerator(_OneDistributionArea(area_config("chicago")), seed=0)
    return [generator.generate_vehicle(index, rng).stop_lengths.tolist()
            for index in range(count)]


def _ids(workload: str, count: int) -> list[str]:
    return [f"{workload}-{index:03d}" for index in range(count)]


def _line(vehicle: str, event_id: str, t: float, stop: float) -> str:
    # what json.dumps gives for this dict (finite floats print as repr)
    return f'{{"id": "{event_id}", "vehicle": "{vehicle}", "t": {t!r}, "stop": {stop!r}}}'


def _depot(seed: int) -> Stream:
    rng = np.random.default_rng([seed, 1])
    vehicles, events = 10, 100_000
    names = _ids("depot", vehicles)
    fleet = _fleet(vehicles, rng)
    order = rng.integers(vehicles, size=events)
    counts = [0] * vehicles
    lines, stops = [], []
    for position, v in enumerate(order.tolist()):
        k = counts[v]
        counts[v] += 1
        stop = fleet[v][k % len(fleet[v])]
        lines.append(_line(names[v], f"{names[v]}-{k:06d}", float(position), stop))
        stops.append(stop)
    return Stream(lines, stops, [False] * events)


def _corrupt(line: str, kind: int) -> str:
    """One malformed line: truncated JSON, missing stop, or non-numeric stop."""
    if kind == 0:
        return line[: len(line) // 2]
    record = json.loads(line)
    if kind == 1:
        del record["stop"]
    else:
        record["stop"] = "n/a"
    return json.dumps(record)


def _drip(seed: int) -> Stream:
    rng = np.random.default_rng([seed, 2])
    vehicles = 300
    names = _ids("drip", vehicles)
    fleet = _fleet(vehicles, rng)
    warmup = [_line(names[v], f"{names[v]}-00000", float(v), fleet[v][0])
              for v in range(vehicles)]
    warmup_stops = [fleet[v][0] for v in range(vehicles)]
    counts = [1] * vehicles
    lines, stops, bad, due = [], [], [], []
    clock = 0.0
    while True:
        clock += float(rng.exponential(1.0 / DRIP_RATE))
        if clock >= DRIP_HORIZON_S:
            break
        v = int(rng.integers(vehicles))
        k = counts[v]
        counts[v] += 1
        stop = fleet[v][k % len(fleet[v])]
        position = float(vehicles + len(lines))
        line = _line(names[v], f"{names[v]}-{k:05d}", position, stop)
        # every timed line follows its vehicle's warm-up line
        malformed = rng.random() < MALFORMED_SHARE
        if malformed:
            line = _corrupt(line, int(rng.integers(3)))
        lines.append(line)
        stops.append(stop)
        bad.append(malformed)
        due.append(clock)
    return Stream(lines, stops, bad, warmup, warmup_stops, due)


_BUILDERS = {"depot": _depot, "drip": _drip}


def build_stream(workload: str, seed: int) -> Stream:
    """The stream for ``(workload, seed)``; identical bytes for equal inputs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](int(seed))
