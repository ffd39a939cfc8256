"""Calibrated time: wall time rescaled to a reference machine speed.

The 2-vCPU virtual machines this benchmark runs on change speed under
their host's load. A fixed pure-Python loop ran anywhere from 0.22 s to
0.44 s within one minute, and whole passes drifted by 40% over half an
hour. Raw wall times therefore spread more than any useful bound.

A short, fixed, stdlib-only probe is shaped like the program's own work
(CSV parsing, float conversion, grouping, JSON). It runs before and after
every timed segment. The machine's speed over a pass (or a set-up) is the
median of the probes around its segments, since the speed also drifts
within one run. Waiting that the benchmark itself imposes (the stub's
sleeps, as the stub timed them) is kept as is, and the rest of the wall
time is rescaled:

    calibrated = wait + (wall - wait) * (REFERENCE_PROBE_S / median_probe) ** ELASTICITY

The program does not slow down as much as the probe does. Probe and
program chunks were alternated for 100 s on the reference machine. Over
that time, LSTM training and CSV ingest time grew as probe time to the
power 0.6-0.7. A full rescale (power 1) over-corrects and no rescale
(power 0) leaves the drift. On two sets of five runs, power 0.65 gave the
smallest worst-case spread.

The probe never changes with the program, so a change to the program moves
calibrated times as it moves raw ones.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field

#: Probe time when the reference machine (2-vCPU Xeon VM at 2.1 GHz,
#: Python 3.11) runs at its fastest; its median under load was 0.0096 s.
REFERENCE_PROBE_S = 0.0070
ELASTICITY = 0.65
PROBE_REPEATS = 3

_PROBE_TEXT = "\n".join(
    f"{1_700_000_000 + i},{i * 0.001:.6f},{i * 1.5:.3f},{(i * 7) % 360:.2f},SYN{i % 50:03d}"
    for i in range(6000)
)


def _probe_once() -> float:
    start = time.perf_counter()
    rows = [
        (int(c[0]), float(c[1]), float(c[2]), float(c[3]), c[4])
        for c in csv.reader(io.StringIO(_PROBE_TEXT))
    ]
    groups: dict[str, list] = {}
    for row in rows:
        groups.setdefault(row[4], []).append(row)
    json.dumps({k: [sum(r[1] for r in v), len(v)] for k, v in groups.items()})
    return time.perf_counter() - start


def probe() -> float:
    """Median time of the fixed probe, seconds."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


@dataclass
class Segment:
    """Wall seconds of timed work, the fixed waiting inside them, and the probes around them."""

    wall: float = 0.0
    wait: float = 0.0
    probes: list[float] = field(default_factory=list)

    def add(self, other: "Segment") -> None:
        self.wall += other.wall
        self.wait += other.wait
        self.probes += other.probes

    @property
    def calibrated(self) -> float:
        factor = (REFERENCE_PROBE_S / statistics.median(self.probes)) ** ELASTICITY
        wait = min(self.wait, self.wall)
        return wait + (self.wall - wait) * factor


@contextlib.contextmanager
def segment():
    """Time the body, probing the machine's speed just before and just after it."""
    seg = Segment(probes=[probe()])
    start = time.perf_counter()
    try:
        yield seg
    finally:
        seg.wall = time.perf_counter() - start
        seg.probes.append(probe())
