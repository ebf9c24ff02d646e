"""What the waypoint walk costs: per-tick ``step_mobility`` against the radio's legs.

The engine moves every node through ``Radio.move``, which walks each node one
leg at a time and builds states only when ``Radio.positions`` is read.
``step_mobility`` steps every node on every tick and is the reference.  For
the benchmark geometry (500 m at n = 100, 900 m at n = 1000; speed at most
20 m/s, pause 0.5 s, 0.5 s ticks) this script

- first checks that both give equal positions on every tick of a 200 s walk,
  and leave the random stream in the same state;
- then times 200 s of walking both ways: ``step_mobility`` on every tick,
  and ``Radio.move`` with positions read on no tick but the last, and on
  every eighth tick (about the share of ticks a geometric run reads).

    python tests/walk_cost.py

prints the median of five timings of each, taken in turn so that a drift of
the host's speed touches all alike.  It only reports; no figure is checked
but the equality.  Standard library only.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gasman.radio import Radio, step_mobility  # noqa: E402
from gasman.scenario import GeometricConfig, ScenarioConfig  # noqa: E402

DT, TICKS, SEED, RUNS = 0.5, 400, 1, 5
SIZES = ((100, 500.0), (1000, 900.0))


def start(n: int, side: float) -> tuple[Radio, Random]:
    """A radio with ``n`` nodes placed from ``Random(SEED)``, and that random stream."""
    cfg = ScenarioConfig(
        n_initial=n, m=2 * n, T=10.0, l=20, duration=TICKS * DT, seed=SEED,
        connectivity=GeometricConfig(side, 20.0, 0.5, 250.0, 5.0),
    )
    rng = Random(SEED)
    return Radio(cfg, list(range(n)), rng), rng


def check(n: int, side: float) -> None:
    radio, rng = start(n, side)
    positions, ref_rng = radio.positions, Random()
    ref_rng.setstate(rng.getstate())
    for k in range(1, TICKS + 1):
        radio.move(rng, DT, k * DT)
        positions = step_mobility(positions, radio.geo, ref_rng, DT, k * DT)
        if radio.positions != positions or rng.getstate() != ref_rng.getstate():
            raise SystemExit(f"error: n = {n}: the walk and step_mobility differ at tick {k}")


def per_tick(n: int, side: float) -> float:
    radio, rng = start(n, side)
    positions, geo = radio.positions, radio.geo
    began = time.perf_counter()
    for k in range(1, TICKS + 1):
        positions = step_mobility(positions, geo, rng, DT, k * DT)
    return time.perf_counter() - began


def legs(n: int, side: float, every: int) -> float:
    radio, rng = start(n, side)
    began = time.perf_counter()
    for k in range(1, TICKS + 1):
        radio.move(rng, DT, k * DT)
        if k % every == 0:
            radio.positions
    radio.positions
    return time.perf_counter() - began


def main() -> int:
    print(f"python {sys.version.split()[0]}, {TICKS} ticks of {DT} s, median of {RUNS}")
    for n, side in SIZES:
        check(n, side)
        timings = {
            "step_mobility, every tick": lambda: per_tick(n, side),
            "legs, read on the last tick": lambda: legs(n, side, TICKS + 1),
            "legs, read every 8th tick": lambda: legs(n, side, 8),
        }
        taken = {name: [] for name in timings}
        for _ in range(RUNS):
            for name, timing in timings.items():
                taken[name].append(timing())
        for name, values in taken.items():
            ms = 1000 * statistics.median(values)
            print(f"n = {n}, {side:g} m, {name + ':':30} {ms:8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
