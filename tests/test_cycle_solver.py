"""The test-side adversary: it keeps to its time budget, and it solves the
public graph at every group size the generator deals."""

import time
from random import Random

import pytest
from cycle_solver import find_hamiltonian_cycle

from gasman.graph import build_initial_graph, is_hamiltonian_cycle


def test_the_solver_keeps_to_its_budget():
    # At group size 3 and n = 400 the first attempt alone runs about 8 s.
    g, _ = build_initial_graph(400, 600, Random(1))
    start = time.perf_counter()
    cycle = find_hamiltonian_cycle(g, Random(101), budget_s=0.1)
    assert time.perf_counter() - start < 1.0
    assert cycle is None or is_hamiltonian_cycle(g, cycle)


# Group size 3 stays out at n = 100: one of these seeds takes 1.2-1.4 s there.
SWEEP = [(30, size) for size in range(3, 9)] + [(100, size) for size in range(4, 9)]


@pytest.mark.parametrize("n,group_size", SWEEP)
def test_the_public_graph_gives_a_cycle_away_at_every_group_size(n, group_size):
    # On a 2 vCPU host every case took at most 23 ms at n = 30 and 7 ms at n = 100.
    for seed in range(5):
        g, _ = build_initial_graph(n, group_size * n // 2, Random(seed))
        cycle = find_hamiltonian_cycle(g, Random(seed + 100), budget_s=1.0)
        assert cycle is not None and is_hamiltonian_cycle(g, cycle), (n, group_size, seed)
