"""Differential property tests on inputs the seeded pools never generate.

Hypothesis runs derandomized with a bounded number of examples, so every run
checks the same inputs and the suite stays fast.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from frlp import (CYCLIC, ORIGINAL, CycleQuery, Demand, Edge, build_instance,
                  find_traversable_path, is_served, route_budget)
from frlp.feasibility import search_cycle
from frlp.oracle import exhaustive_served

D = 12.0
LENGTHS = tuple(f * D for f in (0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0))


@st.composite
def directed_cyclic_instances(draw):
    """A one-way ring of 3 to 7 nodes, so that every node reaches every
    other, plus chords that are one-way or two-way; one to three demands
    with deviation factors, under the cyclic variant."""
    n = draw(st.integers(3, 7))
    length = st.sampled_from(LENGTHS)
    edges = [Edge(u, (u + 1) % n, draw(length), directed=True)
             for u in range(n)]
    chords = [(u, v) for u in range(n) for v in range(n)
              if u != v and v != (u + 1) % n]
    if chords:
        for u, v in draw(st.lists(st.sampled_from(chords), max_size=2 * n,
                                  unique=True)):
            edges.append(Edge(u, v, draw(length), directed=draw(st.booleans())))
    demands = []
    for _ in range(draw(st.integers(1, 3))):
        origin = draw(st.integers(0, n - 1))
        destination = (origin + draw(st.integers(1, n - 1))) % n
        alpha = draw(st.sampled_from((1.0, 1.2, 1.5)))
        demands.append(Demand(origin, destination, 1.0, alpha=alpha))
    return build_instance([str(j) for j in range(n)], edges, demands, D,
                          variant_default=CYCLIC)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(directed_cyclic_instances())
def test_cyclic_servedness_matches_the_oracle(inst):
    # Every station set: the labeling search with and without dominance
    # against enumerating the admissible cycles.
    n = inst.num_nodes
    routes = {}
    for q in inst.demands:
        tau = route_budget(inst, q, CYCLIC)
        for bits in range(1 << n):
            stations = frozenset(j for j in range(n) if bits >> j & 1)
            expected = exhaustive_served(inst, q, stations, CYCLIC,
                                         _route_cache=routes)
            assert is_served(inst, q, stations, CYCLIC) == expected, \
                (q, sorted(stations))
            replay = search_cycle(
                CycleQuery(inst, q, stations, tau, dominance=False))
            assert (replay.witness is not None) == expected, \
                (q, sorted(stations))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(directed_cyclic_instances())
def test_original_servedness_matches_the_oracle(inst):
    # Every station set: the refueling-network check, as a verdict and as a
    # witness, against enumerating the admissible paths. The second instance
    # shares the network, and so the demands' cached checks, under another
    # travel range, which the cached checks must not carry over.
    n = inst.num_nodes
    routes = {}
    for instance in (inst, replace(inst, travel_range=1.5 * D)):
        assert instance.network is inst.network
        for q in instance.demands:
            tau = route_budget(instance, q, ORIGINAL)
            for bits in range(1 << n):
                stations = frozenset(j for j in range(n) if bits >> j & 1)
                expected = exhaustive_served(instance, q, stations, ORIGINAL,
                                             _route_cache=routes)
                assert is_served(instance, q, stations, ORIGINAL) == expected, \
                    (instance.travel_range, q, sorted(stations))
                witness = find_traversable_path(instance, q, stations, tau)
                assert (witness is not None) == expected, \
                    (instance.travel_range, q, sorted(stations))
