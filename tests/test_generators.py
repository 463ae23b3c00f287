import pytest

from frlp import (CYCLIC, ORIGINAL, enumerate_routes, gen_example, gen_prop5a,
                  gen_prop5b, gen_random, prepare_route_data,
                  prop5b_analytic_family, serialize_instance,
                  validate_instance)


def test_fig7_structure():
    inst = gen_example("fig7", 12.0)
    assert inst.num_nodes == 4
    lengths = sorted(e.length for e in inst.network.edges)
    assert lengths == pytest.approx([3.0, 3.0, 4.0, 4.0, 4.0])
    q = inst.demands[0]
    assert (q.origin, q.destination, q.alpha) == (0, 1, 1.5)


def test_fig2_and_fig8_structure():
    fig2 = gen_example("fig2")
    assert fig2.num_nodes == 5 and len(fig2.network.edges) == 5
    assert all(e.length == 5.0 for e in fig2.network.edges)
    assert fig2.demands[0].routes is not None
    fig8 = gen_example("fig8")
    assert fig8.num_nodes == 3 and len(fig8.network.edges) == 3
    assert all(e.length == 1.0 for e in fig8.network.edges)


def test_unknown_example_name():
    with pytest.raises(ValueError):
        gen_example("fig99")


def test_prop5a_structure():
    inst = gen_prop5a(3)
    assert inst.num_nodes == 6
    assert len(inst.network.edges) == 7
    assert len(inst.demands[0].routes) == 3
    assert inst.placement.budget == 2

    tiny = gen_prop5a(1)
    assert tiny.num_nodes == 2
    assert len(tiny.demands[0].routes) == 1

    big = gen_prop5a(5)
    assert big.num_nodes == 10
    assert len(big.demands[0].routes) == 5
    assert big.placement.budget == 2


def test_prop5a_routes_are_valid():
    inst = gen_prop5a(4)
    routes = enumerate_routes(inst, inst.demands[0], ORIGINAL)
    assert len(routes) == 4
    for r in routes:
        assert r.visits[0] == 0 and r.visits[-1] == inst.num_nodes - 1


def test_prop5b_family_content_n2():
    inst, family = gen_prop5b(2)
    assert inst.num_nodes == 8
    singles = {frozenset({0}), frozenset({1}), frozenset({6}), frozenset({7})}
    pairs = {frozenset(p) for p in
             [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]}
    assert set(family.sets) == singles | pairs


def test_prop5b_cross_validates_analytic_family():
    for n in (2, 3):
        inst, family = gen_prop5b(n)
        computed = prepare_route_data(inst, ORIGINAL)[0].aggregated
        assert set(computed.sets) == set(family.sets)


def test_prop5b_large_n_uses_placeholder_route():
    inst, family = gen_prop5b(7)
    assert inst.num_nodes == 18
    route = inst.demands[0].routes[0]
    assert len(route) == 5  # shortest path, not the factorial walk
    assert len(family.sets) == 4 + 3432  # singletons + C(14, 7)


def test_prop5b_parameter_validation():
    with pytest.raises(ValueError):
        gen_prop5b(1)
    with pytest.raises(ValueError):
        gen_prop5b(3, delta=0.5)  # must be below 1/n^2


def test_gen_random_deterministic_and_valid():
    a = gen_random(1, num_nodes=6, num_demands=2)
    b = gen_random(1, num_nodes=6, num_demands=2)
    assert serialize_instance(a) == serialize_instance(b)
    assert validate_instance(a) == []
    c = gen_random(2, num_nodes=6, num_demands=2)
    assert serialize_instance(c) != serialize_instance(a)


def test_gen_random_full_density_is_complete():
    inst = gen_random(3, num_nodes=6, density=1.0, num_demands=1)
    assert len(inst.network.edges) == 15


@pytest.mark.parametrize("bad", [{"num_demands": -1}, {"density": float("nan")},
                                 {"density": float("inf")}, {"density": -0.1},
                                 {"density": 1.5}])
def test_gen_random_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        gen_random(0, num_nodes=8, **bad)


def test_gen_random_edge_arguments():
    assert len(gen_random(0, num_nodes=8, num_demands=0).demands) == 0
    assert len(gen_random(0, num_nodes=8, density=0.0).network.edges) == 7


def test_gen_random_pool_validates(small_pool):
    for inst in small_pool:
        assert validate_instance(inst) == []
