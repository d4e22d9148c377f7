"""Unit tests for topology generators and latency models."""

import hashlib
import random

import pytest

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.latency_models import (
    bimodal_latency,
    constant_latency,
    geometric_distance_latency,
    uniform_latency,
    zipf_latency,
)


class TestLatencyModels:
    def test_constant(self):
        model = constant_latency(4)
        assert model(0, 1, random.Random(0)) == 4

    def test_constant_rejects_zero(self):
        with pytest.raises(GraphError):
            constant_latency(0)

    def test_uniform_within_bounds(self):
        model = uniform_latency(2, 9)
        rng = random.Random(1)
        samples = [model(0, 1, rng) for _ in range(200)]
        assert all(2 <= s <= 9 for s in samples)
        assert len(set(samples)) > 1

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(GraphError):
            uniform_latency(5, 2)
        with pytest.raises(GraphError):
            uniform_latency(0, 2)

    def test_bimodal_values(self):
        model = bimodal_latency(1, 50, 0.5)
        rng = random.Random(2)
        samples = {model(0, 1, rng) for _ in range(200)}
        assert samples == {1, 50}

    def test_bimodal_extreme_probabilities(self):
        rng = random.Random(0)
        always_fast = bimodal_latency(1, 50, 1.0)
        assert all(always_fast(0, 1, rng) == 1 for _ in range(20))
        never_fast = bimodal_latency(1, 50, 0.0)
        assert all(never_fast(0, 1, rng) == 50 for _ in range(20))

    def test_bimodal_rejects_bad_probability(self):
        with pytest.raises(GraphError):
            bimodal_latency(1, 2, 1.5)

    def test_zipf_within_bounds_and_head_heavy(self):
        model = zipf_latency(20, exponent=2.0)
        rng = random.Random(3)
        samples = [model(0, 1, rng) for _ in range(500)]
        assert all(1 <= s <= 20 for s in samples)
        assert samples.count(1) > samples.count(10)

    def test_zipf_rejects_bad_params(self):
        with pytest.raises(GraphError):
            zipf_latency(0)
        with pytest.raises(GraphError):
            zipf_latency(5, exponent=-1)

    def test_geometric_distance(self):
        positions = {0: (0.0, 0.0), 1: (0.3, 0.4)}
        model = geometric_distance_latency(positions, scale=10)
        assert model(0, 1, random.Random(0)) == 5

    def test_geometric_missing_position_raises(self):
        model = geometric_distance_latency({0: (0.0, 0.0)})
        with pytest.raises(GraphError):
            model(0, 1, random.Random(0))


class TestBasicTopologies:
    def test_clique(self):
        g = generators.clique(6)
        assert g.num_nodes == 6
        assert g.num_edges == 15
        assert g.max_degree() == 5
        assert g.is_connected()

    def test_star(self):
        g = generators.star(10)
        assert g.degree(0) == 9
        assert all(g.degree(leaf) == 1 for leaf in range(1, 10))

    def test_path(self):
        g = generators.path(5)
        assert g.num_edges == 4
        assert g.weighted_diameter() == 4

    def test_cycle(self):
        g = generators.cycle(6)
        assert all(g.degree(v) == 2 for v in g.nodes())
        assert g.weighted_diameter() == 3

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            generators.cycle(2)

    def test_grid(self):
        g = generators.grid(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4
        assert g.hop_diameter() == 5

    def test_hypercube(self):
        g = generators.hypercube(4)
        assert g.num_nodes == 16
        assert all(g.degree(v) == 4 for v in g.nodes())
        assert g.hop_diameter() == 4

    def test_binary_tree(self):
        g = generators.binary_tree(7)
        assert g.num_edges == 6
        assert g.degree(0) == 2
        assert g.is_connected()

    def test_invalid_sizes(self):
        with pytest.raises(GraphError):
            generators.clique(0)
        with pytest.raises(GraphError):
            generators.grid(0, 3)
        with pytest.raises(GraphError):
            generators.hypercube(0)

    def test_latency_model_applied(self):
        g = generators.clique(5, latency_model=constant_latency(7))
        assert all(latency == 7 for _, _, latency in g.edges())


class TestRandomTopologies:
    def test_erdos_renyi_connected(self):
        g = generators.erdos_renyi(30, 0.05, rng=random.Random(0))
        assert g.is_connected()

    def test_erdos_renyi_density(self):
        dense = generators.erdos_renyi(30, 0.8, rng=random.Random(1))
        sparse = generators.erdos_renyi(30, 0.05, rng=random.Random(1))
        assert dense.num_edges > sparse.num_edges

    def test_erdos_renyi_rejects_bad_p(self):
        with pytest.raises(GraphError):
            generators.erdos_renyi(10, 1.5)

    def test_erdos_renyi_unconnected_allowed(self):
        g = generators.erdos_renyi(
            20, 0.0, rng=random.Random(0), ensure_connected=False
        )
        assert g.num_edges == 0

    def test_random_regular(self):
        g = generators.random_regular(24, 5, rng=random.Random(0))
        assert all(g.degree(v) == 5 for v in g.nodes())
        assert g.is_connected()

    def test_random_regular_parity_check(self):
        with pytest.raises(GraphError):
            generators.random_regular(9, 5)

    def test_random_regular_degree_bounds(self):
        with pytest.raises(GraphError):
            generators.random_regular(5, 5)

    def test_random_regular_deterministic(self):
        a = generators.random_regular(16, 4, rng=random.Random(3))
        b = generators.random_regular(16, 4, rng=random.Random(3))
        assert a == b

    def test_random_geometric_connected(self):
        g = generators.random_geometric(25, radius=0.2, rng=random.Random(0))
        assert g.is_connected()

    def test_random_geometric_latencies_positive(self):
        g = generators.random_geometric(20, radius=0.4, rng=random.Random(1))
        assert all(latency >= 1 for _, _, latency in g.edges())

    def test_random_geometric_rejects_bad_radius(self):
        with pytest.raises(GraphError):
            generators.random_geometric(10, radius=0.0)


class TestCompositeTopologies:
    def test_dumbbell_shape(self):
        g = generators.dumbbell(5, bridge_length=3, bridge_latency=7)
        assert g.num_nodes == 2 * 5 + 2
        assert g.is_connected()
        # Bridge edges have the bridge latency.
        assert g.latency(4, 10) == 7

    def test_dumbbell_single_bridge(self):
        g = generators.dumbbell(4, bridge_length=1)
        assert g.num_nodes == 8
        assert g.has_edge(3, 4)

    def test_ring_of_cliques(self):
        g = generators.ring_of_cliques(4, 5, inter_latency=9, rng=random.Random(0))
        assert g.num_nodes == 20
        assert g.is_connected()
        assert 9 in g.distinct_latencies()

    def test_ring_of_cliques_multiple_links(self):
        g = generators.ring_of_cliques(
            4, 5, links_per_pair=3, rng=random.Random(0)
        )
        intra = 4 * 10
        assert g.num_edges == intra + 4 * 3

    def test_ring_of_cliques_validation(self):
        with pytest.raises(GraphError):
            generators.ring_of_cliques(2, 5)
        with pytest.raises(GraphError):
            generators.ring_of_cliques(4, 3, links_per_pair=100)

    def test_two_tier_datacenter(self):
        g = generators.two_tier_datacenter(4, 5, inter_rack_latency=20)
        assert g.num_nodes == 20
        assert g.is_connected()
        # Rack leaders form a clique at the slow latency.
        assert g.latency(0, 5) == 20
        # Rack members are fast.
        assert g.latency(0, 1) == 1

    def test_two_tier_needs_two_racks(self):
        with pytest.raises(GraphError):
            generators.two_tier_datacenter(1, 5)


class TestExtendedTopologies:
    def test_torus_regular(self):
        g = generators.torus(4, 5)
        assert g.num_nodes == 20
        assert all(g.degree(v) == 4 for v in g.nodes())
        assert g.is_connected()

    def test_torus_wraparound(self):
        g = generators.torus(3, 3)
        assert g.has_edge(0, 2)  # row wrap
        assert g.has_edge(0, 6)  # column wrap

    def test_torus_validation(self):
        with pytest.raises(GraphError):
            generators.torus(2, 5)

    def test_complete_bipartite(self):
        g = generators.complete_bipartite(3, 4)
        assert g.num_nodes == 7
        assert g.num_edges == 12
        assert g.degree(0) == 4
        assert g.degree(5) == 3
        assert not g.has_edge(0, 1)  # no intra-side edges

    def test_watts_strogatz_no_rewiring_is_lattice(self):
        g = generators.watts_strogatz(12, 4, 0.0)
        assert all(g.degree(v) == 4 for v in g.nodes())
        assert g.is_connected()

    def test_watts_strogatz_rewired_stays_connected(self):
        for seed in range(3):
            g = generators.watts_strogatz(
                20, 4, 0.3, rng=random.Random(seed)
            )
            assert g.is_connected()
            assert g.num_edges == 40  # rewiring preserves edge count

    def test_watts_strogatz_full_rewiring(self):
        g = generators.watts_strogatz(16, 4, 1.0, rng=random.Random(1))
        assert g.is_connected()

    def test_watts_strogatz_validation(self):
        with pytest.raises(GraphError):
            generators.watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(GraphError):
            generators.watts_strogatz(10, 4, 1.5)

    def test_barabasi_albert_shape(self):
        g = generators.barabasi_albert(40, 2, rng=random.Random(0))
        assert g.num_nodes == 40
        assert g.is_connected()
        # Seed clique (3 edges) + 2 per subsequent node.
        assert g.num_edges == 3 + 2 * 37

    def test_barabasi_albert_has_hubs(self):
        g = generators.barabasi_albert(100, 2, rng=random.Random(1))
        # Preferential attachment: max degree well above the minimum.
        assert g.max_degree() >= 4 * g.min_degree()

    def test_barabasi_albert_validation(self):
        with pytest.raises(GraphError):
            generators.barabasi_albert(5, 0)
        with pytest.raises(GraphError):
            generators.barabasi_albert(5, 5)

    def test_extended_latency_models_applied(self):
        from repro.graphs.latency_models import constant_latency

        g = generators.torus(3, 3, latency_model=constant_latency(6))
        assert all(latency == 6 for _, _, latency in g.edges())



class _RandomViaFloat(random.Random):
    """A ``Random`` subclass whose ``randint`` goes through ``random()``
    (CPython then rejects on float draws, not on ``getrandbits`` words)."""

    def random(self):
        return super().random()


_PIN_MODELS = {
    "uniform": lambda: uniform_latency(1, 8),
    "constant": lambda: constant_latency(3),
    "bimodal": lambda: bimodal_latency(1, 9, 0.3),
}


def _fast_pin_cases():
    """``(key, n, p, ensure_connected, model, rng class)`` of each pin."""

    def case(n, p, connected, model, rng_class):
        mode = "conn" if connected else "free"
        return (f"{n}-{p:g}-{mode}-{model}-{rng_class}", n, p, connected, model, rng_class)

    ps = {1: (0.0, 1.0), 2: (0.0, 1.0), 50: (0.0, 8 / 50, 1.0), 2000: (0.0, 8 / 2000)}
    for n, p_values in ps.items():
        for p in p_values:
            for connected in (True, False):
                for model in _PIN_MODELS:
                    yield case(n, p, connected, model, "Random")
    for n, p in ((50, 8 / 50), (50, 1.0), (2000, 8 / 2000)):
        for connected in (True, False):
            yield case(n, p, connected, "uniform", "RandomViaFloat")


#: ``erdos_renyi_fast`` output and rng consumption, pinned: the graph's
#: ``fingerprint()`` and a digest of the caller's ``rng.getstate()`` after
#: the call returns.  Any change to the sampler, the latency draws or their
#: order shows up here.
_FAST_PINS = {
    "1-0-conn-uniform-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-0-conn-constant-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-0-conn-bimodal-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-0-free-uniform-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-0-free-constant-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-0-free-bimodal-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-1-conn-uniform-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-1-conn-constant-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-1-conn-bimodal-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-1-free-uniform-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-1-free-constant-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "1-1-free-bimodal-Random": ("966cce528214e69bb0c5ab72ad556c89", "dc912df8e7ea35a5"),
    "2-0-conn-uniform-Random": ("a68aa46045d1a0d37ed615860cadb00b", "b4e32374ae7dc716"),
    "2-0-conn-constant-Random": ("0159d0ba02bca7604e9e7a9a6f0318d0", "72798805e7853e8a"),
    "2-0-conn-bimodal-Random": ("0138c2d4e62fd8b5bd51ca6ca2318b82", "eb8caf432fdde133"),
    "2-0-free-uniform-Random": ("1bf8694dbbae47a7a1d937a8d2a6e29e", "dc912df8e7ea35a5"),
    "2-0-free-constant-Random": ("1bf8694dbbae47a7a1d937a8d2a6e29e", "dc912df8e7ea35a5"),
    "2-0-free-bimodal-Random": ("1bf8694dbbae47a7a1d937a8d2a6e29e", "dc912df8e7ea35a5"),
    "2-1-conn-uniform-Random": ("a68aa46045d1a0d37ed615860cadb00b", "b4e32374ae7dc716"),
    "2-1-conn-constant-Random": ("0159d0ba02bca7604e9e7a9a6f0318d0", "72798805e7853e8a"),
    "2-1-conn-bimodal-Random": ("0138c2d4e62fd8b5bd51ca6ca2318b82", "eb8caf432fdde133"),
    "2-1-free-uniform-Random": ("0138c2d4e62fd8b5bd51ca6ca2318b82", "72798805e7853e8a"),
    "2-1-free-constant-Random": ("0159d0ba02bca7604e9e7a9a6f0318d0", "dc912df8e7ea35a5"),
    "2-1-free-bimodal-Random": ("6059647e10e27ed38882a302ed2043d7", "6e1703358d1bfb64"),
    "50-0-conn-uniform-Random": ("b2fd9362cab59f1e91a2c2e9e28057e3", "ad6bc5edb861d66b"),
    "50-0-conn-constant-Random": ("272c5b243ab30f1b03ffcbebabe8fb2c", "9b157067cd4426b5"),
    "50-0-conn-bimodal-Random": ("50defaffa21054f6927d745acb47cd17", "f72a8c8d5290f3a2"),
    "50-0-free-uniform-Random": ("2d668c95ba94c1d8bd8e80c32da0660e", "dc912df8e7ea35a5"),
    "50-0-free-constant-Random": ("2d668c95ba94c1d8bd8e80c32da0660e", "dc912df8e7ea35a5"),
    "50-0-free-bimodal-Random": ("2d668c95ba94c1d8bd8e80c32da0660e", "dc912df8e7ea35a5"),
    "50-0.16-conn-uniform-Random": ("0d3f16ac852d440231637d6e2ed4cac5", "99e0caa9fa23dd5a"),
    "50-0.16-conn-constant-Random": ("c298858f6011aeb4b2a682ee2bd2c3c1", "9b157067cd4426b5"),
    "50-0.16-conn-bimodal-Random": ("067714a8c7308cd23710a33914f14929", "44c5c974319d88a8"),
    "50-0.16-free-uniform-Random": ("6c9956a8f2a96411f86a556efec4ce03", "eed4e78fe73830eb"),
    "50-0.16-free-constant-Random": ("bf1ff719fd1a99a787a941b7eeed18bc", "dc912df8e7ea35a5"),
    "50-0.16-free-bimodal-Random": ("eb22a15ef6ba2ec443bfa717c41fde38", "dccff7fb7960f9ba"),
    "50-1-conn-uniform-Random": ("674bbba5b58101859a574cbdbd0574f3", "ddd6ee14e60aa182"),
    "50-1-conn-constant-Random": ("cfaefeafed44f9916fe989f872460288", "9b157067cd4426b5"),
    "50-1-conn-bimodal-Random": ("fd2eb36a25934a9b09afd63c43271b6e", "15225a75f3d23209"),
    "50-1-free-uniform-Random": ("a3d25a8284aaa5e81eb3ce4c25cce59e", "9af5c617dfd63087"),
    "50-1-free-constant-Random": ("3640335bbf2e99664c34c67557c58b90", "dc912df8e7ea35a5"),
    "50-1-free-bimodal-Random": ("0f3c437e980b4e89bac446d9b9cd1090", "3a4830179ccd37c7"),
    "2000-0-conn-uniform-Random": ("cd414224b026187da0105955d9f21e8e", "89b1f9b427115b73"),
    "2000-0-conn-constant-Random": ("75c4752ef78746e4e650e079dd66a560", "63ab9f05ff3fcccd"),
    "2000-0-conn-bimodal-Random": ("1a7e4596bc75cdc59089403fe388c46c", "9a509eb1277fe82f"),
    "2000-0-free-uniform-Random": ("cded9bb952958cb87666edaafd997a0a", "dc912df8e7ea35a5"),
    "2000-0-free-constant-Random": ("cded9bb952958cb87666edaafd997a0a", "dc912df8e7ea35a5"),
    "2000-0-free-bimodal-Random": ("cded9bb952958cb87666edaafd997a0a", "dc912df8e7ea35a5"),
    "2000-0.004-conn-uniform-Random": ("9705ece7ab47c10dfefe842cf4c2010b", "451c9df22dad3697"),
    "2000-0.004-conn-constant-Random": ("6bc265ab6ea98ea9b791d7dafcf1b33c", "63ab9f05ff3fcccd"),
    "2000-0.004-conn-bimodal-Random": ("0bf8a0ab3dfe46b2b0e3c2ff5b49d6f7", "635c448e1f889151"),
    "2000-0.004-free-uniform-Random": ("022a2bea350446359a07f3826af064e7", "81d498530edda0b1"),
    "2000-0.004-free-constant-Random": ("19a4326759609356e76457972d02ab41", "dc912df8e7ea35a5"),
    "2000-0.004-free-bimodal-Random": ("89f54c251bf7aafc738a02b2e130b954", "dacedda6322c1454"),
    "50-0.16-conn-uniform-RandomViaFloat": ("f18864f1ede076833fe224595c92ed4c", "53ef3e576fbc7083"),
    "50-0.16-free-uniform-RandomViaFloat": ("95ada518046b2aed2538dd80698175cc", "dccff7fb7960f9ba"),
    "50-1-conn-uniform-RandomViaFloat": ("f7746837126f1cb97c9e27164f2ca2ae", "3952f421545a71db"),
    "50-1-free-uniform-RandomViaFloat": ("3b5e8fb6cb79f75b55ad90e7e29756a3", "3a4830179ccd37c7"),
    "2000-0.004-conn-uniform-RandomViaFloat": ("4be96ae2d727e2a050d70bca599e5d79", "f0e18d8a0f339e6d"),
    "2000-0.004-free-uniform-RandomViaFloat": ("f0828b8cd0579a549dc67da6f4b25e70", "dacedda6322c1454"),
}


def _fast_pin(n, p, connected, model, rng_class):
    rng = (random.Random if rng_class == "Random" else _RandomViaFloat)(20170725)
    graph = generators.erdos_renyi_fast(
        n, p, _PIN_MODELS[model](), rng=rng, ensure_connected=connected
    )
    state = hashlib.blake2b(repr(rng.getstate()).encode(), digest_size=8)
    return graph.fingerprint(), state.hexdigest()


class TestErdosRenyiFastPins:
    def test_every_case_is_pinned(self):
        assert {case[0] for case in _fast_pin_cases()} == set(_FAST_PINS)

    @pytest.mark.parametrize("case", list(_fast_pin_cases()), ids=lambda case: case[0])
    def test_pinned(self, case):
        key, *args = case
        assert _fast_pin(*args) == _FAST_PINS[key]
