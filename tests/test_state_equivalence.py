"""Bitset-backed VectorState vs the naive set-backed oracle.

The production :class:`~repro.sim.state.VectorState` stores rumor sets as
interned bitset rows with copy-on-write snapshots; the naive hash-set
layout is kept as :class:`~repro.testing.reference.ReferenceNetworkState`.  These tests run
random operation sequences against both backends in lockstep and demand
identical observations — rumors, counts, notes, payloads — including when
each backend merges payloads *built by the other one* (the foreign-payload
interning path).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.state import Payload, VectorState
from repro.testing.reference import ReferenceNetworkState

N_NODES = 5
RUMORS = ["r0", "r1", ("tagged", 2), 3, frozenset({"x"})]

_node = st.integers(min_value=0, max_value=N_NODES - 1)
_rumor = st.integers(min_value=0, max_value=len(RUMORS) - 1)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _node, _rumor),
        st.tuples(st.just("merge"), _node, _node),
        st.tuples(st.just("cross_merge"), _node, _node),
        st.tuples(st.just("publish"), _node, st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("seed_self")),
        st.tuples(st.just("clear_notes")),
    ),
    max_size=40,
)


def _assert_observations_equal(fast: VectorState, ref: ReferenceNetworkState):
    for node in range(N_NODES):
        assert fast.rumors(node) == ref.rumors(node)
        assert fast.rumor_count(node) == ref.rumor_count(node)
        assert fast.snapshot(node) == ref.snapshot(node)
        assert fast.known_note_origins(node) == ref.known_note_origins(node)
        for origin in range(N_NODES):
            assert fast.note_of(node, origin) == ref.note_of(node, origin)
        for rumor in RUMORS:
            assert fast.knows(node, rumor) == ref.knows(node, rumor)
    for rumor in RUMORS + list(range(N_NODES)):
        assert fast.count_knowing(rumor) == ref.count_knowing(rumor)
    assert fast.min_rumor_count() == ref.min_rumor_count()
    everyone = list(range(N_NODES))
    for rumors in ([], RUMORS[:1], RUMORS, everyone, RUMORS + ["never-seen"]):
        assert fast.knows_every(everyone, rumors) == ref.knows_every(everyone, rumors)
        for node in everyone:
            assert fast.knows_every([node], rumors) == ref.knows_every([node], rumors)


class TestBackendEquivalence:
    @given(_ops)
    @settings(max_examples=200, deadline=None)
    def test_operation_sequences_agree(self, ops):
        fast = VectorState(range(N_NODES))
        ref = ReferenceNetworkState(range(N_NODES))
        for op in ops:
            kind = op[0]
            if kind == "add":
                _, node, index = op
                fast.add_rumor(node, RUMORS[index])
                ref.add_rumor(node, RUMORS[index])
            elif kind == "merge":
                _, dst, src = op
                changed_fast = fast.merge(dst, fast.snapshot(src))
                changed_ref = ref.merge(dst, ref.snapshot(src))
                assert changed_fast == changed_ref
            elif kind == "cross_merge":
                # Each backend merges the payload the OTHER backend built:
                # the bitset state takes the interning fallback, the set
                # state materializes the lazy bitmask view.
                _, dst, src = op
                changed_fast = fast.merge(dst, ref.snapshot(src))
                changed_ref = ref.merge(dst, fast.snapshot(src))
                assert changed_fast == changed_ref
            elif kind == "publish":
                _, node, value = op
                fast.publish_note(node, value=value)
                ref.publish_note(node, value=value)
            elif kind == "seed_self":
                fast.seed_self_rumors()
                ref.seed_self_rumors()
            else:
                fast.clear_notes()
                ref.clear_notes()
        _assert_observations_equal(fast, ref)

    def test_unknown_rumor_observations(self):
        fast = VectorState(range(N_NODES))
        ref = ReferenceNetworkState(range(N_NODES))
        assert fast.knows(0, "never-seen") == ref.knows(0, "never-seen") is False
        assert fast.count_knowing("never-seen") == ref.count_knowing("never-seen") == 0


class TestCopyOnWriteSnapshots:
    def test_snapshot_cached_until_change(self):
        state = VectorState(range(3))
        state.add_rumor(0, "a")
        first = state.snapshot(0)
        assert state.snapshot(0) is first
        state.add_rumor(0, "b")
        assert state.snapshot(0) is not first

    def test_old_snapshot_immutable_after_change(self):
        state = VectorState(range(3))
        state.add_rumor(0, "a")
        payload = state.snapshot(0)
        state.add_rumor(0, "b")
        state.publish_note(0, flag=True)
        assert payload.rumors == frozenset({"a"})
        assert payload.rumor_count == 1
        assert payload.notes == ()

    def test_merge_of_unchanged_neighbor_is_cached_payload(self):
        state = VectorState(range(2))
        state.seed_self_rumors()
        payload = state.snapshot(1)
        assert state.merge(0, payload) is True
        # Node 1 did not change, so its snapshot is still the same object.
        assert state.snapshot(1) is payload
        assert state.merge(0, state.snapshot(1)) is False

    def test_foreign_payload_with_new_tokens(self):
        state = VectorState(range(2))
        assert state.merge(0, Payload(rumors=frozenset({"new", "tokens"}))) is True
        assert state.rumors(0) == frozenset({"new", "tokens"})
        assert state.count_knowing("new") == 1
