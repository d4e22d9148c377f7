"""Tests for VectorState: rumor sets, note boards, snapshots, merges."""

from repro.sim.state import Note, Payload, VectorState


def make_state():
    return VectorState(nodes=[0, 1, 2])


class TestRumors:
    def test_starts_empty(self):
        state = make_state()
        assert state.rumors(0) == frozenset()

    def test_add_and_query(self):
        state = make_state()
        state.add_rumor(0, "r")
        assert state.knows(0, "r")
        assert not state.knows(1, "r")

    def test_seed_self_rumors(self):
        state = make_state()
        state.seed_self_rumors()
        for node in (0, 1, 2):
            assert state.knows(node, node)

    def test_count_knowing(self):
        state = make_state()
        state.add_rumor(0, "x")
        state.add_rumor(2, "x")
        assert state.count_knowing("x") == 2

    def test_rumors_returns_immutable_snapshot(self):
        state = make_state()
        state.add_rumor(0, "x")
        snap = state.rumors(0)
        state.add_rumor(0, "y")
        assert snap == frozenset({"x"})


class TestNotes:
    def test_publish_and_read_own(self):
        state = make_state()
        state.publish_note(0, flag=True)
        note = state.note_of(0, 0)
        assert note is not None
        assert note.get("flag") is True
        assert note.version == 1

    def test_version_bumps(self):
        state = make_state()
        state.publish_note(0, flag=False)
        state.publish_note(0, flag=True)
        assert state.note_of(0, 0).version == 2
        assert state.note_of(0, 0).get("flag") is True

    def test_note_get_default(self):
        note = Note(version=1, data=(("a", 1),))
        assert note.get("a") == 1
        assert note.get("missing", "d") == "d"

    def test_unknown_origin_is_none(self):
        state = make_state()
        assert state.note_of(0, 1) is None

    def test_known_note_origins(self):
        state = make_state()
        state.publish_note(1, x=1)
        assert state.known_note_origins(1) == [1]
        assert state.known_note_origins(0) == []

    def test_clear_notes(self):
        state = make_state()
        state.publish_note(0, x=1)
        state.clear_notes()
        assert state.note_of(0, 0) is None


class TestSnapshotMerge:
    def test_snapshot_contents(self):
        state = make_state()
        state.add_rumor(0, "r")
        state.publish_note(0, f=2)
        payload = state.snapshot(0)
        assert payload.rumors == frozenset({"r"})
        assert dict(payload.notes)[0].get("f") == 2

    def test_merge_rumors(self):
        state = make_state()
        state.add_rumor(0, "r")
        changed = state.merge(1, state.snapshot(0))
        assert changed
        assert state.knows(1, "r")

    def test_merge_no_change(self):
        state = make_state()
        state.add_rumor(0, "r")
        state.merge(1, state.snapshot(0))
        assert not state.merge(1, state.snapshot(0))

    def test_merge_notes_higher_version_wins(self):
        state = make_state()
        state.publish_note(0, value="old")
        old_snapshot = state.snapshot(0)
        state.publish_note(0, value="new")
        state.merge(1, state.snapshot(0))
        # Merging the stale snapshot must not regress node 1's view.
        state.merge(1, old_snapshot)
        assert state.note_of(1, 0).get("value") == "new"

    def test_merge_notes_propagate_transitively(self):
        state = make_state()
        state.publish_note(0, tag="hello")
        state.merge(1, state.snapshot(0))
        state.merge(2, state.snapshot(1))
        assert state.note_of(2, 0).get("tag") == "hello"

    def test_snapshot_is_immutable_view(self):
        state = make_state()
        state.add_rumor(0, "a")
        payload = state.snapshot(0)
        state.add_rumor(0, "b")
        assert payload.rumors == frozenset({"a"})

    def test_empty_payload_merge_is_noop(self):
        state = make_state()
        assert not state.merge(0, Payload(rumors=frozenset(), notes=()))
