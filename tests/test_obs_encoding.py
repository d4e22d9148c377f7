"""The compiled JSONL encoder must match the canonical spec byte for byte.

The spec of the wire form is :func:`~repro.obs.events.event_to_dict` fed
to ``json.dumps(sort_keys=True, separators=(",", ":"), ensure_ascii=True)``;
:func:`~repro.obs.events.event_to_json` is its compiled form (one
generated formatter per event class).  This suite draws every ``Event``
subclass — plus test-local ones the encoder has never seen — with node
ids and values chosen to hit every rendering branch: negative and huge
ints, bools, strings with non-ASCII characters, quotes, backslashes,
``%`` and control characters, tuples, and nested containers.  Three
deliberately wrong encoders prove the property can fail.
"""

import dataclasses
import json
from typing import Any

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.obs import events as events_module
from repro.obs.events import (
    DeliveryEvent,
    Event,
    WakeupEvent,
    event_to_dict,
    event_to_json,
    events_to_jsonl,
    node_key,
)


@dataclasses.dataclass(frozen=True)
class PeerEvent(Event):
    """Test-local: a ``peer`` node field, free-form values, a non-ASCII key."""

    peer: Any
    payload: Any = None
    café: Any = 0

    kind = "peer%s é"


@dataclasses.dataclass(frozen=True)
class KindFieldEvent(Event):
    """Test-local: a ``kind`` field overrides the class discriminator."""

    node: Any
    kind: Any = "custom"


EVENT_CLASSES = sorted(
    (
        obj
        for obj in vars(events_module).values()
        if isinstance(obj, type) and issubclass(obj, Event)
    ),
    key=lambda cls: cls.__name__,
) + [PeerEvent, KindFieldEvent]

NODE_FIELDS = {"initiator", "responder", "node", "peer"}

_tricky_chars = st.one_of(
    st.sampled_from(
        ['"', "\\", "%", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "€", "\u2028", "😀"]
    ),
    st.characters(),
)
_texts = st.text(_tricky_chars, max_size=8)
_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**30]),
)
node_ids = st.recursive(
    st.one_of(_ints, st.booleans(), _texts),
    lambda inner: st.tuples(inner, inner),
    max_leaves=4,
)
values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _texts, st.floats()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(_texts, inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def events(draw) -> Event:
    cls = draw(st.sampled_from(EVENT_CLASSES))
    kwargs = {
        field.name: draw(node_ids if field.name in NODE_FIELDS else values)
        for field in dataclasses.fields(cls)
    }
    return cls(**kwargs)


def spec_json(event: Event) -> str:
    return json.dumps(
        event_to_dict(event), sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def check_encoder(encode) -> None:
    """Run the spec property against ``encode`` (raises on a mismatch).

    Shrinking is off: the wrong encoders fail on their first examples,
    and shrinking those would cost seconds per case.
    """

    @given(events())
    @settings(max_examples=300, deadline=None, database=None, phases=[Phase.generate])
    def matches_spec(event):
        assert encode(event) == spec_json(event)

    matches_spec()


def test_compiled_encoder_matches_spec():
    check_encoder(event_to_json)


def _unsorted_keys(event):
    return json.dumps(event_to_dict(event), separators=(",", ":"), ensure_ascii=True)


def _bools_as_ints(event):
    record = {
        key: int(value) if isinstance(value, bool) else value
        for key, value in event_to_dict(event).items()
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _raw_unicode(event):
    return json.dumps(
        event_to_dict(event), sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


@pytest.mark.parametrize("wrong", [_unsorted_keys, _bools_as_ints, _raw_unicode])
def test_wrong_encoder_is_caught(wrong):
    with pytest.raises(AssertionError):
        check_encoder(wrong)


def test_bool_node_ids_pass_through_as_json_booleans():
    assert node_key(True) is True and node_key(False) is False
    assert event_to_json(WakeupEvent(round=1, node=True)) == (
        '{"kind":"wakeup","node":true,"round":1}'
    )
    assert event_to_json(
        DeliveryEvent(round=4, initiator=False, responder=(1, "é"), initiated_at=2)
    ) == (
        '{"initiated_at":2,"initiator":false,"initiator_alive":true,'
        '"kind":"deliver","learned_by_initiator":0,"learned_by_responder":0,'
        '"ping":false,"responder":"(1, \'\\u00e9\')","round":4}'
    )


def test_test_local_classes_need_no_registration():
    event = PeerEvent(round=2, peer=-5, payload=("a%", [1, True]))
    assert event_to_json(event) == (
        '{"caf\\u00e9":0,"kind":"peer%s \\u00e9","payload":["a%",[1,true]],'
        '"peer":-5,"round":2}'
    )
    assert event_to_json(KindFieldEvent(round=0, node=1, kind="x")) == (
        '{"kind":"x","node":1,"round":0}'
    )
    assert events_to_jsonl([event]) == event_to_json(event) + "\n"
