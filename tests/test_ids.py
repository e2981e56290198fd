"""Oid is a tuple: what that buys, and what must not leak from it.

Identifier equality, hashing and ordering are the C-level tuple
operations (no Python frame per comparison — the point of the type), so
the first half pins the value semantics every table, index and cache
relies on.  The second half guards the one hazard of being a tuple: a
JSON encoder that meets a bare Oid writes ``["node", seq]`` without
complaint, and such a list would never decode back to an Oid.  The WAL
and the wire must tag every Oid at any nesting depth, and a JSON column
must keep refusing one.
"""

from __future__ import annotations

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import ColumnType
from repro.db.wal import (
    WriteAheadLog,
    encode_value,
    render_record,
    untag,
)
from repro.errors import TypeMismatchError
from repro.ids import IdGenerator, IdNamespace, Oid
from repro.net import FrameDecoder, encode_frame
from tests.test_net_protocol import envelopes, jsonish, keys, oids


class TestValueSemantics:
    def test_comparison_never_enters_python(self):
        """A later edit that defines __eq__/__hash__/__lt__ on Oid puts
        a Python frame back under every dict probe and list.index."""
        assert Oid.__eq__ is tuple.__eq__
        assert Oid.__ne__ is tuple.__ne__
        assert Oid.__hash__ is tuple.__hash__
        assert Oid.__lt__ is tuple.__lt__
        assert Oid.__le__ is tuple.__le__
        assert Oid.__gt__ is tuple.__gt__
        assert Oid.__ge__ is tuple.__ge__

    def test_equality_and_hash_across_nodes(self):
        a, same, other_seq, other_node = (
            Oid("n.char", 7), Oid("n.char", 7), Oid("n.char", 8),
            Oid("m.char", 7))
        assert a == same and hash(a) == hash(same)
        assert a != other_seq and a != other_node
        assert len({a, same, other_seq, other_node}) == 3
        assert {a: "x"}[same] == "x"
        assert [other_node, a].index(same) == 1

    def test_orders_by_node_then_seq(self):
        ids = [Oid("b", 1), Oid("a", 10), Oid("a", 2), Oid("b", 0)]
        assert sorted(ids) == [Oid("a", 2), Oid("a", 10), Oid("b", 0),
                               Oid("b", 1)]
        assert Oid("a", 99) < Oid("b", 0)
        assert max(ids) == Oid("b", 1)

    def test_fields_by_name_position_and_keyword(self):
        oid = Oid(node="n.doc", seq=3)
        assert (oid.node, oid.seq) == ("n.doc", 3) == tuple(oid)
        node, seq = oid
        assert (node, seq) == ("n.doc", 3)
        assert repr(oid) == "Oid(node='n.doc', seq=3)"

    @given(oids)
    def test_str_parse_round_trip(self, oid):
        assert Oid.parse(str(oid)) == oid
        assert type(Oid.parse(str(oid))) is Oid
        assert f"{oid}" == f"{oid.node}:{oid.seq}"

    def test_parse_keeps_dotted_nodes_and_rejects_garbage(self):
        assert Oid.parse("tendax.char:12") == Oid("tendax.char", 12)
        assert Oid.parse("a:b:3") == Oid("a:b", 3)
        for bad in ("", "nocolon", ":3", "a:", "a:x"):
            with pytest.raises(ValueError):
                Oid.parse(bad)

    def test_immutable_and_slotless(self):
        oid = Oid("a", 1)
        with pytest.raises(AttributeError):
            oid.seq = 2
        with pytest.raises(AttributeError):
            oid.extra = 1
        assert not hasattr(oid, "__dict__")

    @given(oids)
    def test_pickle_and_copy_keep_the_type(self, oid):
        for clone in (pickle.loads(pickle.dumps(oid)), copy.copy(oid),
                      copy.deepcopy(oid), copy.deepcopy({"k": [oid]})["k"][0]):
            assert clone == oid
            assert type(clone) is Oid

    def test_generators_mint_real_oids(self):
        assert type(IdGenerator("n").next()) is Oid
        assert IdNamespace("n").next("char") == Oid("n.char", 1)


def _count_oids(value) -> int:
    if isinstance(value, Oid):
        return 1
    if isinstance(value, dict):
        return sum(_count_oids(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_count_oids(v) for v in value)
    return 0


def _count_tags(raw) -> int:
    """``{"__oid__": ...}`` objects in parsed JSON (no decoding)."""
    if isinstance(raw, dict):
        if set(raw) == {"__oid__"}:
            return 1
        return sum(_count_tags(v) for v in raw.values())
    if isinstance(raw, list):
        return sum(_count_tags(v) for v in raw)
    return 0


def _lists_as_written(value):
    """What JSON makes of a value's containers (tuples become lists)."""
    if isinstance(value, Oid):
        return value
    if isinstance(value, dict):
        return {k: _lists_as_written(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lists_as_written(v) for v in value]
    return value


def _decoded(text: str):
    """``text`` parsed the way the WAL and the wire read it back."""
    return json.loads(text, object_hook=untag)


#: jsonish with tuples mixed in as containers: an Oid nested in a tuple
#: nested in a list is the case an ``isinstance(x, tuple)`` check that
#: runs before the Oid check gets wrong.
nested = st.recursive(
    jsonish,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=3)
    | st.dictionaries(keys, inner, max_size=3),
    max_leaves=10)


class TestNoUntaggedOid:
    @settings(max_examples=200)
    @given(nested)
    def test_encode_value_tags_every_oid(self, value):
        text = json.dumps(encode_value(value))
        assert _count_tags(json.loads(text)) == _count_oids(value)
        assert _decoded(text) == _lists_as_written(value)

    @settings(max_examples=200)
    @given(st.dictionaries(keys, nested, max_size=4))
    def test_rendered_wal_record_tags_every_oid(self, payload):
        record = WriteAheadLog().append("CREATE_TABLE", 0, **payload)
        line = render_record(record)
        assert _count_tags(json.loads(line)["payload"]) == _count_oids(payload)
        assert _decoded(line)["payload"] == _lists_as_written(payload)

    @settings(max_examples=200)
    @given(st.dictionaries(keys, nested, max_size=4))
    def test_rendered_row_image_tags_every_oid(self, tmp_path_factory,
                                               values):
        """DML records hold stored values undecorated; the file line is
        where they get tagged."""
        path = tmp_path_factory.getbasetemp() / "row-image.wal"
        path.unlink(missing_ok=True)
        wal = WriteAheadLog(str(path))
        wal.append("COMMIT", 1, dml=[
            ("INSERT", "t", 1, tuple(values), tuple(values.values()))])
        wal.close()
        with open(path, encoding="utf-8") as handle:
            line = handle.read().splitlines()[1]
        raw = json.loads(line)["payload"]
        assert (raw["table"], raw["rowid"]) == ("t", 1)
        rendered = raw.get("values", {})    # a record naming no column
        assert _count_tags(rendered) == _count_oids(values)
        assert _decoded(line)["payload"].get("values", {}) \
            == _lists_as_written(values)

    @settings(max_examples=300)
    @given(envelopes)
    def test_encoded_frame_tags_every_oid(self, envelope):
        frame = encode_frame(envelope)
        raw = json.loads(frame[4:])
        assert _count_tags(raw) == _count_oids(envelope.to_wire())
        assert list(FrameDecoder().feed(frame)) == [envelope]

    def test_a_bare_oid_would_have_been_a_list(self):
        """The hazard the tests above guard against, spelled out."""
        assert json.dumps(Oid("a", 1)) == '["a", 1]'
        assert json.dumps(encode_value(Oid("a", 1))) == '{"__oid__": "a:1"}'
        assert encode_value([(Oid("a", 1),)]) == [[{"__oid__": "a:1"}]]


class TestJsonColumnRefusesOids:
    @pytest.mark.parametrize("value", [
        Oid("a", 1),
        [Oid("a", 1)],
        {"ref": Oid("a", 1)},
        {"deep": [1, {"er": (2, [Oid("a", 1)])}]},
    ])
    def test_rejected_at_any_depth(self, value):
        with pytest.raises(TypeMismatchError):
            ColumnType.JSON.validate(value)

    def test_plain_tuples_still_pass(self):
        value = {"pair": ("a", 1), "nested": [("b", 2)]}
        assert ColumnType.JSON.validate(value) == value
