"""The contract of the graph records `Node`, `TaskInfo` and `ValueInfo`.

These tests use only what every caller may rely on, whatever a record is
built from: keyword construction and its defaults, immutability, a fresh
`attrs` per task, `Node`'s exactly-one-payload check and its message, the
key order of the saved payloads, and a load -> save -> load round trip over
the graphs that `helpers.py` builds.
"""

import json
import random

import pytest

from pipecut.graph import (
    Node,
    TaskInfo,
    ValueInfo,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
)

from helpers import chain_graph, random_layered_graph, tied_matmul_doc


class TestConstruction:
    def test_task_info_keywords_and_defaults(self):
        info = TaskInfo(op="matmul")
        assert (info.op, info.flops_per_sample, info.attrs) == ("matmul", 0.0, {})
        assert type(info.flops_per_sample) is float
        info = TaskInfo(attrs={"h": 2}, flops_per_sample=3.5, op="add")
        assert (info.op, info.flops_per_sample, info.attrs) == ("add", 3.5, {"h": 2})
        assert TaskInfo("add", 3.5, {"h": 2}) == info

    def test_value_info_keywords_and_defaults(self):
        info = ValueInfo()
        assert (info.fixed_bytes, info.bytes_per_sample, info.is_param) == (0, 0, False)
        info = ValueInfo(is_param=True, fixed_bytes=8)
        assert (info.fixed_bytes, info.bytes_per_sample, info.is_param) == (8, 0, True)
        assert ValueInfo(8, 0, True) == info

    def test_node_keywords_and_defaults(self):
        v = Node("v", value=ValueInfo(4))
        assert (v.id, v.task, v.value) == ("v", None, ValueInfo(4))
        assert v.is_value and not v.is_task
        t = Node(id="t", task=TaskInfo("mm"))
        assert (t.id, t.task, t.value) == ("t", TaskInfo("mm"), None)
        assert t.is_task and not t.is_value
        assert Node("t", TaskInfo("mm")) == t

    def test_records_compare_by_fields(self):
        assert Node("v", value=ValueInfo(4)) == Node("v", value=ValueInfo(4))
        assert Node("v", value=ValueInfo(4)) != Node("v", value=ValueInfo(5))
        assert Node("v", value=ValueInfo(4)) != Node("w", value=ValueInfo(4))
        assert TaskInfo("mm", attrs={"h": 2}) != TaskInfo("mm", attrs={"h": 3})


class TestImmutability:
    @pytest.mark.parametrize("record, name", [
        (TaskInfo("mm"), "op"), (TaskInfo("mm"), "flops_per_sample"),
        (TaskInfo("mm"), "attrs"), (ValueInfo(), "fixed_bytes"),
        (ValueInfo(), "bytes_per_sample"), (ValueInfo(), "is_param"),
        (Node("v", value=ValueInfo()), "id"), (Node("v", value=ValueInfo()), "task"),
        (Node("v", value=ValueInfo()), "value"),
    ])
    def test_setting_a_field_raises(self, record, name):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        assert getattr(record, name) is before

    def test_default_attrs_are_not_shared(self):
        a, b = TaskInfo("mm"), TaskInfo("mm")
        assert a.attrs is not b.attrs
        a.attrs["h"] = 2
        assert b.attrs == {} and TaskInfo("mm").attrs == {}


class TestExactlyOnePayload:
    @pytest.mark.parametrize("kwargs", [{}, {"task": TaskInfo("mm"), "value": ValueInfo()}],
                             ids=["neither", "both"])
    def test_message(self, kwargs):
        with pytest.raises(ValueError) as err:
            Node("n0", **kwargs)
        assert str(err.value) == "node 'n0' must be exactly one of task/value"


class TestSavedPayloads:
    def test_payload_key_order(self):
        doc = graph_to_json(chain_graph())
        tasks = [n for n in doc["nodes"] if n["kind"] == "task"]
        values = [n for n in doc["nodes"] if n["kind"] == "value"]
        assert tasks and values
        for n in doc["nodes"]:
            assert list(n) == ["id", "kind", n["kind"]]
        for n in tasks:
            assert list(n["task"]) == ["op", "flops_per_sample", "attrs"]
        for n in values:
            assert list(n["value"]) == ["fixed_bytes", "bytes_per_sample", "is_param"]
        assert list(doc) == ["nodes", "edges", "inputs", "outputs"]

    def test_saved_attrs_are_a_copy(self):
        g = chain_graph()
        doc = graph_to_json(g)
        doc["nodes"][[n["kind"] for n in doc["nodes"]].index("task")]["task"]["attrs"]["h"] = 1
        assert all(n.task.attrs == {} for n in g.nodes.values() if n.is_task)


def corpus():
    yield "chain", chain_graph()
    yield "chain5", chain_graph(5, per_sample=12, flops=2.5)
    yield "tied", graph_from_json(tied_matmul_doc())
    for seed in range(8):
        yield f"layered{seed}", random_layered_graph(random.Random(seed))


@pytest.mark.parametrize("name, g", list(corpus()), ids=[name for name, _ in corpus()])
def test_load_save_load_round_trip(name, g, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g, str(first))
    loaded = load_graph(str(first))
    assert loaded == g
    assert [repr(n) for n in loaded.nodes.values()] == [repr(n) for n in g.nodes.values()]
    save_graph(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()
    again = load_graph(str(second))
    assert again == loaded and graph_to_json(again) == json.loads(first.read_text())
