"""The graph records are tuples: `_asdict()` and `_replace()` stand in for
`vars()` and `dataclasses.replace`, and a replaced `Node` is checked as a
constructed one is."""

import copy
import pickle

import pytest

from pipecut.graph import Node, TaskInfo, ValueInfo, Violation


def test_asdict_in_field_order():
    assert TaskInfo("mm", 2.0, {"h": 1})._asdict() == \
        {"op": "mm", "flops_per_sample": 2.0, "attrs": {"h": 1}}
    assert list(ValueInfo(1, 2, True)._asdict()) == ["fixed_bytes", "bytes_per_sample",
                                                     "is_param"]
    assert list(Node("v", value=ValueInfo())._asdict()) == ["id", "task", "value"]
    assert list(Violation("k", ("a",), "d")._asdict()) == ["kind", "nodes", "detail"]


def test_no_instance_dict():
    for record in (TaskInfo("mm"), ValueInfo(), Node("v", value=ValueInfo())):
        with pytest.raises(TypeError):
            vars(record)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_replace_makes_a_new_record():
    node = Node("t", task=TaskInfo("mm", attrs={"h": 1}))
    renamed = node._replace(id="u")
    assert renamed == Node("u", task=node.task) and node.id == "t"
    assert type(renamed) is Node and renamed.task is node.task
    info = ValueInfo(4)._replace(is_param=True)
    assert info == ValueInfo(4, 0, True) and type(info) is ValueInfo


@pytest.mark.parametrize("change", [{"task": None}, {"value": ValueInfo()}],
                         ids=["neither", "both"])
def test_replace_checks_a_node(change):
    with pytest.raises(ValueError, match="^node 't' must be exactly one of task/value$"):
        Node("t", task=TaskInfo("mm"))._replace(**change)


def test_copy_and_pickle_keep_the_record():
    node = Node("t", task=TaskInfo("mm", 1.5, {"h": [1, 2]}))
    for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin == node and type(twin) is Node and type(twin.task) is TaskInfo
        assert twin.task.attrs is not node.task.attrs
