"""The planner's value records are named tuples with the field order they
had as dataclasses; `ClusterSpec` and `CostModelConfig` check a replaced
record as they check a constructed one; a plan's JSON round trip keeps its
messages; and a copy or a pickle keeps each type."""

import copy
import pickle

import pytest

from pipecut.costs import CostModelConfig, CostRecord, CostTableEntry
from pipecut.graph import ClusterSpec, ParseError
from pipecut.simulate import Event, Schedule
from pipecut.stages import Plan, SearchOptions, SearchResult, SearchStats, StagePlan

STAGES = (StagePlan((0, 2), 1, 2, 0.5, 1.0, 100), StagePlan((2, 4), 1, 2, 0.25, 0.5, 80))
PLAN = Plan(STAGES, 4, 2, 2.0, 16, 2)
EVENT = Event(0, 0, 1, "fwd", 0.0, 0.5)
RECORDS = {
    CostRecord(1.0, 2.0, 3): ["t_fwd_sec", "t_bwd_sec", "mem_bytes"],
    CostModelConfig(): ["device_flops_per_sec", "bwd_fwd_ratio", "grad_factor",
                        "optimizer_state_factor", "checkpointing", "cost_table"],
    CostTableEntry(1, 0.5): ["microbatch", "t_fwd", "t_bwd", "act_bytes"],
    STAGES[0]: ["blocks", "devices", "replicas", "t_fwd", "t_bwd", "mem"],
    PLAN: ["stages", "microbatches", "replica_factor", "objective", "batch_size",
           "devices_total"],
    SearchOptions(): ["disable_pruning", "visit_budget"],
    SearchResult(PLAN, SearchStats(visits=9, dp_calls=1)): ["plan", "stats"],
    EVENT: ["device", "stage", "microbatch", "phase", "start_sec", "end_sec"],
    Schedule((EVENT,), 0.5, 0.0, 1, 32.0): ["events", "iteration_time_sec",
                                            "bubble_fraction", "n_devices",
                                            "samples_per_sec"],
    ClusterSpec(2, 4, 10**9, 50e9, 10e9): ["num_nodes", "devices_per_node",
                                           "device_memory_bytes", "bw_intra", "bw_inter",
                                           "link_latency_sec"],
}
IDS = [type(record).__name__ for record in RECORDS]


@pytest.mark.parametrize(("record", "fields"), RECORDS.items(), ids=IDS)
def test_asdict_keeps_the_dataclass_field_order(record, fields):
    assert list(record._asdict()) == fields


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_no_instance_dict(record):
    with pytest.raises(TypeError):
        vars(record)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_type(record):
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert [type(v) for v in twin] == [type(v) for v in record]


def test_copied_search_result_keeps_its_counters():
    twin = pickle.loads(pickle.dumps(SearchResult(None, SearchStats(visits=9, dp_calls=1))))
    assert type(twin.stats) is SearchStats
    assert (twin.stats.visits, twin.stats.dp_calls) == (9, 1)


def test_defaults():
    assert ClusterSpec(1, 1, 1, 1.0, 1.0).link_latency_sec == 0.0
    assert CostModelConfig() == (15.7e12, 2.0, 1.0, 2.0, True, None)
    assert CostTableEntry(2, 1.5) == (2, 1.5, None, None)
    assert SearchOptions() == (False, None)
    stats = SearchStats()
    assert (stats.visits, stats.dp_calls) == (0, 0)


@pytest.mark.parametrize(("record", "change", "message"), [
    (ClusterSpec(2, 4, 10**9, 50e9, 10e9), {"num_nodes": 0},
     "cluster must have at least one node and one device"),
    (ClusterSpec(2, 4, 10**9, 50e9, 10e9), {"bw_inter": 60e9},
     "bandwidths must satisfy bw_intra >= bw_inter > 0"),
    (CostModelConfig(), {"device_flops_per_sec": 0},
     "device_flops_per_sec must be positive"),
    (CostModelConfig(), {"grad_factor": -1.0}, "cost factors must be non-negative"),
], ids=["cluster-nodes", "cluster-bandwidth", "config-flops", "config-factor"])
def test_replace_checks_the_result(record, change, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        record._replace(**change)
    with pytest.raises(ValueError, match=f"^{message}$"):
        type(record)(**{**record._asdict(), **change})


def test_replace_keeps_the_type():
    cluster = ClusterSpec(2, 4, 10**9, 50e9, 10e9)._replace(num_nodes=3)
    assert type(cluster) is ClusterSpec and cluster.num_devices == 12
    config = CostModelConfig()._replace(checkpointing=False)
    assert type(config) is CostModelConfig and config.checkpointing is False


class TestPlanJson:
    def test_round_trip(self):
        doc = PLAN.to_json()
        assert doc["stages"][0] == {"blocks": [0, 2], "devices": 1, "replicas": 2,
                                    "t_fwd": 0.5, "t_bwd": 1.0, "mem": 100}
        back = Plan.from_json(doc)
        assert back == PLAN and type(back) is Plan
        assert all(type(st) is StagePlan for st in back.stages)

    def test_whole_numbers_come_back_as_ints(self):
        back = Plan.from_json({**PLAN.to_json(), "microbatches": 4.0, "objective": 2})
        assert (type(back.microbatches), type(back.objective)) == (int, float)

    @pytest.mark.parametrize(("edit", "message"), [
        (lambda doc: doc.pop("batch_size"), "plan: missing fields ['batch_size']"),
        (lambda doc: doc["stages"][1].pop("mem"), "plan stage 1: missing fields ['mem']"),
        (lambda doc: doc.update(microbatches=2.5),
         "plan microbatches must be a whole number, got 2.5"),
        (lambda doc: doc["stages"][1].update(devices=1.5),
         "plan stage devices must be a whole number, got 1.5"),
        # the first field's fault is the one reported
        (lambda doc: doc.update(microbatches=2.5, batch_size=1.5),
         "plan microbatches must be a whole number, got 2.5"),
    ], ids=["missing-key", "missing-stage-key", "count", "stage-count", "order"])
    def test_messages(self, edit, message):
        doc = PLAN.to_json()
        edit(doc)
        with pytest.raises(ParseError) as info:
            Plan.from_json(doc)
        assert str(info.value) == message
