"""The crossing table is the one boundary rule, read value by value.

`AtomicPartition.crossing` lists every value some atom takes as an input,
with its owner atom and its reader atoms: all readers of a graph input, the
readers other than the owner of any other value. The values whose readers
include atom `a` must be exactly `a.input_values`, and everything derived
from the table (the atom dependencies, a group's outputs) must equal a
recount from `consumer_atoms` and `owner_of_value`."""

import random

import pytest

from pipecut.atoms import build_atomic_subcomponents
from pipecut.generators import gen_bert_like, gen_resnet_like

from helpers import random_layered_graph
from test_shared_rules import rich_graph

GRAPHS = {
    **{f"{make.__name__}-{seed}": (lambda make=make, seed=seed: make(random.Random(seed)))
       for make in (rich_graph, random_layered_graph) for seed in range(6)},
    "bert": lambda: gen_bert_like(64, 4, 16, 100),
    "resnet": lambda: gen_resnet_like(50, 1),
}


@pytest.fixture(params=sorted(GRAPHS))
def partition(request):
    return build_atomic_subcomponents(GRAPHS[request.param]())


def readers_by_recount(p, vid) -> tuple[int, ...]:
    consumers = p.consumer_atoms(vid)
    if vid not in p.graph.inputs:
        consumers -= {p.owner_of_value(vid)}
    return tuple(sorted(consumers))


class TestCrossingTable:
    def test_reads_of_each_atom_are_its_inputs(self, partition):
        p = partition
        read_by = [set() for _ in p.atoms]
        for vid, (owner, readers) in p.crossing.items():
            assert owner == p.owner_of_value(vid)
            for a in readers:
                read_by[a].add(vid)
        for a, atom in enumerate(p.atoms):
            assert read_by[a] == set(atom.input_values), atom.id
        assert any(p.crossing.values())

    def test_table_holds_every_crossing_value_in_value_id_order(self, partition):
        p = partition
        expected = {vid: (p.owner_of_value(vid), readers_by_recount(p, vid))
                    for vid in p.graph.value_ids()}
        assert p.crossing == {vid: e for vid, e in expected.items() if e[1]}
        assert list(p.crossing) == [vid for vid in p.graph.value_ids() if vid in p.crossing]

    def test_dependencies_equal_a_recount(self, partition):
        p = partition
        deps = set()
        for vid in p.graph.value_ids():
            if p.graph.producer(vid) is None:
                continue
            owner = p.owner_of_value(vid)
            deps |= {(owner, c) for c in p.consumer_atoms(vid) if c != owner}
        assert p.dependencies() == sorted(deps)

    def test_group_outputs_equal_a_recount(self, partition):
        p = partition
        rng = random.Random(len(p.atoms))
        for trial in range(10):
            group = set(rng.sample(range(len(p.atoms)), rng.randint(1, len(p.atoms))))
            sub = p.merged(group, f"G{trial}")
            owned = [vid for vid in p.graph.value_ids() if p.owner_of_value(vid) in group]
            assert sub.output_values == tuple(sorted(
                vid for vid in owned
                if vid in p.graph.outputs or not p.consumer_atoms(vid) <= group))
