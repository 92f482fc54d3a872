"""Each atom is built once, from the crossing table.

`AtomicPartition` gives every atom its boundary from the crossing table as it
builds it, so `build_atomic_subcomponents` never calls `merged`, the union
rule that `test_atom_boundaries.py` checks against its reference. The terms
it keeps share one `produced` tuple per distinct value.
"""

import random

import pytest

from pipecut.atoms import AtomicPartition, build_atomic_subcomponents
from pipecut.generators import gen_bert_like

from test_atom_boundaries import expected_boundary
from test_shared_rules import rich_graph

GRAPHS = {"bert": lambda: gen_bert_like(64, 4, 16, 100),
          **{f"rich{seed}": (lambda seed=seed: rich_graph(random.Random(seed)))
             for seed in range(12)}}


@pytest.fixture
def merged_calls(monkeypatch):
    calls = []
    merged = AtomicPartition.merged

    def counting(self, *args, **kwargs):
        calls.append(args)
        return merged(self, *args, **kwargs)

    monkeypatch.setattr(AtomicPartition, "merged", counting)
    return calls


@pytest.mark.parametrize("name", list(GRAPHS))
def test_build_calls_merged_zero_times(name, merged_calls):
    p = build_atomic_subcomponents(GRAPHS[name]())
    assert merged_calls == []
    # the boundaries still hold, and `merged` of one atom rebuilds it
    for idx, atom in enumerate(p.atoms):
        assert (atom.input_values, atom.output_values) == \
            expected_boundary(p.graph, atom.node_ids)
        assert p.merged([idx], atom.id) == atom
    assert len(merged_calls) == len(p.atoms)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_produced_tuples_are_shared(name):
    p = build_atomic_subcomponents(GRAPHS[name]())
    shapes = [shape for _, _, atom_shapes in p.terms for shape in atom_shapes]
    distinct = {shape.produced for shape in shapes}
    assert len({id(shape.produced) for shape in shapes}) == len(distinct)
    if name == "bert":  # 44 shapes, 6 distinct tuples
        assert len(distinct) < len(shapes) // 4

