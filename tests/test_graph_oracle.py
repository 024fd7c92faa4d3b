"""networkx as a differential oracle for :class:`~repro.ir.graph.OperatorGraph`.

``OperatorGraph`` keeps its own dict adjacency; it used to wrap an
``nx.DiGraph``.  Every query must still answer exactly what the networkx
graph built by the same ``add`` calls answers: topological order, edge
order, predecessor/successor order and the fingerprint.  networkx is a
dev-only dependency used solely here.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import OperatorGraph, elementwise
from repro.models import build_model, list_models
from repro.models.registry import get_entry
from repro.utils import stable_hash


def oracle(calls) -> nx.DiGraph:
    """The networkx graph the seed implementation built from ``calls``."""
    reference = nx.DiGraph()
    for operator, inputs in calls:
        reference.add_node(operator.name, op=operator)
        for producer in inputs:
            reference.add_edge(producer, operator.name)
    return reference


def assert_matches(graph: OperatorGraph, reference: nx.DiGraph) -> None:
    assert [op.name for op in graph.operators] == list(nx.topological_sort(reference))
    assert [(u.name, v.name) for u, v in graph.edges()] == list(reference.edges())
    for name in reference:
        assert [op.name for op in graph.predecessors(name)] == list(
            reference.predecessors(name)
        )
        assert [op.name for op in graph.successors(name)] == list(reference.successors(name))
        assert graph.get(name) is reference.nodes[name]["op"]
    nodes = sorted((name, reference.nodes[name]["op"].signature()) for name in reference)
    edges = sorted(reference.edges())
    assert graph.fingerprint() == stable_hash(("operator-graph", tuple(nodes), tuple(edges)))
    assert len(graph) == reference.number_of_nodes()
    with pytest.raises(KeyError):
        graph.get("no-such-operator")


@st.composite
def random_dags(draw):
    """Build calls for a random DAG: node names are a shuffled numbering (so
    name order differs from build order) and ``inputs`` may repeat a
    producer."""
    size = draw(st.integers(min_value=1, max_value=14))
    labels = draw(st.permutations(range(size)))
    calls = []
    for index in range(size):
        names = [op.name for op, _ in calls]
        inputs = draw(st.lists(st.sampled_from(names), max_size=4)) if names else []
        width = draw(st.sampled_from([4, 8, 16]))
        calls.append((elementwise(f"op{labels[index]}", {"r": 4, "c": width}), inputs))
    return calls


@settings(max_examples=200, deadline=None)
@given(calls=random_dags())
def test_random_dags_match_networkx(calls):
    graph = OperatorGraph(name="random")
    for operator, inputs in calls:
        graph.add(operator, inputs)
    assert_matches(graph, oracle(calls))


@pytest.mark.parametrize("name", list_models())
def test_registry_models_match_networkx(name, monkeypatch):
    calls: list = []
    add = OperatorGraph.add

    def recording_add(self, operator, inputs=()):
        calls.append((operator, [p if isinstance(p, str) else p.name for p in inputs]))
        return add(self, operator, inputs)

    monkeypatch.setattr(OperatorGraph, "add", recording_add)
    graph = build_model(name, get_entry(name).batch_sizes[0])
    assert calls, "the model builder must go through OperatorGraph.add"
    assert_matches(graph, oracle(calls))
