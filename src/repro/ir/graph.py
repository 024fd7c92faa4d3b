"""Operator graphs: the model-level IR.

A model is a DAG of operators.  T10 parses ONNX models into this form (paper
§5); our reproduction builds graphs directly with the Python model builders in
:mod:`repro.models`.  The graph records producer/consumer edges so the
inter-operator scheduler knows which intermediate tensors flow between
operators (it inserts all-to-all layout transitions on those edges when two
consecutive operators pick mismatched partitionings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.ir.operator import Operator
from repro.ir.tensor import TensorRole
from repro.utils.fingerprint import stable_hash


@dataclass(eq=False)
class OperatorGraph:
    """Directed acyclic graph of :class:`~repro.ir.operator.Operator` nodes.

    Adjacency lives in insertion-ordered dicts used as ordered sets; producers
    must exist before their consumers, so the graph is acyclic by construction.
    Graphs compare by identity; :meth:`fingerprint` compares content.
    """

    name: str = "model"
    _ops: dict[str, Operator] = field(default_factory=dict, repr=False)
    _preds: dict[str, dict[str, None]] = field(default_factory=dict, repr=False)
    _succs: dict[str, dict[str, None]] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, operator: Operator, inputs: Sequence[str | Operator] = ()) -> Operator:
        """Add ``operator`` to the graph, depending on the named producers.

        ``inputs`` lists the operators whose outputs feed this one; they must
        already be in the graph (a repeated producer adds one edge).  Returns
        the operator for chaining.
        """
        if operator.name in self._ops:
            raise ValueError(f"duplicate operator name {operator.name!r}")
        producers: dict[str, None] = {}
        for producer in inputs:
            producer_name = producer.name if isinstance(producer, Operator) else producer
            if producer_name not in self._ops:
                raise ValueError(
                    f"operator {operator.name!r} depends on unknown producer {producer_name!r}"
                )
            producers[producer_name] = None
        self._ops[operator.name] = operator
        self._preds[operator.name] = producers
        self._succs[operator.name] = {}
        for producer_name in producers:
            self._succs[producer_name][operator.name] = None
        return operator

    def extend(self, operators: Iterable[tuple[Operator, Sequence[str]]]) -> None:
        """Add several ``(operator, input names)`` pairs in order."""
        for operator, inputs in operators:
            self.add(operator, inputs)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    @property
    def operators(self) -> list[Operator]:
        """Operators in topological (execution) order.

        Kahn's algorithm by generations, scanning consumers in edge-insertion
        order: the same order ``networkx.topological_sort`` gives.
        """
        pending = {name: len(preds) for name, preds in self._preds.items() if preds}
        generation = [name for name, preds in self._preds.items() if not preds]
        order: list[Operator] = []
        while generation:
            order.extend(self._ops[name] for name in generation)
            ready: list[str] = []
            for name in generation:
                for consumer in self._succs[name]:
                    pending[consumer] -= 1
                    if not pending[consumer]:
                        ready.append(consumer)
            generation = ready
        return order

    def get(self, name: str) -> Operator:
        """Look an operator up by name."""
        return self._ops[name]

    def predecessors(self, name: str) -> list[Operator]:
        """Producers feeding the named operator."""
        return [self._ops[p] for p in self._preds[name]]

    def successors(self, name: str) -> list[Operator]:
        """Consumers of the named operator's output."""
        return [self._ops[s] for s in self._succs[name]]

    def edges(self) -> list[tuple[Operator, Operator]]:
        """Producer/consumer pairs."""
        return [
            (self._ops[u], self._ops[v]) for u, succs in self._succs.items() for v in succs
        ]

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        """Stable content hash of the graph's structure.

        Covers every operator (name and full expression signature, hence
        shapes, dtypes, roles and op types) and every producer/consumer
        edge.  Nodes and edges are sorted by name so two graphs that contain
        the same operators and edges fingerprint identically regardless of
        the order they were built in.  The model's display ``name`` is
        deliberately excluded: the plan cache should share compiled programs
        between structurally identical graphs.
        """
        nodes = sorted((name, op.signature()) for name, op in self._ops.items())
        edges = sorted((u, v) for u, succs in self._succs.items() for v in succs)
        return stable_hash(("operator-graph", tuple(nodes), tuple(edges)))

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    @property
    def total_flops(self) -> float:
        """Total FLOPs of one forward pass."""
        return sum(op.total_flops for op in self.operators)

    @property
    def total_weight_bytes(self) -> int:
        """Bytes of all persistent weights of the model."""
        return sum(op.weight_bytes for op in self.operators)

    @property
    def num_parameters(self) -> int:
        """Number of weight elements (parameters) of the model."""
        total = 0
        for op in self.operators:
            for spec in op.inputs:
                if spec.role is TensorRole.WEIGHT:
                    total += op.expr.tensor_elements(spec)
        return total

    @property
    def total_activation_bytes(self) -> int:
        """Bytes of all operator outputs (upper bound on live activations)."""
        return sum(op.output_bytes for op in self.operators)

    def unique_signatures(self) -> dict[tuple, int]:
        """Histogram of operator signatures (how much plan caching helps)."""
        histogram: dict[tuple, int] = {}
        for op in self.operators:
            signature = op.signature()
            histogram[signature] = histogram.get(signature, 0) + 1
        return histogram

    def op_type_histogram(self) -> dict[str, int]:
        """Histogram of operator kernel families."""
        histogram: dict[str, int] = {}
        for op in self.operators:
            histogram[op.op_type] = histogram.get(op.op_type, 0) + 1
        return histogram

    def summary(self) -> str:
        """Human-readable one-paragraph description of the graph."""
        kinds = ", ".join(
            f"{count}x {kind}" for kind, count in sorted(self.op_type_histogram().items())
        )
        return (
            f"{self.name}: {len(self)} operators ({kinds}); "
            f"{self.num_parameters / 1e6:.1f}M parameters, "
            f"{self.total_flops / 1e9:.2f} GFLOPs per pass"
        )
