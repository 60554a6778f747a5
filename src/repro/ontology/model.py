"""The ontology graph and its subsumption reasoner.

The generation heuristic consumes exactly two services from the ontology:

* the *partitioning* of a concept's domain into itself plus all concepts it
  subsumes (:meth:`Ontology.partitions_of`), and
* subsumption tests between annotations
  (:meth:`Ontology.subsumes`), used when matching parameters and when
  checking which output partition a produced value falls into.

Both are answered from a precomputed transitive closure, so lookups are
O(1) after construction.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.ontology.concept import Concept


class OntologyError(ValueError):
    """Raised for malformed ontologies (cycles, dangling parents, dupes)."""


class Ontology:
    """An immutable DAG of :class:`Concept` objects with reasoning helpers."""

    def __init__(self, concepts: Iterable[Concept], name: str = "ontology") -> None:
        self.name = name
        self._concepts: dict[str, Concept] = {}
        for concept in concepts:
            if concept.name in self._concepts:
                raise OntologyError(f"duplicate concept {concept.name!r}")
            self._concepts[concept.name] = concept
        self._validate_parents()
        self._children: dict[str, tuple[str, ...]] = self._index_children()
        self._order: tuple[str, ...] = self._topological_order()
        self._ancestors: dict[str, frozenset[str]] = self._close_ancestors()
        self._descendants: dict[str, frozenset[str]] = self._close_descendants()
        self._depth: dict[str, int] = self._compute_depths()
        #: ``partitions_of`` answers per ``(name, max_depth)``: the DAG
        #: never changes after construction.
        self._partitions: dict[tuple[str, int | None], tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _validate_parents(self) -> None:
        for concept in self._concepts.values():
            for parent in concept.parents:
                if parent not in self._concepts:
                    raise OntologyError(
                        f"concept {concept.name!r} references unknown parent "
                        f"{parent!r}"
                    )

    def _index_children(self) -> dict[str, tuple[str, ...]]:
        children: dict[str, list[str]] = {name: [] for name in self._concepts}
        for concept in self._concepts.values():
            for parent in concept.parents:
                children[parent].append(concept.name)
        return {name: tuple(kids) for name, kids in children.items()}

    def _topological_order(self) -> tuple[str, ...]:
        indegree = {name: len(c.parents) for name, c in self._concepts.items()}
        queue = deque(sorted(n for n, d in indegree.items() if d == 0))
        order: list[str] = []
        while queue:
            name = queue.popleft()
            order.append(name)
            for child in self._children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._concepts):
            cyclic = sorted(n for n, d in indegree.items() if d > 0)
            raise OntologyError(f"subsumption cycle involving {cyclic}")
        return tuple(order)

    def _close_ancestors(self) -> dict[str, frozenset[str]]:
        ancestors: dict[str, frozenset[str]] = {}
        for name in self._order:
            concept = self._concepts[name]
            acc: set[str] = set()
            for parent in concept.parents:
                acc.add(parent)
                acc.update(ancestors[parent])
            ancestors[name] = frozenset(acc)
        return ancestors

    def _close_descendants(self) -> dict[str, frozenset[str]]:
        descendants: dict[str, set[str]] = {name: set() for name in self._concepts}
        for name in reversed(self._order):
            for child in self._children[name]:
                descendants[name].add(child)
                descendants[name].update(descendants[child])
        return {name: frozenset(ds) for name, ds in descendants.items()}

    def _compute_depths(self) -> dict[str, int]:
        depth: dict[str, int] = {}
        for name in self._order:
            parents = self._concepts[name].parents
            depth[name] = 0 if not parents else 1 + max(depth[p] for p in parents)
        return depth

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._concepts

    def __len__(self) -> int:
        return len(self._concepts)

    def __iter__(self) -> Iterator[Concept]:
        return iter(self._concepts.values())

    def get(self, name: str) -> Concept:
        """Return the concept called ``name``.

        Raises:
            KeyError: If the concept is not in the ontology.
        """
        return self._concepts[name]

    def names(self) -> tuple[str, ...]:
        """All concept names, in a deterministic topological order."""
        return self._order

    def roots(self) -> tuple[str, ...]:
        """Names of concepts without parents."""
        return tuple(n for n in self._order if self._concepts[n].is_root)

    def children(self, name: str) -> tuple[str, ...]:
        """Direct sub-concepts of ``name``."""
        if name not in self._concepts:
            raise KeyError(name)
        return self._children[name]

    def leaves(self) -> tuple[str, ...]:
        """Names of concepts without sub-concepts."""
        return tuple(n for n in self._order if not self._children[n])

    def depth(self, name: str) -> int:
        """Length of the longest path from a root to ``name``."""
        return self._depth[name]

    # ------------------------------------------------------------------
    # Reasoning
    # ------------------------------------------------------------------
    def subsumes(self, general: str, specific: str) -> bool:
        """True iff ``specific`` <= ``general`` in the subsumption order.

        A concept subsumes itself.
        """
        if general not in self._concepts or specific not in self._concepts:
            raise KeyError(f"unknown concept in subsumes({general!r}, {specific!r})")
        return general == specific or general in self._ancestors[specific]

    def strictly_subsumes(self, general: str, specific: str) -> bool:
        """True iff ``specific`` < ``general`` (strict subsumption)."""
        return general != specific and self.subsumes(general, specific)

    def ancestors(self, name: str) -> frozenset[str]:
        """All strict super-concepts of ``name``."""
        if name not in self._concepts:
            raise KeyError(name)
        return self._ancestors[name]

    def descendants(self, name: str) -> frozenset[str]:
        """All strict sub-concepts of ``name``."""
        if name not in self._concepts:
            raise KeyError(name)
        return self._descendants[name]

    def partitions_of(self, name: str, max_depth: int | None = None) -> tuple[str, ...]:
        """The partitions of ``name``'s domain per §3.1.

        The domain of a parameter annotated with concept ``c`` is divided
        into one partition per concept ``c' <= c`` (including ``c``
        itself), in deterministic topological order.

        Args:
            name: The annotating concept.
            max_depth: Optional cap on descent depth below ``name`` (used
                by the partitioning-depth ablation); ``None`` descends to
                the leaves.
        """
        partitions = self._partitions.get((name, max_depth))
        if partitions is not None:
            return partitions
        if name not in self._concepts:
            raise KeyError(name)
        members = {name} | set(self._descendants[name])
        if max_depth is not None:
            base = self._depth[name]
            members = {m for m in members if self._depth[m] - base <= max_depth}
        partitions = tuple(n for n in self._order if n in members)
        self._partitions[(name, max_depth)] = partitions
        return partitions

    def most_specific(self, names: Iterable[str]) -> tuple[str, ...]:
        """Of ``names``, keep only those not strictly subsuming another."""
        pool = set(names)
        return tuple(
            n
            for n in self._order
            if n in pool and not (self._descendants[n] & pool)
        )

    def least_common_subsumers(self, first: str, second: str) -> tuple[str, ...]:
        """The minimal concepts subsuming both ``first`` and ``second``."""
        common = ({first} | self._ancestors[first]) & ({second} | self._ancestors[second])
        if not common:
            return ()
        minimal = {
            c for c in common if not (self._descendants[c] & common)
        }
        return tuple(n for n in self._order if n in minimal)

    def has_realization(self, name: str) -> bool:
        """True when instances of ``name`` itself (not only of its
        sub-concepts) can exist — i.e. the concept is not covered by its
        children (§3.2)."""
        return not self._concepts[name].covered_by_children
