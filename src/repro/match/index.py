"""The signature index: sub-quadratic candidate pruning for §6 matching.

All-pairs behavior matching invokes O(n²) module pairs; over a 10k
catalog that is ~50M comparisons before the first real match is found.
The :class:`SignatureIndex` prunes that space with three tiers, each
cheaper than an invocation:

1. **Shape blocking** (sound): two modules can only map their
   parameters (:func:`repro.core.matching.map_parameters`) when their
   input and output counts are equal, so modules are partitioned by
   ``(n_inputs, n_outputs)`` and cross-shape pairs are never candidates.
   This tier can never lose a true match.
2. **Exact-token buckets** (deterministic floor): any two modules
   sharing at least one identical behavior token
   (:func:`repro.match.signature.behavior_token`) are *always*
   candidates, regardless of minhash band luck.  Agreeing §6 pairs in a
   catalog whose examples are drawn from a shared instance pool share
   tokens, so this tier alone preserves their candidacy.
3. **Shared-input buckets** (deterministic floor for overlaps): any two
   modules exercised on at least one identical example *input*
   (:func:`repro.match.signature.input_token`) are always candidates —
   this keeps pairs that *disagree* on some shared inputs (the
   OVERLAPPING case) in the candidate set even when their agreeing
   examples do not coincide.
4. **LSH band buckets** (probabilistic recall): modules whose minhash
   signatures agree on every row of at least one band are candidates —
   the classic banding S-curve, tuned by
   :class:`repro.match.signature.SignatureConfig`.  This catches
   similar-but-not-identical behavior the exact tier would miss.

Pruning affects *candidate recall only*: every surviving pair is still
classified by the exact §6 comparison (invoking the candidate on the
query's example inputs), so the index can never change the
classification of a verified pair — see ``docs/MATCHING.md`` for the
full guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat

from repro.core.examples import DataExample
# ``input_tokens`` is not called here (a sketch takes the input tokens
# from the same pass as ``behavior_tokens``).  It stays imported because
# perfbench's traced synth-match wraps the sketch functions by their
# names in this module, ``input_tokens`` among them.
from repro.match.signature import (  # noqa: F401
    MinHashRows,
    MinHashSignature,
    SignatureConfig,
    band_keys,
    behavior_tokens,
    compute_signature,
    input_tokens,
)
from repro.modules.model import Module

#: A module's blocking shape: (input count, output count).
Shape = "tuple[int, int]"


@dataclass(frozen=True)
class IndexedModule:
    """One module's entry in the index: everything needed to answer
    candidate queries (and to serialize through the campaign journal —
    see :mod:`repro.match.builder`) without re-reading its examples.

    Attributes:
        module_id: The indexed module.
        shape: ``(len(inputs), len(outputs))`` blocking key.
        signature: The minhash sketch of its behavior tokens.
        tokens: The exact behavior-token set (for the deterministic
            exact-match tier).
        input_tokens: The input-only token set (for the deterministic
            shared-input tier that keeps disagreeing-but-overlapping
            pairs candidates).
    """

    module_id: str
    shape: "tuple[int, int]"
    signature: MinHashSignature
    tokens: "frozenset[int]"
    input_tokens: "frozenset[int]" = frozenset()


@dataclass
class IndexStats:
    """Size accounting of one index."""

    n_modules: int = 0
    n_empty: int = 0
    n_band_buckets: int = 0
    n_token_buckets: int = 0
    n_input_buckets: int = 0
    largest_band_bucket: int = 0
    largest_token_bucket: int = 0
    largest_input_bucket: int = 0

    def as_dict(self) -> dict:
        return {
            "n_modules": self.n_modules,
            "n_empty": self.n_empty,
            "n_band_buckets": self.n_band_buckets,
            "n_token_buckets": self.n_token_buckets,
            "n_input_buckets": self.n_input_buckets,
            "largest_band_bucket": self.largest_band_bucket,
            "largest_token_bucket": self.largest_token_bucket,
            "largest_input_bucket": self.largest_input_bucket,
        }


def _insert(pairs, module_id: str) -> None:
    """Add ``module_id`` to the bucket at each ``(table, key)``: a bucket
    holds its first member bare and becomes a set on the second."""
    for table, key in pairs:
        held = table.get(key)
        if held is None:
            table[key] = module_id
        elif type(held) is set:
            held.add(module_id)
        elif held != module_id:
            table[key] = {held, module_id}


def _discard(pairs, module_id: str) -> None:
    """Drop ``module_id`` from the bucket at each ``(table, key)``: a set
    left with one member holds it bare again, an emptied bucket goes."""
    for table, key in pairs:
        held = table.get(key)
        if type(held) is set:
            held.discard(module_id)
            if len(held) == 1:
                table[key] = held.pop()
        elif held == module_id:
            del table[key]


@dataclass
class SignatureIndex:
    """The inverted index over behavior signatures.

    Queries are deterministic: candidate lists are sorted, and the same
    sequence of :meth:`add` calls (any order) yields the same answers.

    Each index owns a :class:`~repro.match.signature.MinHashRows` memo,
    so a distinct behavior token is hashed and mixed once per index, and
    keeps every indexed entry's band keys, so they are packed once per
    entry.

    Buckets live in flat tables, one dict per shape and tier: one per
    LSH band (keyed by the band's rows), one for behavior tokens and one
    for input tokens (keyed by the token).  A bucket holds its only
    member as the bare module id and a set once a second one arrives, so
    the many one-member buckets of a build allocate no container.

    Attributes:
        config: The signature/banding shape; all entries must be
            sketched with the same config (``add`` recomputes or
            validates widths).
    """

    config: SignatureConfig = field(default_factory=SignatureConfig)
    _entries: "dict[str, IndexedModule]" = field(init=False, default_factory=dict)
    _band_keys: "dict[str, tuple[bytes, ...]]" = field(
        init=False, default_factory=dict
    )
    #: shape -> the band tables, then the token table, then the input table.
    _tables: "dict[tuple[int, int], list[dict]]" = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._rows = MinHashRows(self.config)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, module_id: str) -> bool:
        return module_id in self._entries

    # ------------------------------------------------------------------
    def sketch(
        self, module: Module, examples: "list[DataExample] | tuple[DataExample, ...]"
    ) -> IndexedModule:
        """``module``'s entry, sketched with this index's row memo but not
        indexed (the path of queries that are not in the index)."""
        inputs: "set[int]" = set()
        tokens = behavior_tokens(examples, input_sink=inputs)
        return IndexedModule(
            module_id=module.module_id,
            shape=(len(module.inputs), len(module.outputs)),
            signature=compute_signature(
                examples, self.config, tokens=tokens, rows=self._rows
            ),
            tokens=tokens,
            input_tokens=frozenset(inputs),
        )

    def add_module(
        self, module: Module, examples: "list[DataExample] | tuple[DataExample, ...]"
    ) -> IndexedModule:
        """Sketch ``module``'s examples and index the entry."""
        entry = self.sketch(module, examples)
        self.add(entry)
        return entry

    def add(self, entry: IndexedModule) -> None:
        """Index a pre-computed entry (the journaled-resume path).

        Re-adding a module id replaces its entry (buckets are rebuilt
        for it), so resumed builds are idempotent.
        """
        if len(entry.signature.values) != self.config.width:
            raise ValueError(
                f"entry {entry.module_id!r} has signature width "
                f"{len(entry.signature.values)}, index expects {self.config.width}"
            )
        if entry.module_id in self._entries:
            self.remove(entry.module_id)
        keys = band_keys(entry.signature, self.config)
        self._entries[entry.module_id] = entry
        self._band_keys[entry.module_id] = keys
        tables = self._tables.get(entry.shape)
        if tables is None:
            tables = [{} for _ in range(self.config.bands + 2)]
            self._tables[entry.shape] = tables
        _insert(self._pairs(tables, entry, keys), entry.module_id)

    def remove(self, module_id: str) -> None:
        """Drop a module from the index (no-op when absent)."""
        entry = self._entries.pop(module_id, None)
        if entry is None:
            return
        keys = self._band_keys.pop(module_id)
        _discard(self._pairs(self._tables[entry.shape], entry, keys), module_id)

    @staticmethod
    def _pairs(tables: "list[dict]", entry: IndexedModule, keys):
        """Every ``(table, key)`` bucket address of ``entry``."""
        *bands, token_table, input_table = tables
        return chain(
            zip(bands, keys),
            zip(repeat(token_table), entry.tokens),
            zip(repeat(input_table), entry.input_tokens),
        )

    def entry(self, module_id: str) -> "IndexedModule | None":
        return self._entries.get(module_id)

    def module_ids(self) -> "list[str]":
        return sorted(self._entries)

    # ------------------------------------------------------------------
    def candidates(self, module_id: str) -> "list[str]":
        """Module ids sharing a bucket with ``module_id`` (sorted;
        never includes the query itself).

        Raises:
            KeyError: ``module_id`` was never indexed.
        """
        entry = self._entries.get(module_id)
        if entry is None:
            raise KeyError(module_id)
        return sorted(self._candidate_set(entry))

    def candidates_for_entry(self, entry: IndexedModule) -> "list[str]":
        """Candidates for an entry that need not be in the index (the
        query-without-insert path used for decayed modules)."""
        return sorted(self._candidate_set(entry))

    def _candidate_set(self, entry: IndexedModule) -> "set[str]":
        found: "set[str]" = set()
        tables = self._tables.get(entry.shape)
        if tables is None:
            return found
        # Stored keys answer only for the indexed entry itself; another
        # entry under the same id (a re-sketch, a foreign record) packs
        # its own.
        if self._entries.get(entry.module_id) is entry:
            keys = self._band_keys[entry.module_id]
        else:
            keys = band_keys(entry.signature, self.config)
        # One plain loop per tier: a query runs inside each timed match,
        # and one loop over ``_pairs`` measured ~19% slower.
        add, update = found.add, found.update
        for table, key in zip(tables, keys):
            held = table.get(key)
            if held is not None:
                if type(held) is set:
                    update(held)
                else:
                    add(held)
        table = tables[-2]
        for token in entry.tokens:
            held = table.get(token)
            if held is not None:
                if type(held) is set:
                    update(held)
                else:
                    add(held)
        table = tables[-1]
        for token in entry.input_tokens:
            held = table.get(token)
            if held is not None:
                if type(held) is set:
                    update(held)
                else:
                    add(held)
        found.discard(entry.module_id)
        return found

    def _buckets(self, tier: slice):
        """Every bucket of the tier's tables, across shapes."""
        for tables in self._tables.values():
            for table in tables[tier]:
                yield from table.values()

    def candidate_pairs(self) -> "list[tuple[str, str]]":
        """Every unordered candidate pair in the index, deduplicated and
        sorted — the all-pairs work list the exact matcher verifies."""
        pairs: "set[tuple[str, str]]" = set()
        for bucket in self._buckets(slice(None)):
            if type(bucket) is not set:
                continue
            members = sorted(bucket)
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    pairs.add((left, right))
        return sorted(pairs)

    # ------------------------------------------------------------------
    def stats(self) -> IndexStats:
        bands = self.config.bands
        band_sizes = [_size(b) for b in self._buckets(slice(None, bands))]
        token_sizes = [_size(b) for b in self._buckets(slice(bands, bands + 1))]
        input_sizes = [_size(b) for b in self._buckets(slice(bands + 1, None))]
        return IndexStats(
            n_modules=len(self._entries),
            n_empty=sum(1 for e in self._entries.values() if e.signature.is_empty),
            n_band_buckets=len(band_sizes),
            n_token_buckets=len(token_sizes),
            n_input_buckets=len(input_sizes),
            largest_band_bucket=max(band_sizes, default=0),
            largest_token_bucket=max(token_sizes, default=0),
            largest_input_bucket=max(input_sizes, default=0),
        )


def _size(bucket) -> int:
    return len(bucket) if type(bucket) is set else 1
