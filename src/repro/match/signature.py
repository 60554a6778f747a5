"""Behavior signatures: minhash sketches over a module's data examples.

The §6 matcher classifies a pair of modules by *running* one on the
other's example inputs — exact, but O(n²) invocations over a catalog.
This module computes a cheap, invocation-free summary of each module's
observed behavior so an index (:mod:`repro.match.index`) can prune the
pair space before any module is invoked:

1. Each data example is collapsed to one **behavior token** — a stable
   64-bit hash of its canonical input payloads and output payloads,
   with parameter *names* and *concepts* deliberately erased
   (:func:`behavior_tokens`).  Two modules that compute the same
   function over the same inputs produce identical tokens even when
   their parameters are renamed or annotated with subsuming concepts —
   exactly the pairs §6 matching must not miss.
2. The token set is sketched into a fixed-width **minhash signature**
   (:func:`compute_signature`): per row, the minimum of a seeded
   permutation of the token hashes.  The fraction of equal rows between
   two signatures is an unbiased estimate of the Jaccard similarity of
   the underlying token sets.

All hashing is ``blake2b``-based and therefore stable across processes
and Python versions — Python's builtin ``hash()`` is salted per process
(``PYTHONHASHSEED``) and would silently break journaled index resume.

Payloads are encoded by :mod:`repro.values.canonical`, the encoding the
invocation cache keys by (sorted keys, NaN replaced by a self-equal
token), so any two values the cache would key identically also tokenize
identically.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from dataclasses import dataclass

from repro.core.examples import DataExample
from repro.values.canonical import sorted_payloads_json

_MASK64 = (1 << 64) - 1

#: Sentinel row value for a module with no examples: larger than any
#: real minhash row, so an empty signature never collides with a real
#: one (and two empty signatures estimate Jaccard 0.0, not 1.0 — there
#: is no observed behavior to agree on).
EMPTY_ROW = _MASK64


def _blake64(data: bytes, *, salt: bytes = b"") -> int:
    """A stable 64-bit hash (keyed blake2b, cross-process deterministic)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=salt[:64]).digest(), "big"
    )


def _mix64(value: int) -> int:
    """splitmix64 finalizer: cheap, high-quality 64-bit mixing.

    Used to derive the per-row permutations of one token hash without
    paying a blake2b call per (token, row) pair — the blake2b base hash
    supplies the entropy, the mixer just decorrelates the rows.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _payloads(bindings) -> str:
    """The canonical JSON array of one example side's payloads — names,
    order and concepts erased."""
    return sorted_payloads_json(b.value.payload for b in bindings)


def _behavior_hash(inputs: str, outputs: str) -> int:
    document = f'{{"in": {inputs}, "out": {outputs}}}'
    return _blake64(document.encode("utf-8"), salt=b"repro-behavior")


def _input_hash(inputs: str) -> int:
    return _blake64(inputs.encode("utf-8"), salt=b"repro-inputs")


def behavior_token(example: DataExample) -> int:
    """The 64-bit behavior token of one data example.

    The token hashes the example's canonical input payloads and output
    payloads as two *sorted lists of values* — parameter names, binding
    order, concepts and partitions are all erased.  Renamed-parameter
    twins (the §6 exact-mapping case) and subsumption-annotated variants
    (the relaxed Figure 7 case) therefore produce identical tokens for
    identical behavior.
    """
    return _behavior_hash(_payloads(example.inputs), _payloads(example.outputs))


def behavior_tokens(
    examples: "list[DataExample] | tuple[DataExample, ...]",
    *,
    input_sink: "set[int] | None" = None,
) -> "frozenset[int]":
    """The behavior token *set* of a module's examples (duplicates — the
    same observed behavior exercised twice — collapse, as Jaccard
    similarity is a set measure).

    When ``input_sink`` is given, each example's :func:`input_token` is
    added to it from the same canonicalization pass, so an index sketch
    dumps every payload once rather than once per token kind.
    """
    tokens = set()
    for example in examples:
        inputs = _payloads(example.inputs)
        tokens.add(_behavior_hash(inputs, _payloads(example.outputs)))
        if input_sink is not None:
            input_sink.add(_input_hash(inputs))
    return frozenset(tokens)


def input_token(example: DataExample) -> int:
    """The 64-bit *input* token of one data example: the behavior token
    with the outputs erased too.

    Two modules exercised on the same input values share an input token
    even when their outputs disagree there — which is exactly the §6
    OVERLAPPING situation.  The index keeps a deterministic tier over
    these tokens so genuinely overlapping pairs whose *agreeing*
    examples happen not to coincide are still candidates (the
    output-inclusive token tier only fires on shared agreement)."""
    return _input_hash(_payloads(example.inputs))


def input_tokens(examples: "list[DataExample] | tuple[DataExample, ...]") -> "frozenset[int]":
    """The input-token set of a module's examples."""
    return frozenset(input_token(example) for example in examples)


@dataclass(frozen=True)
class SignatureConfig:
    """Shape of the minhash sketch and its LSH banding.

    Attributes:
        width: Signature rows (the sketch resolution; more rows = a
            tighter Jaccard estimate and more LSH bands to spend).
        bands: LSH bands the index slices the signature into; must
            divide ``width``.  ``rows = width // bands`` per band.  The
            classic S-curve: a pair with Jaccard ``s`` lands in at least
            one common band with probability ``1 - (1 - s^rows)^bands``
            — more bands (fewer rows each) catches weaker overlaps at
            the cost of more false candidates.
        seed: Salts every hash, so independent indexes with different
            seeds make independent banding decisions.
    """

    width: int = 64
    bands: int = 16
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"signature width must be positive, got {self.width}")
        if self.bands <= 0:
            raise ValueError(f"band count must be positive, got {self.bands}")
        if self.width % self.bands:
            raise ValueError(
                f"bands must divide width ({self.bands} does not divide {self.width})"
            )

    @property
    def rows_per_band(self) -> int:
        return self.width // self.bands


@dataclass(frozen=True)
class MinHashSignature:
    """A fixed-width minhash sketch of one module's behavior-token set.

    Attributes:
        values: The ``width`` row minima.  All :data:`EMPTY_ROW` when
            the module had no examples.
        n_tokens: Distinct behavior tokens sketched (0 for no examples —
            the index keeps such modules out of LSH buckets entirely).
    """

    values: tuple[int, ...]
    n_tokens: int

    @property
    def is_empty(self) -> bool:
        return self.n_tokens == 0

    def estimate_jaccard(self, other: "MinHashSignature") -> float:
        """The fraction of agreeing rows — an unbiased estimate of the
        Jaccard similarity of the two token sets (0.0 when either
        signature is empty: no observed behavior, no similarity)."""
        if len(self.values) != len(other.values):
            raise ValueError(
                f"signature widths differ ({len(self.values)} vs {len(other.values)})"
            )
        if self.is_empty or other.is_empty:
            return 0.0
        agree = sum(1 for a, b in zip(self.values, other.values) if a == b)
        return agree / len(self.values)


class MinHashRows:
    """The permuted minhash rows of each distinct behavior token, for one
    :class:`SignatureConfig`, computed on a token's first use.

    A token's rows are one blake2b base hash (salted by ``config.seed``)
    spread over ``config.width`` rows by the splitmix64 mixer, stored as
    an ``array('Q')`` (about 0.6 KB per token at the default width).  A
    signature is the element-wise minimum over its tokens' rows, so a
    token shared by many modules is hashed and mixed once.  Each
    :class:`~repro.match.index.SignatureIndex` owns one and frees it with
    the index; nothing is shared between indexes or runs.
    """

    def __init__(self, config: SignatureConfig) -> None:
        self.config = config
        self._salt = f"repro-minhash-{config.seed}".encode()
        self._offsets = [_mix64(row + 1) for row in range(config.width)]
        self._rows: "dict[int, array[int]]" = {}

    def rows(self, token: int) -> "array[int]":
        rows = self._rows.get(token)
        if rows is None:
            base = _blake64(token.to_bytes(8, "big"), salt=self._salt)
            rows = array("Q", [_mix64(base ^ offset) for offset in self._offsets])
            self._rows[token] = rows
        return rows


def compute_signature(
    examples: "list[DataExample] | tuple[DataExample, ...]",
    config: SignatureConfig = SignatureConfig(),
    *,
    tokens: "frozenset[int] | None" = None,
    rows: "MinHashRows | None" = None,
) -> MinHashSignature:
    """Sketch a module's examples into a minhash signature.

    Each distinct behavior token is hashed once (blake2b, salted by
    ``config.seed``); the per-row permuted values are then derived with
    the splitmix64 mixer, so cost is O(tokens + tokens·width integer
    mixes) rather than O(tokens·width) cryptographic hashes.

    Args:
        tokens: The examples' behavior tokens when the caller already
            has them (they are not recomputed).
        rows: A row memo for ``config`` to read and fill; tokens it has
            seen cost only the element-wise minimum.  A throwaway memo
            is used when omitted.
    """
    if tokens is None:
        tokens = behavior_tokens(examples)
    if not tokens:
        return MinHashSignature(values=(EMPTY_ROW,) * config.width, n_tokens=0)
    if rows is None:
        rows = MinHashRows(config)
    elif rows.config != config:
        raise ValueError(f"row memo is for {rows.config}, not {config}")
    values = tuple(map(min, zip(*map(rows.rows, tokens))))
    return MinHashSignature(values=values, n_tokens=len(tokens))


def band_keys(
    signature: MinHashSignature, config: SignatureConfig
) -> "tuple[int, ...]":
    """The LSH bucket key of each band: a stable hash of the band's rows.

    Empty signatures get no keys at all — a module without examples
    must never bucket with anything.
    """
    if signature.is_empty:
        return ()
    packed = struct.pack(f">{len(signature.values)}Q", *signature.values)
    step = 8 * config.rows_per_band
    return tuple(
        _blake64(
            packed[band * step : (band + 1) * step],
            salt=f"repro-band-{band}".encode(),
        )
        for band in range(config.bands)
    )
