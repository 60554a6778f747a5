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
import sys
from array import array
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from repro.core.examples import DataExample
from repro.values.canonical import payload_json, sorted_payloads_json

_MASK64 = (1 << 64) - 1

#: Sentinel row value for a module with no examples: larger than any
#: real minhash row, so an empty signature never collides with a real
#: one (and two empty signatures estimate Jaccard 0.0, not 1.0 — there
#: is no observed behavior to agree on).
EMPTY_ROW = _MASK64

#: Bits per lane when a token's rows are packed into one Python int: a
#: row's 64 bits plus room for the product of a 64-bit multiply, so no
#: carry reaches the next lane.
_LANE_BITS = 128

_BIG_ENDIAN = sys.byteorder == "big"

#: splitmix64's constants.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _keyed(salt: bytes) -> "hashlib.blake2b":
    """A keyed 8-byte blake2b to ``.copy()`` per hash: the key block is
    compressed once here rather than once per hash."""
    return hashlib.blake2b(digest_size=8, key=salt[:64])


def _digest64(keyed: "hashlib.blake2b", data: bytes) -> int:
    """A stable 64-bit hash of ``data`` under a :func:`_keyed` prototype
    (cross-process deterministic)."""
    hasher = keyed.copy()
    hasher.update(data)
    return int.from_bytes(hasher.digest(), "big")


_BEHAVIOR_KEYED = _keyed(b"repro-behavior")
_INPUT_KEYED = _keyed(b"repro-inputs")


def _mix64(value: int) -> int:
    """splitmix64 finalizer: cheap, high-quality 64-bit mixing.

    Derives the per-row offsets; :meth:`MinHashRows.mix` applies the same
    steps to every row of a token at once.
    """
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return value ^ (value >> 31)


def _payloads(bindings) -> str:
    """The canonical JSON array of one example side's payloads — names,
    order and concepts erased."""
    if len(bindings) == 1:
        # Most sides bind one parameter: nothing to sort or join, the
        # same bytes as :func:`sorted_payloads_json` of a one-item list.
        return "[" + _quote(payload_json(bindings[0].value.payload)) + "]"
    return sorted_payloads_json(b.value.payload for b in bindings)


def _behavior_hash(inputs: str, outputs: str) -> int:
    document = f'{{"in": {inputs}, "out": {outputs}}}'
    return _digest64(_BEHAVIOR_KEYED, document.encode("utf-8"))


def _input_hash(inputs: str) -> int:
    return _digest64(_INPUT_KEYED, inputs.encode("utf-8"))


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
        seed: Salts each token's minhash base hash, so independent
            indexes with different seeds permute differently and make
            independent banding decisions.  Behavior and input tokens
            are not salted by it, and band keys are the band's rows.
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
    spread over ``config.width`` rows by the splitmix64 mixer.  They are
    kept packed in one Python int, row ``r`` in the low 64 bits of the
    128-bit lane at bit ``128 * r`` (about 1.1 KB per token at the default
    width), so the mixer and the element-wise minimum each run as a few
    big-integer operations over all rows at once.  A signature is the
    element-wise minimum over its tokens' rows, so a token shared by many
    modules is hashed and mixed once.  Each
    :class:`~repro.match.index.SignatureIndex` owns one and frees it with
    the index; nothing is shared between indexes or runs.
    """

    def __init__(self, config: SignatureConfig) -> None:
        self.config = config
        lanes = range(config.width)
        #: 1 in the low bit of every lane; ``value * _ones`` copies a
        #: 64-bit value into every lane.
        self._ones = sum(1 << (_LANE_BITS * lane) for lane in lanes)
        self._low = self._ones * _MASK64
        self._bit64 = self._ones << 64
        self._golden = self._ones * _GOLDEN
        self._offsets = sum(
            _mix64(lane + 1) << (_LANE_BITS * lane) for lane in lanes
        )
        self._keyed = _keyed(f"repro-minhash-{config.seed}".encode())
        self._lanes: "dict[int, int]" = {}

    def mix(self, base: int) -> int:
        """The packed rows of one 64-bit base hash: row ``r`` is
        ``_mix64(base ^ _mix64(r + 1))``.

        Each splitmix64 step runs lane-wise.  Every lane is cut back to 64
        bits after each add and multiply and before each shift, so a
        carry, a product's high half or the bits a shift pulls down from
        the next lane never reach a row.
        """
        low = self._low
        value = ((base * self._ones ^ self._offsets) + self._golden) & low
        value = ((value ^ (value >> 30)) & low) * _MIX1 & low
        value = ((value ^ (value >> 27)) & low) * _MIX2 & low
        return (value ^ (value >> 31)) & low

    def lanes(self, token: int) -> int:
        """``token``'s packed rows (memoized)."""
        lanes = self._lanes.get(token)
        if lanes is None:
            lanes = self.mix(_digest64(self._keyed, token.to_bytes(8, "big")))
            self._lanes[token] = lanes
        return lanes

    def minimum(self, left: int, right: int) -> int:
        """The lane-wise minimum of two packed row sets.

        Lane by lane, ``(left | 2**64) - right`` keeps bit 64 exactly when
        ``left >= right`` and never borrows from the next lane; that bit
        selects ``right``'s row.
        """
        right_wins = (((left | self._bit64) - right) >> 64) & self._ones
        return left ^ ((left ^ right) & (right_wins * _MASK64))

    def unpack(self, lanes: int) -> "tuple[int, ...]":
        """The row values of a packed row set, in row order."""
        words = array("Q", lanes.to_bytes(16 * self.config.width, "little"))
        if _BIG_ENDIAN:
            words.byteswap()
        return tuple(words[::2])

    def signature_values(self, tokens: "frozenset[int]") -> "tuple[int, ...]":
        """The element-wise minimum of the (non-empty) tokens' rows."""
        lanes, minimum = self.lanes, self.minimum
        tokens = iter(tokens)
        low = lanes(next(tokens))
        for token in tokens:
            low = minimum(low, lanes(token))
        return self.unpack(low)


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
    the splitmix64 mixer over all rows at once (:meth:`MinHashRows.mix`),
    so cost is O(tokens) hashes and big-integer operations rather than
    O(tokens·width) cryptographic hashes.

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
    return MinHashSignature(
        values=rows.signature_values(tokens), n_tokens=len(tokens)
    )


def band_keys(
    signature: MinHashSignature, config: SignatureConfig
) -> "tuple[bytes, ...]":
    """The LSH bucket key of each band: the band's rows, packed big-endian
    (``8 * config.rows_per_band`` bytes).

    Equal rows give equal keys and unequal rows never share one.  Keys
    of different bands may be equal; the index keeps one bucket table
    per band, so they never meet.  Empty signatures get no keys at all —
    a module without examples must never bucket with anything.
    """
    if signature.is_empty:
        return ()
    packed = struct.pack(f">{len(signature.values)}Q", *signature.values)
    step = 8 * config.rows_per_band
    return tuple(
        packed[start : start + step] for start in range(0, len(packed), step)
    )
