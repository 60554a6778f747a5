"""Output-conformance validation: catch modules that lie.

The generation heuristic (§3.2) admits a data example whenever an
invocation "terminates normally" — but a decayed or buggy module can
terminate normally while violating its own declared interface: wrong
output arity or parameter names, values of the wrong structural type,
values outside the annotated semantic domain, or different answers to
identical questions.  Admitting such outputs silently poisons the
annotations (§5) and the Figure-8 behavior matches (§6) the examples
exist to support.

The conforming invoker validates every *successful* invocation against
the module's declared interface before the result is allowed to
propagate:

* **arity** — the output binding names must equal the declared output
  parameter names, no more and no fewer;
* **structure** — each output value's structural type must feed the
  declared ``str(o)`` of its parameter;
* **semantics** — each output value's concept must be subsumed by the
  declared ``sem(o)`` in the annotation ontology (untyped values are
  tolerated; unknown concepts are not).

A violation raises :class:`~repro.modules.errors.MalformedOutputError`
— deliberately *not* an unavailability (the provider answered; circuits
stay closed and nothing is retried) and not an invalid input (the
inputs were fine).  Callers quarantine the combination.

An opt-in **nondeterminism probe** re-invokes a seeded, content-keyed
sample of combinations and compares the canonical wire forms of both
answers; a mismatch raises
:class:`~repro.modules.errors.NondeterministicOutputError` and flags
the module unstable.  The probe decision hashes
``seed:module_id:wire-bindings`` rather than drawing from a sequential
RNG, so the same combination is probed (or not) regardless of call
order, retries, or resume — a requirement for byte-identical resumed
campaigns.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.modules.errors import MalformedOutputError, NondeterministicOutputError
from repro.modules.interfaces import bindings_to_wire
from repro.modules.model import Module, ModuleContext
from repro.values import TypedValue


@dataclass(frozen=True)
class ConformancePolicy:
    """The nondeterminism probe's knobs.  Arity, structure and semantics
    are checked on every successful invocation.

    Attributes:
        probe_rate: Fraction in [0, 1] of successful combinations to
            double-invoke for nondeterminism (0 disables the probe).
        probe_seed: Seed mixed into the content hash that selects which
            combinations are probed.
    """

    probe_rate: float = 0.0
    probe_seed: int = 2014

    def __post_init__(self) -> None:
        if not 0.0 <= self.probe_rate <= 1.0:
            raise ValueError("probe_rate must lie in [0, 1]")


@dataclass
class ConformanceStats:
    """Violation accounting of one conformance checker.

    Attributes:
        checked: Successful invocations validated.
        arity_violations: Invocations with wrong output names/arity.
        structure_violations: Invocations with a structurally
            incompatible output value.
        semantic_violations: Invocations with a value outside its
            annotated semantic domain.
        probes: Nondeterminism double-invocations performed.
        unstable: Probes whose two answers disagreed.
        unstable_modules: Module ids flagged unstable at least once.
    """

    checked: int = 0
    arity_violations: int = 0
    structure_violations: int = 0
    semantic_violations: int = 0
    probes: int = 0
    unstable: int = 0
    unstable_modules: set = field(default_factory=set)

    @property
    def violations(self) -> int:
        """Total interface violations (arity + structure + semantics)."""
        return (
            self.arity_violations
            + self.structure_violations
            + self.semantic_violations
        )


def _same_names(declared, outputs: dict) -> bool:
    """``{p.name for p in declared} == set(outputs)`` without building
    either set: declared names are unique, so equal sizes and every
    declared name present is equality."""
    if len(outputs) != len(declared):
        return False
    for parameter in declared:
        if parameter.name not in outputs:
            return False
    return True


class ConformingInvoker:
    """Wraps an invoker with a :class:`ConformancePolicy` output check."""

    def __init__(
        self,
        inner,
        policy: ConformancePolicy,
        on_violation: "Callable[[Module, MalformedOutputError], None] | None" = None,
    ) -> None:
        """Args:
            inner: The invoker whose outputs to validate.
            policy: How often to probe.
            on_violation: Called as ``(module, error)`` for every
                violation, probe mismatches included (telemetry hook).
        """
        self.inner = inner
        self.policy = policy
        self.stats = ConformanceStats()
        self._on_violation = on_violation
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def should_probe(self, module: Module, bindings: dict[str, TypedValue]) -> bool:
        """Whether this combination is in the nondeterminism sample.

        The decision is a pure function of (seed, module, canonical
        bindings) — stable across call order, retries and resume.
        """
        rate = self.policy.probe_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        token = f"{self.policy.probe_seed}:{module.module_id}:" + bindings_to_wire(
            bindings
        )
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < rate

    # ------------------------------------------------------------------
    def invoke(
        self, module: Module, ctx: ModuleContext, bindings: dict[str, TypedValue]
    ) -> dict[str, TypedValue]:
        """Invoke and validate the outputs.

        Raises:
            MalformedOutputError: The outputs violate the declared
                interface.
            NondeterministicOutputError: The probe's second answer
                differed from the first.
            ModuleInvocationError: Whatever the wrapped invoker raised.
        """
        outputs = self.inner.invoke(module, ctx, bindings)
        with self._lock:
            self.stats.checked += 1
        self._validate(module, ctx, outputs)
        if self.should_probe(module, bindings):
            with self._lock:
                self.stats.probes += 1
            second = self.inner.invoke(module, ctx, bindings)
            if bindings_to_wire(outputs) != bindings_to_wire(second):
                error = NondeterministicOutputError(
                    f"{module.module_id}: two invocations on identical inputs "
                    "returned different canonical outputs",
                    outputs=outputs,
                )
                with self._lock:
                    self.stats.unstable += 1
                    self.stats.unstable_modules.add(module.module_id)
                if self._on_violation is not None:
                    self._on_violation(module, error)
                raise error
        return outputs

    # ------------------------------------------------------------------
    def _validate(
        self, module: Module, ctx: ModuleContext, outputs: dict[str, TypedValue]
    ) -> None:
        if not _same_names(module.outputs, outputs):
            declared = {p.name for p in module.outputs}
            self._fail(
                module,
                "arity",
                MalformedOutputError(
                    f"{module.module_id}: output names {sorted(outputs)} != "
                    f"declared {sorted(declared)}",
                    outputs=outputs,
                ),
            )
        for parameter in module.outputs:
            value = outputs.get(parameter.name)
            if value is None:
                continue  # absence already booked as an arity violation
            if not value.feeds(parameter.structural):
                self._fail(
                    module,
                    "structure",
                    MalformedOutputError(
                        f"{module.module_id}: output {parameter.name!r} requires "
                        f"{parameter.structural}, got {value.structural}",
                        outputs=outputs,
                    ),
                )
            if value.concept is not None:
                ontology = ctx.ontology
                if value.concept not in ontology or not ontology.subsumes(
                    parameter.concept, value.concept
                ):
                    self._fail(
                        module,
                        "semantics",
                        MalformedOutputError(
                            f"{module.module_id}: output {parameter.name!r} "
                            f"carries concept {value.concept!r} outside its "
                            f"annotated domain {parameter.concept!r}",
                            outputs=outputs,
                        ),
                    )

    def _fail(self, module: Module, kind: str, error: MalformedOutputError) -> None:
        with self._lock:
            if kind == "arity":
                self.stats.arity_violations += 1
            elif kind == "structure":
                self.stats.structure_violations += 1
            else:
                self.stats.semantic_violations += 1
        if self._on_violation is not None:
            self._on_violation(module, error)
        raise error

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-compatible violation accounting."""
        with self._lock:
            return {
                "checked": self.stats.checked,
                "violations": self.stats.violations,
                "arity_violations": self.stats.arity_violations,
                "structure_violations": self.stats.structure_violations,
                "semantic_violations": self.stats.semantic_violations,
                "probes": self.stats.probes,
                "unstable": self.stats.unstable,
                "unstable_modules": sorted(self.stats.unstable_modules),
            }
