"""The data-example model (§2).

A data example δ = ⟨I, O⟩ records concrete input values fed to a module
and the output values the invocation produced.  We additionally remember,
for each input, which domain partition the value was drawn from — the
evaluation metrics (§4.2) and the matcher (§6) both need this alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.values import TypedValue


@dataclass(frozen=True)
class Binding:
    """One parameter-to-value binding inside a data example.

    Attributes:
        parameter: The parameter name.
        value: The bound value.
        partition: For inputs, the concept partition the value was chosen
            to cover; ``None`` for harvested examples and outputs.
    """

    parameter: str
    value: TypedValue
    partition: str | None = None


@dataclass(frozen=True)
class DataExample:
    """δ = ⟨I, O⟩ for one module.

    Attributes:
        module_id: The module the example describes.
        inputs: Input bindings (ordered like the module's inputs).
        outputs: Output bindings produced by the invocation.
    """

    module_id: str
    inputs: tuple[Binding, ...]
    outputs: tuple[Binding, ...]

    def input_partitions(self) -> tuple[str | None, ...]:
        """The partition each input value covers, in input order."""
        return tuple(binding.partition for binding in self.inputs)

    def same_inputs(self, other: "DataExample") -> bool:
        """True when both examples bind identical input payloads (used by
        the matcher, which generates candidate examples over the *same*
        input values, §6)."""
        mine = {b.parameter: b.value.payload for b in self.inputs}
        theirs = {b.parameter: b.value.payload for b in other.inputs}
        return mine == theirs

    def render(self, width: int = 48) -> str:
        """Human-readable one-example card (Figure 2 style)."""
        lines = [f"Data example for {self.module_id}"]
        for binding in self.inputs:
            lines.append(
                f"  in  {binding.parameter:<12} = {binding.value.render(width)}"
            )
        for binding in self.outputs:
            lines.append(
                f"  out {binding.parameter:<12} = {binding.value.render(width)}"
            )
        return "\n".join(lines)
