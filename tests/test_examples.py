"""Tests for the data-example model."""

import pytest

from repro.core.examples import Binding, DataExample
from repro.values import STRING, TypedValue


@pytest.fixture()
def example():
    return DataExample(
        module_id="t.m",
        inputs=(
            Binding("id", TypedValue("P10000", STRING, "UniProtAccession"),
                    partition="UniProtAccession"),
        ),
        outputs=(Binding("record", TypedValue("REC", STRING, "ProteinSequenceRecord")),),
    )


class TestDataExample:
    def test_input_partitions(self, example):
        assert example.input_partitions() == ("UniProtAccession",)

    def test_same_inputs_ignores_outputs_and_partitions(self, example):
        other = DataExample(
            module_id="t.other",
            inputs=(Binding("id", TypedValue("P10000", STRING)),),
            outputs=(),
        )
        assert example.same_inputs(other)

    def test_same_inputs_detects_differences(self, example):
        other = DataExample(
            module_id="t.m",
            inputs=(Binding("id", TypedValue("P10001", STRING)),),
            outputs=(),
        )
        assert not example.same_inputs(other)

    def test_render_shows_both_sides(self, example):
        card = example.render()
        assert "in  id" in card
        assert "out record" in card
        assert "P10000" in card

    def test_examples_are_frozen(self, example):
        with pytest.raises(AttributeError):
            example.module_id = "x"
