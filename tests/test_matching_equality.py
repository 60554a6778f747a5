"""Characterization of the equality §6 ``compare_behavior`` agrees by.

An example agrees when every mapped candidate output is present and its
payload is ``==`` the unavailable module's recorded payload: Python's
raw equality, not the canonical encoder's.  So ``1``, ``1.0`` and
``True`` agree with each other, ``0.0`` agrees with ``-0.0``, a NaN
agrees with nothing (a NaN inside a tuple agrees only with the very
same object, by the tuple comparison's identity shortcut), and a tuple
never agrees with a list.  These pins make any change to that equality
a deliberate one.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.core.examples import Binding, DataExample
from repro.core.matching import MatchKind, ParameterMapping, compare_behavior
from repro.values import FLOAT, STRING, TypedValue

NAN = math.nan

# (expected payload, candidate's payload, agrees?)
CASES = [
    (1, 1, True),
    (1, 1.0, True),
    (1.0, 1, True),
    (1, True, True),
    (True, 1, True),
    (1.0, True, True),
    (0, False, True),
    (0.0, -0.0, True),
    (-0.0, 0.0, True),
    (NAN, NAN, False),
    (NAN, math.nan * 0, False),
    ((NAN,), (NAN,), True),
    ((NAN,), (float("nan"),), False),
    ((1, 2), [1, 2], False),
    ([1, 2], (1, 2), False),
    ((1, 2), (1, 2), True),
    ((1, (2, 3)), (1.0, (2, 3.0)), True),
    ([1, 2], [1, 2], True),
    ("1", 1, False),
    ("x", "x", True),
    (None, None, True),
    (None, 0, False),
    (math.inf, math.inf, True),
    (math.inf, -math.inf, False),
    (2**64, float(2**64), True),
    (2**64 + 1, float(2**64 + 1), False),
]

UNAVAILABLE = SimpleNamespace(module_id="old")
CANDIDATE = SimpleNamespace(module_id="new")
EXACT = ParameterMapping(inputs={"i": "x"}, outputs={"o": "y"}, relaxed=False)


def example(*outputs, name="o"):
    return DataExample(
        module_id="old",
        inputs=(Binding("i", TypedValue("in", STRING, "Protein"), "Protein"),),
        outputs=tuple(
            Binding(f"{name}{n}" if n else name, TypedValue(p, FLOAT))
            for n, p in enumerate(outputs)
        ),
    )


class Answering:
    """An invoker whose candidate answers ``answer(bindings)``."""

    def __init__(self, answer):
        self.answer = answer

    def invoke(self, module, ctx, bindings):
        return self.answer(bindings)


def compare(examples, answer, mapping=EXACT):
    return compare_behavior(
        None, UNAVAILABLE, examples, CANDIDATE, mapping,
        invoker=Answering(answer),
    )


@pytest.mark.parametrize(
    "expected, got, agrees", CASES, ids=[f"{e!r}-vs-{g!r}" for e, g, _ in CASES]
)
def test_one_output_agreement(expected, got, agrees):
    report = compare(
        [example(expected)], lambda bindings: {"y": TypedValue(got, FLOAT)}
    )
    assert report.n_agreeing == int(agrees)
    assert report.kind is (MatchKind.EQUIVALENT if agrees else MatchKind.DISJOINT)
    assert report.agreement_domain == ({"i": {"Protein"}} if agrees else {})


def test_the_identical_nan_object_inside_a_tuple_agrees():
    shared = (NAN, 1)
    report = compare([example(shared)], lambda b: {"y": TypedValue(shared, FLOAT)})
    assert report.n_agreeing == 1
    alone = compare([example(NAN)], lambda b: {"y": TypedValue(NAN, FLOAT)})
    assert alone.n_agreeing == 0


def test_every_output_must_agree_and_be_present():
    mapping = ParameterMapping(
        inputs={"i": "x"}, outputs={"o": "y", "o1": "y1"}, relaxed=False
    )
    both = example(1, (2, 3))
    answers = {
        "all agree": ({"y": TypedValue(1.0, FLOAT), "y1": TypedValue((2, 3), FLOAT)}, 1),
        "one differs": ({"y": TypedValue(1, FLOAT), "y1": TypedValue([2, 3], FLOAT)}, 0),
        "one missing": ({"y": TypedValue(1, FLOAT)}, 0),
        "extra output": (
            {"y": TypedValue(True, FLOAT), "y1": TypedValue((2, 3), FLOAT),
             "z": TypedValue(9, FLOAT)},
            1,
        ),
    }
    for label, (outputs, agreeing) in answers.items():
        report = compare([both], lambda b, outputs=outputs: outputs, mapping)
        assert report.n_agreeing == agreeing, label


def test_candidate_sees_mapped_input_names_and_failures_disagree():
    from repro.modules.errors import InvalidInputError

    seen = []

    def answer(bindings):
        seen.append(sorted(bindings))
        if bindings["x"].payload == "in":
            raise InvalidInputError("rejected")
        return {"y": TypedValue(1, FLOAT)}

    report = compare([example(1), example(1)], answer)
    assert seen == [["x"], ["x"]]
    assert report.n_agreeing == 0 and report.kind is MatchKind.DISJOINT
    assert report.n_examples == 2


def test_relaxed_full_agreement_is_overlapping_and_partial_too():
    relaxed = ParameterMapping(inputs={"i": "x"}, outputs={"o": "y"}, relaxed=True)
    report = compare([example(1)], lambda b: {"y": TypedValue(1, FLOAT)}, relaxed)
    assert report.kind is MatchKind.OVERLAPPING
    report = compare(
        [example(1), example(2)], lambda b: {"y": TypedValue(1, FLOAT)}
    )
    assert (report.n_agreeing, report.kind) == (1, MatchKind.OVERLAPPING)


def test_no_examples_no_report():
    assert compare([], lambda b: {}) is None
