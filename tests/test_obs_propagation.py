"""Tests of cross-process trace propagation: W3C traceparent parsing,
trace-id normalization (the cardinality bound), extraction precedence
over HTTP headers, the deterministic campaign trace id, and the ambient
propagation scope stamping spans."""

from __future__ import annotations

import pytest

from repro.obs.propagation import (
    TRACE_ID_MAX_LEN,
    TraceContext,
    TraceIdGenerator,
    campaign_trace_id,
    extract_trace_context,
    normalize_trace_id,
    parse_traceparent,
    propagation_scope,
)
from repro.obs.tracing import Tracer


# ----------------------------------------------------------------------
# normalize_trace_id — the cardinality bound
# ----------------------------------------------------------------------
class TestNormalizeTraceId:
    def test_lowercases_and_keeps_hex(self):
        assert normalize_trace_id("DEADbeef42") == "deadbeef42"

    def test_strips_non_hex_characters(self):
        assert normalize_trace_id("abc-123_ghz!") == "abc123"

    def test_truncates_to_the_bound(self):
        oversized = "a" * 500
        normalized = normalize_trace_id(oversized)
        assert len(normalized) == TRACE_ID_MAX_LEN

    def test_no_hex_at_all_is_unusable(self):
        assert normalize_trace_id("zzz-???") == ""
        assert normalize_trace_id("") == ""
        assert normalize_trace_id(None) == ""

    def test_whitespace_is_stripped(self):
        assert normalize_trace_id("  abc123  ") == "abc123"


# ----------------------------------------------------------------------
# TraceIdGenerator
# ----------------------------------------------------------------------
class TestTraceIdGenerator:
    def test_trace_ids_are_32_hex_and_unique(self):
        generator = TraceIdGenerator()
        ids = {generator.trace_id() for _ in range(100)}
        assert len(ids) == 100
        for trace in ids:
            assert len(trace) == 32
            assert trace == normalize_trace_id(trace)

    def test_span_ids_are_16_hex(self):
        generator = TraceIdGenerator()
        span = generator.span_id()
        assert len(span) == 16
        assert span == normalize_trace_id(span)


# ----------------------------------------------------------------------
# traceparent wire form
# ----------------------------------------------------------------------
class TestTraceparent:
    def test_roundtrip(self):
        context = TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8)
        parsed = parse_traceparent(f"00-{'ab' * 16}-{'cd' * 8}-01")
        assert parsed == context

    def test_unsampled_flag_roundtrips(self):
        parsed = parse_traceparent(f"00-{'ab' * 16}-{'cd' * 8}-00")
        assert parsed == TraceContext(
            trace_id="ab" * 16, parent_span_id="cd" * 8, sampled=False
        )

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "garbage",
            "00-short-cdcdcdcdcdcdcdcd-01",
            "00-" + "ab" * 16 + "-short-01",
            "00-" + "0" * 32 + "-cdcdcdcdcdcdcdcd-01",  # all-zero trace
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero parent
            "ff-" + "ab" * 16 + "-cdcdcdcdcdcdcdcd-01",  # forbidden version
            "00-" + "gg" * 16 + "-cdcdcdcdcdcdcdcd-01",  # non-hex trace
            "00-" + "ab" * 16 + "-cdcdcdcdcdcdcdcd-xx",  # non-hex flags
        ],
    )
    def test_malformed_values_are_rejected(self, value):
        assert parse_traceparent(value) is None

    def test_future_version_with_same_layout_is_tolerated(self):
        parsed = parse_traceparent(
            "01-" + "ab" * 16 + "-cdcdcdcdcdcdcdcd-01-extrafield"
        )
        assert parsed is not None
        assert parsed.trace_id == "ab" * 16


# ----------------------------------------------------------------------
# TraceContext dict form (the spawn boundary)
# ----------------------------------------------------------------------
class TestTraceContextDict:
    def test_roundtrip(self):
        context = TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8)
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_missing_dict_passes_through(self):
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({}) is None

    def test_from_dict_normalizes_hostile_ids(self):
        rebuilt = TraceContext.from_dict(
            {"trace_id": "ABC-!!", "parent_span_id": "zz"}
        )
        assert rebuilt.trace_id == "abc"
        assert rebuilt.parent_span_id == ""

    def test_child_keeps_the_trace(self):
        context = TraceContext(trace_id="ab" * 16)
        child = context.child("EF" * 8)
        assert child.trace_id == context.trace_id
        assert child.parent_span_id == "ef" * 8


# ----------------------------------------------------------------------
# Extraction precedence
# ----------------------------------------------------------------------
class TestExtractTraceContext:
    def test_valid_traceparent_wins(self):
        headers = {
            "traceparent": "00-" + "ab" * 16 + "-cdcdcdcdcdcdcdcd-01",
            "X-Trace-Id": "1234",
        }
        context, propagated = extract_trace_context(headers)
        assert propagated is True
        assert context.trace_id == "ab" * 16
        assert context.parent_span_id == "cd" * 8

    def test_x_trace_id_is_the_fallback(self):
        context, propagated = extract_trace_context({"X-Trace-Id": "ABC123"})
        assert propagated is True
        assert context == TraceContext(trace_id="abc123")

    def test_malformed_traceparent_falls_back_to_x_trace_id(self):
        headers = {"traceparent": "garbage", "X-Trace-Id": "beef"}
        context, propagated = extract_trace_context(headers)
        assert propagated is True
        assert context.trace_id == "beef"

    def test_unusable_client_id_gets_a_generated_one(self):
        context, propagated = extract_trace_context({"X-Trace-Id": "???"})
        assert propagated is False
        assert len(context.trace_id) == 32

    def test_no_headers_generates(self):
        generator = TraceIdGenerator()
        context, propagated = extract_trace_context({}, generator)
        assert propagated is False
        assert len(context.trace_id) == 32

    def test_oversized_client_id_is_truncated_not_rejected(self):
        context, propagated = extract_trace_context(
            {"X-Trace-Id": "a" * 1000}
        )
        assert propagated is True
        assert len(context.trace_id) == TRACE_ID_MAX_LEN


# ----------------------------------------------------------------------
# Campaign trace ids
# ----------------------------------------------------------------------
class TestCampaignTraceId:
    def test_deterministic_across_processes(self):
        # Derived, not minted: run and resume stamp the same id.
        assert campaign_trace_id("nightly") == campaign_trace_id("nightly")

    def test_distinct_campaigns_get_distinct_traces(self):
        assert campaign_trace_id("a") != campaign_trace_id("b")

    def test_shape_is_a_normalized_32_hex_id(self):
        trace = campaign_trace_id("nightly")
        assert len(trace) == 32
        assert trace == normalize_trace_id(trace)


# ----------------------------------------------------------------------
# The ambient scope
# ----------------------------------------------------------------------
class TestPropagationScope:
    def _root_span(self):
        tracer = Tracer()
        token = tracer.open_root({})
        tracer.close_root("m", token, "ok")
        return tracer.traces()[-1]

    def test_spans_carry_the_propagated_identity(self):
        context = TraceContext(trace_id="ab" * 16, parent_span_id="cd" * 8)
        with propagation_scope(context, "shard-worker", process_id=3, worker=7):
            span = self._root_span()
        assert span.attributes["trace_id"] == "ab" * 16
        assert span.attributes["process_role"] == "shard-worker"
        assert span.attributes["process_id"] == 3
        assert span.attributes["worker"] == 7
        assert span.attributes["parent_span_id"] == "cd" * 8

    def test_none_context_is_a_no_op(self):
        with propagation_scope(None, "replica"):
            span = self._root_span()
        assert "trace_id" not in span.attributes

    def test_scope_is_bounded(self):
        context = TraceContext(trace_id="ab" * 16)
        with propagation_scope(context, "replica"):
            pass
        span = self._root_span()
        assert "trace_id" not in span.attributes
