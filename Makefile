# Convenience targets for the reproduction.
#
# `make install` prefers the standard editable install and falls back to
# the legacy path on offline environments that lack the `wheel` package.

PYTHON ?= python

.PHONY: install test test-faults test-hangs slo-smoke serve-smoke serve-chaos chaos-smoke bench bench-engine bench-serve bench-campaign bench-match bench-obs match-smoke perfbench-smoke serve report engine-stats campaign examples docs-check all clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The tier-1 suite under seeded transient-failure weather (the CI
# fault-matrix job): every deterministic report must survive unchanged.
test-faults:
	REPRO_FAULT_RATE=0.05 REPRO_FAULT_SEED=2014 $(PYTHON) -m pytest tests/ -x -q

# The tier-1 suite with every call stalled and the watchdog armed well
# above the stall (the CI hang-matrix job): every invocation crosses the
# watchdog's worker thread, nothing times out, nothing changes.
test-hangs:
	REPRO_FAULT_RATE=0.05 REPRO_FAULT_SEED=2014 \
	REPRO_STALL_MS=0.5 REPRO_WATCHDOG_BUDGET=10 \
		$(PYTHON) -m pytest tests/ -x -q

# Longitudinal acceptance smoke (the CI slo-smoke job): the sampler,
# SLO, drift and dashboard suites; a faulted campaign with --trace and
# --sample armed fires availability and drift alerts, gets SIGKILLed
# mid-run, resumes byte-identical, and the snapshot timeline + alert
# history reconstruct from the journal alone; two fleet replicas share
# one timeline and every reader folds it per slot and run.
slo-smoke:
	$(PYTHON) -m pytest -x -q tests/test_obs_timeseries.py \
		tests/test_obs_slo.py tests/test_obs_drift.py \
		tests/test_obs_dashboard.py tests/test_obs_longitudinal.py \
		tests/test_obs_sampler_slots.py

# Plain invocation (no --benchmark-only): works with or without the
# optional pytest-benchmark plugin — benchmarks/conftest.py provides a
# single-shot `benchmark` fixture when the plugin is missing.
bench:
	$(PYTHON) -m pytest benchmarks/ -q

bench-engine:
	$(PYTHON) -m pytest benchmarks/test_bench_engine.py -q -s

# Serving-layer benchmark: 1000-client capacity phase (zero 5xx) and a
# deliberate saturation phase (429 + Retry-After, bounded queue).
# Writes the measured latency/throughput/shed numbers to BENCH_serve.json.
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py

# Sharded-campaign benchmark: the same whole-catalog campaign serial vs
# --workers 4 under injected provider latency.  Accepts only if the
# sharded report is byte-identical to the serial one and faster.
# Writes the wall-clock + per-shard breakdown to BENCH_campaign.json.
bench-campaign:
	$(PYTHON) benchmarks/bench_campaign.py

# Repository-scale matching benchmark: exhaustive vs index-pruned §6
# matching on the paper catalog (digests must be byte-identical) and a
# 5000-module synthetic all-pairs run (>=10x fewer invocations than the
# analytic exhaustive estimate).  Writes BENCH_match.json.  Override the
# synthetic size with BENCH_MATCH_SYNTH=N (the CI smoke uses 600).
bench-match:
	$(PYTHON) benchmarks/bench_match.py

# Observability-plane benchmark: tracing / 50 Hz-profiler overhead on
# the whole-catalog generation workload (both gated <5%, reports
# byte-identical) and 4-replica fleet span assembly timed from the
# journal files alone.  Writes BENCH_obs.json.
bench-obs:
	$(PYTHON) benchmarks/bench_obs.py

# Matching acceptance smoke (the CI match-smoke job): the match/ unit
# and property tests, the canonical and wire encoders' byte-identity
# tests (tokens and keys are hashed from their bytes), and the tests of
# each layer a verify invocation crosses: the engine accounting's and
# the cache's equivalence with their oracles, structural type lookup in
# the wire decoder, compare_behavior's pinned equality, and the wire
# layer's fast paths (the one-pass SOAP envelope scan, the direct JSON
# scan, the compiled accession guards) against the formulas they
# replaced; then §6 repair, which reads what flows along a link off the
# producer's data examples, and the guard that core/, match/ and
# workflow/ read no ground-truth module field; then enactment, which
# repair validates by: its provenance, the differential that traces
# through a caching engine equal traces through the bare round trip,
# and the guard that nothing under src/repro/ but the engine's
# DirectInvoker calls invoke_via_interface.
# The CI job then runs a downsized benchmark writing to a temp file
# (the committed BENCH_match.json stays untouched).
match-smoke:
	$(PYTHON) -m pytest -x -q tests/test_match_signature.py \
		tests/test_match_index.py tests/test_match_synth.py \
		tests/test_match_builder.py tests/test_match_repair.py \
		tests/test_match_cli.py tests/test_match_exactness.py \
		tests/test_match_sketch.py tests/test_values_canonical.py \
		tests/test_wire_encoding.py tests/test_engine_telemetry.py \
		tests/test_engine_cache_model.py tests/test_structural_lookup.py \
		tests/test_matching_equality.py tests/test_wire_fastpaths.py \
		tests/test_repair.py tests/test_ground_truth_guard.py \
		tests/test_enactment_provenance.py \
		tests/test_enactment_differential.py tests/test_invocation_guard.py

# Benchmark smoke (the CI match-smoke job): every perfbench workload for
# one second untraced, then synth-match once traced, so a wrong output
# or a renamed function the traced run wraps fails here rather than in
# a full benchmark run.  The last stdout line of each run must report
# correct outputs and no failed operation.
PERFBENCH_RUNS = catalog-generate:0 catalog-campaign:0 synth-match:0 synth-match:1

perfbench-smoke:
	@for run in $(PERFBENCH_RUNS); do \
		workload=$${run%:*}; trace=$${run#*:}; \
		echo "perfbench-smoke: $$workload --trace $$trace"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 7 \
			--seconds 1 --trace $$trace | tail -n 1 | $(PYTHON) -c \
			'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else "perfbench-smoke: " + json.dumps(r))' \
			|| exit 1; \
	done

# Serving acceptance smoke (the CI serve-smoke job): start a real
# `repro-cli serve` process, fire a concurrent loadgen burst, scrape
# /metrics, and assert the repro_http_* series and SLO gauges are there.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

# Fleet chaos acceptance (the CI serve-chaos job): a 4-replica
# SO_REUSEPORT fleet under the 1000-client loadgen with two replicas
# SIGKILLed mid-load (zero 5xx, bounded stranded-work errors,
# reconvergence, graceful drain), then an armed --chaos-kill-replica
# fleet self-healing, then a restart serving the memoized state.
serve-chaos:
	$(PYTHON) tools/serve_chaos.py

# Sharded-campaign acceptance smoke (the CI chaos-matrix job): a
# --workers 4 campaign under --chaos-kill-rate, the supervisor itself
# SIGKILLed mid-run, resumed from the surviving journals, and the
# resumed report demanded byte-identical to a serial run.
chaos-smoke:
	$(PYTHON) tools/chaos_smoke.py

# The annotation service itself, journaled so `repro-cli top http-server
# --db serve.sqlite` can watch it live.
serve:
	$(PYTHON) -m repro.cli serve --db serve.sqlite --sample 2 --register-all

engine-stats:
	$(PYTHON) -m repro.cli engine-stats

# A journaled whole-catalog generation campaign (kill it and run
# `repro-cli campaign resume nightly --db campaigns.sqlite` to finish).
campaign:
	$(PYTHON) -m repro.cli campaign run nightly --db campaigns.sqlite

report:
	$(PYTHON) -m repro.experiments.runner

# Docs drift gate (the CI docs job): Markdown links and path references
# resolve, documented repro-cli subcommands exist (and every real one is
# documented), and the API reference's doctest examples pass.
docs-check:
	$(PYTHON) tools/check_docs.py

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script > /dev/null || exit 1; done

all: test bench report

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache src/repro.egg-info
