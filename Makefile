# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test trace-smoke bench-smoke chaos-smoke perf-smoke cache-smoke report-smoke leaderboard-smoke resilience-smoke ensemble-smoke tune-smoke bench experiments examples clean

install:
	pip install -e .

test: trace-smoke bench-smoke chaos-smoke perf-smoke cache-smoke report-smoke leaderboard-smoke resilience-smoke ensemble-smoke tune-smoke
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	PYTHONPATH=src $(PYTHON) -m pytest bench

# end-to-end observability check: produce a ground-truth trace and
# validate the Chrome trace-event JSON against the minimal schema
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace salt --steps 5 \
		--out benchmarks/out/trace-smoke
	$(PYTHON) scripts/check_trace.py benchmarks/out/trace-smoke/trace.json \
		--min-spans 20

# end-to-end attribution check: rerun the speedup-loss bench, produce
# the Al-1000 flamegraph, and validate both (buckets must conserve the
# gap; LJ work inflation must dominate Al-1000).  The smoke run writes
# under benchmarks/out/; the committed BENCH_attribution.json is the
# number of record
bench-smoke:
	PYTHONPATH=src $(PYTHON) scripts/bench_attribution.py \
		--out benchmarks/out/bench-smoke.json
	PYTHONPATH=src $(PYTHON) -m repro attribute --workload al1000 \
		--threads 4 --steps 4 --out benchmarks/out/attr-smoke
	$(PYTHON) scripts/check_bench.py benchmarks/out/bench-smoke.json \
		--expect-lj-dominant \
		--folded benchmarks/out/attr-smoke/flamegraph.folded

# end-to-end robustness check: sweep the default fault-plan battery
# (worker crash, straggler, preemption storm, task loss, lock stall,
# GC amplification) across all three workloads and validate that every
# run completed deterministically with its MD invariants intact
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro chaos --steps 2 \
		--out benchmarks/out/chaos-smoke
	$(PYTHON) scripts/check_chaos.py benchmarks/out/chaos-smoke/chaos.json

# wall-clock throughput gate: the committed BENCH_throughput.json must
# record the >=1.5x DES hot-path speedup vs its pre-optimization
# baseline AND a telemetry-on-vs-off sweep overhead within the <=5%
# budget; a quick live sweep must still produce a valid artifact
# (shape-checked only, overhead sweep skipped: live ratios on shared
# CI runners are too noisy to gate, the recorded artifact is the
# number of record)
perf-smoke:
	$(PYTHON) scripts/check_throughput.py BENCH_throughput.json \
		--max-overhead 0.05
	PYTHONPATH=src $(PYTHON) scripts/bench_throughput.py --quick \
		--skip-overhead \
		--baseline BENCH_throughput.json \
		--out benchmarks/out/throughput-smoke.json
	$(PYTHON) scripts/check_throughput.py \
		benchmarks/out/throughput-smoke.json \
		--min-speedup 0 --max-overhead -1

# run-cache effectiveness gate: rerun the run-cache bench (cold sweep
# into a fresh store, identical warm sweep, sampled byte-identity
# verify) into benchmarks/out/ and require warm-over-cold >= 5x with
# hit rate >= 0.9; the committed BENCH_runcache.json is the number of
# record
cache-smoke:
	PYTHONPATH=src $(PYTHON) scripts/bench_runcache.py \
		--out benchmarks/out/cache-smoke.json
	$(PYTHON) scripts/check_runcache.py benchmarks/out/cache-smoke.json

# end-to-end runtime-telemetry check: run the attribution sweep with a
# telemetry run active (12 workload x thread configs, warm after
# bench-smoke), render it with `repro report`, and validate that
# report.json is schema-valid and report.html is fully self-contained
report-smoke:
	rm -rf benchmarks/out/report-smoke
	PYTHONPATH=src $(PYTHON) scripts/bench_attribution.py \
		--telemetry benchmarks/out/report-smoke \
		--out benchmarks/out/report-smoke/BENCH_attribution.json
	PYTHONPATH=src $(PYTHON) -m repro report benchmarks/out/report-smoke
	$(PYTHON) scripts/check_report.py benchmarks/out/report-smoke

# tool-accuracy leaderboard gate: score every modeled profiler against
# ground truth over the 3x3 workload x machine grid (cold + warm cached
# sweeps), render the telemetry run, and require >= 8 ranked tools,
# JXPerf's top wasteful site on the Vector3 temp churn, a measurable
# timer-placement distortion gap, and a warm hit rate >= 0.9.  The
# smoke run writes under benchmarks/out/; the committed
# BENCH_toolerror.json is the number of record
leaderboard-smoke:
	rm -rf benchmarks/out/leaderboard-smoke
	PYTHONPATH=src $(PYTHON) scripts/bench_toolerror.py \
		--telemetry benchmarks/out/leaderboard-smoke \
		--out benchmarks/out/leaderboard-smoke/BENCH_toolerror.json
	PYTHONPATH=src $(PYTHON) -m repro report benchmarks/out/leaderboard-smoke
	$(PYTHON) scripts/check_toolerror.py \
		benchmarks/out/leaderboard-smoke/BENCH_toolerror.json

# crash-safety gate: real-process chaos against the sweep orchestrator
# (SIGKILLed pool workers, ENOSPC'd + truncated cache writes, a hung
# shard killed on timeout, a mid-campaign SIGKILL of a journaled
# `repro sweep` subprocess).  Requires byte-identical recovery, zero
# re-execution of journaled-complete specs on --resume, and CLI exit
# codes that distinguish partial success (3) from full success (0).
# The smoke run writes under benchmarks/out/; the committed
# BENCH_resilience.json is the number of record
resilience-smoke:
	PYTHONPATH=src $(PYTHON) scripts/bench_resilience.py \
		--out benchmarks/out/resilience-smoke.json
	$(PYTHON) scripts/check_resilience.py \
		benchmarks/out/resilience-smoke.json

# lockstep-batch gate: advance 100 seeded captures in lockstep through
# one engine and require >= 10x execution-phase aggregate events/s over
# 100 one-run engines, byte-identical per-run traces, swept cache
# artifacts byte-equal to one-run execute_spec runs, and a full hit on
# resweep.  The smoke run writes under benchmarks/out/;
# the committed BENCH_ensemble.json is the number of record
ensemble-smoke:
	PYTHONPATH=src $(PYTHON) scripts/bench_ensemble.py \
		--out benchmarks/out/ensemble-smoke.json
	$(PYTHON) scripts/check_ensemble.py benchmarks/out/ensemble-smoke.json

# autotuner recovery gate: run the attribution-driven autotuner on
# Al-1000 at 32 threads on the simulated 32-core machine (the paper's
# worst scaling case), render the telemetry run with the tuner
# search-trajectory section, and require the tuned config to strictly
# beat the fixed-queue baseline's speedup with a strictly lower
# latch-idle share and exactly-conserved buckets (incl. steal_overhead).
# The smoke run writes under benchmarks/out/; the committed
# BENCH_autotune.json is the number of record
tune-smoke:
	rm -rf benchmarks/out/tune-smoke
	PYTHONPATH=src $(PYTHON) scripts/bench_autotune.py \
		--telemetry benchmarks/out/tune-smoke \
		--out benchmarks/out/tune-smoke/BENCH_autotune.json \
		--config-out benchmarks/out/tune-smoke/winning_config.json
	PYTHONPATH=src $(PYTHON) -m repro report benchmarks/out/tune-smoke
	$(PYTHON) scripts/check_autotune.py \
		benchmarks/out/tune-smoke/BENCH_autotune.json

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# regenerate every paper artifact into benchmarks/out/
experiments: bench
	@ls benchmarks/out/

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/salt_melt.py
	PYTHONPATH=src $(PYTHON) examples/nanocar_drive.py
	PYTHONPATH=src $(PYTHON) examples/ewald_ionic_crystal.py
	PYTHONPATH=src $(PYTHON) examples/custom_model.py
	PYTHONPATH=src $(PYTHON) examples/perf_study.py

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/out
	find . -name __pycache__ -type d -exec rm -rf {} +
