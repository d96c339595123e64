# Convenience targets for the DISC reproduction.

.PHONY: all test bench-gate profile repro repro-quick soak serve serve-smoke fuzz fuzz-long reports docs clippy examples clean

all: test

test:
	cargo test --workspace

# Same-process ratio gate: times the superblock burst and quiescence
# skip paths against a plain step() loop, and served fleets against an
# in-process fleet and against each other, in interleaved pairs so host
# speed divides out; exit 1 on a failed ratio or a diverging machine
# state (see EXPERIMENTS.md "Performance"). CI runs it on every push.
bench-gate:
	cargo run --release -p disc-bench --bin bench_gate

# Profiler wrapper over the bench hot path: builds the single-board
# profile_target with the `profiling` profile (release codegen + debug
# symbols) and runs it under whichever sampling profiler the machine has
# (perf, then gprofng), falling back to a plain timed run when neither is
# installed. `make profile WORKLOAD=branch_heavy_4s CYCLES=20000000`
# selects the catalog board (any name under boards/) and cycle count.
WORKLOAD ?= compute_bound_4s
CYCLES ?= 50000000
profile:
	cargo build --profile profiling -p disc-bench --bin profile_target
	@if command -v perf >/dev/null 2>&1; then \
		perf record -g --output profile.perf.data -- \
			target/profiling/profile_target $(WORKLOAD) $(CYCLES) && \
		perf report --input profile.perf.data --stdio | head -40; \
	elif command -v gprofng >/dev/null 2>&1; then \
		rm -rf profile.er && \
		gprofng collect app -o profile.er \
			target/profiling/profile_target $(WORKLOAD) $(CYCLES) && \
		gprofng display text -functions profile.er | head -40; \
	else \
		echo "no perf/gprofng on PATH; plain timed run:"; \
		target/profiling/profile_target $(WORKLOAD) $(CYCLES); \
	fi

# Full reproduction of every table/figure/experiment (writes CSV exports).
repro:
	cargo run --release -p disc-bench --bin repro_all -- --csv results

repro-quick:
	cargo run --release -p disc-bench --bin repro_all -- --quick --csv results

# Bounded isolation soak: 100 seeded fault-injection campaigns over the
# RT workload (see EXPERIMENTS.md "Fault campaigns"). Fixed seeds, exit 1
# on any isolation-invariant violation; DISC_JOBS caps the fan-out.
soak:
	cargo run --release -p disc-bench --bin soak

# Run the session server interactively on the default port (see README
# "Service" for the wire protocol).
serve:
	cargo run --release -p disc-serve --bin disc_served

# End-to-end service smoke: boot the disc_served binary on an ephemeral
# port, replay a raw-protocol transcript and validate the streamed
# run-report schema (CI runs this on every push).
serve-smoke:
	cargo build --release -p disc-serve --bin disc_served
	bash scripts/serve_smoke.sh

# Differential fuzzing against the disc-ref golden-reference interpreter
# (see EXPERIMENTS.md "Conformance fuzzing"). `fuzz` replays the
# regression corpus plus 1000 fixed seeds and exits 1 on any divergence;
# `fuzz-long` runs a 100k-seed campaign. Each seed is checked against the
# reference, then `run` under both step modes against the plain step
# loop, fresh from cycle 0 and split at a mid-run snapshot. A failing seed is minimized, printed,
# and replays with
# `cargo run --release -p disc-bench --bin fuzz -- --no-corpus --seed <seed> --count 1`.
fuzz:
	cargo run --release -p disc-bench --bin fuzz -- --seed 0 --count 1000

fuzz-long:
	cargo run --release -p disc-bench --bin fuzz -- --seed 0 --count 100000

# Structured run reports (schema disc-run-report/v3) under results/:
# the quick reproduction pass, a short soak campaign, and the
# observability demo. CI schema-checks every results/*.report.json and
# uploads them as workflow artifacts.
reports:
	cargo run --release -p disc-bench --bin repro_all -- --quick --csv results
	cargo run --release -p disc-bench --bin soak -- --runs 10 --report results/soak.report.json
	cargo run --release --example obs_demo

docs:
	cargo doc --workspace --no-deps

clippy:
	cargo clippy --workspace --all-targets

examples:
	cargo build --examples --release
	cargo run --release --example quickstart
	cargo run --release --example engine_controller
	cargo run --release --example producer_consumer
	cargo run --release --example interrupt_latency
	cargo run --release --example dsp_filter
	cargo run --release --example rms_monitor
	cargo run --release --example compiled_script
	cargo run --release --example stochastic_study

# Removes build output and the ignored scratch under results/; the
# committed exports there stay (`make repro` and CI's drift check read
# them).
clean:
	cargo clean
	rm -rf results/*.report.json results/serve-smoke \
		results/*.trace.jsonl profile.er profile.perf.data
