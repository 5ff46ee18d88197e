# Convenience targets; `just` users get the same recipes from ./justfile.

.PHONY: build test test-workspace perfbench-test perfbench-smoke bench-smoke fleet-smoke fleet-scale sim-check soak net-scale net-scale-10k net-campaign net-cluster net-smoke net-bench net-bench-smoke obs-smoke agg-smoke fmt clippy doc examples ci

build:
	cargo build --release

# Tier-1 verification: release build + the root package test suite.
test:
	cargo build --release
	cargo test -q

test-workspace:
	cargo test -q --workspace

# The benchmark crate's own tests. perfbench/ is a workspace of its own
# that builds against the repository's crates by path, so this is what
# catches an API change it depends on.
perfbench-test:
	cargo test --release --manifest-path perfbench/Cargo.toml

# The benchmark's end-to-end paths, briefly: every workload untraced,
# then one traced run (the per-layer ledger and its exact counts).
# Each run exits non-zero when any op fails its correctness check.
perfbench-smoke:
	python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0
	python3 perfbench/run.py --workload all --seed 1 --seconds 3 --trace 1

# One fast pass over every criterion bench (stub timing, no statistics).
bench-smoke:
	cargo bench -p eilid_bench

# Small fleet end-to-end: slice run, attestation sweep, staged campaigns.
fleet-smoke:
	cargo run --release --bin eilid-cli -- fleet run --devices 64 --threads 4
	cargo run --release --bin eilid-cli -- fleet attest --devices 64 --threads 4
	cargo run --release --bin eilid-cli -- fleet campaign --devices 64 --threads 4
	cargo run --release --bin eilid-cli -- fleet campaign --devices 64 --threads 4 --inject-bad

# The 1 000-device release-mode scale test.
fleet-scale:
	cargo test --release -p eilid_fleet -- --include-ignored thousand

# The simulator step's oracles, release mode: every step of every
# Table IV app's EILID build (clean and under each applicable attack)
# against pinned bus-trace digests, the per-step bus bound (fetches,
# reads, writes) over every first instruction word plus interrupt entry,
# a predecoded core stepping like a plain one while its code is
# rewritten under it, pinned per-opcode digests of every first
# instruction word executed on seeded operands, and the memory map pin:
# every address's region, the monitor's write gate and the runtime's
# secure-DMEM and secure-ROM addresses.
sim-check:
	cargo test --release --test golden_bus_trace
	cargo test --release -p eilid_msp430 --test bus_bound
	cargo test --release -p eilid_msp430 --test predecode_equivalence
	cargo test --release -p eilid_msp430 --test executor_digest
	cargo test --release -p eilid_casu --test memory_map

# Every property-test suite and parser fuzz loop in release mode, once
# per seed in SOAK_SEEDS (default: eight fixed seeds), stopping at the
# first failing seed; a failing case prints the
# PROPTEST_SEED/PROPTEST_CASES pair that replays it.
# `make soak SOAK_SEEDS="1 2 3"` picks the seeds.
soak:
	./scripts/soak.sh

# The 1 000-device networked sweep over loopback TCP (release mode) —
# epoll reactor and scan fallback both.
net-scale:
	cargo test --release -p eilid_net -- --include-ignored thousand

# The 10 000-connection reactor scale test (Linux/epoll, release mode,
# 60 s budget): 9 996 idle negotiated sessions held by two child
# processes while a 1 000-device gateway sweep runs through four device
# agents and a console. The PR 3 scan loop cannot serve this shape in
# budget — every pass cost a read() per connection.
net-scale-10k:
	cargo test --release -p eilid_net --test net_scale_10k -- --include-ignored scale_10k

# The 1 000-device staged OTA campaign over loopback TCP (release mode,
# 60 s budget): RemoteOps console → gateway campaign engine → 8 device
# agents, with the report pinned equal to the in-process backend's.
net-campaign:
	cargo test --release -p eilid_net --test net_campaign_scale -- --include-ignored campaign --nocapture

# The supervised multi-process cluster drill (release mode, 120 s
# budget): a 128-device fleet placed across four gateway *processes*,
# swept and taken through a staged campaign, with one gateway
# SIGKILLed mid-campaign, restarted by the supervisor, and the
# campaign resumed from the operator's wave checkpoint — the final
# report pinned equal to an uninterrupted single-process run.
net-cluster:
	cargo test --release -p eilid_net --test cluster_scale -- --exact supervised_cluster_campaign_survives_gateway_kill --nocapture

# Two-terminal demo collapsed into one: serve a gateway in the
# background and sweep the fleet through it, this process hosting the
# devices as agents. The sweep retries while the server comes up; a
# failed run kills the background server instead of orphaning it
# (which would hold the port for the next run).
net-smoke: build
	@./target/release/eilid-cli fleet serve --addr 127.0.0.1:4810 --devices 64 & \
	SERVE=$$!; ok=1; \
	for attempt in 1 2 3 4 5 6 7 8 9 10; do \
		sleep 1; \
		if ./target/release/eilid-cli fleet attest --gateway 127.0.0.1:4810 --devices 64 --clients 4; then ok=0; break; fi; \
	done; \
	if [ $$ok -eq 0 ]; then wait $$SERVE; else kill $$SERVE 2>/dev/null; echo "net-smoke: gateway sweep never succeeded"; exit 1; fi

# Telemetry end-to-end smoke: serve a gateway in the background, sweep
# its 64 devices through it with `fleet attest --gateway`, scrape the
# live snapshot over the wire with `fleet metrics` (checking the
# verification counter saw every report and the engine histograms saw
# the sweep), then sweep twice more so the server reaches
# --expect-reports and exits cleanly.
obs-smoke: build
	./scripts/obs_smoke.sh

# Collective-attestation smoke (release mode, so the 1 000-device scale
# test un-ignores): all-clean and ~1%-tampered aggregated sweeps over
# loopback TCP, the operator verifying at most SHARD_COUNT aggregate
# roots — counter-asserted on both sides of the wire — plus the
# equivalence oracle pinning aggregated verdicts on both backends to a
# from-scratch per-device classification.
agg-smoke:
	cargo test --release -p eilid_net --test agg_smoke -- --include-ignored
	cargo test --release -p eilid_net --test agg_equivalence

# Gateway sweeps, campaigns and cluster fan-out at 1 000 devices; writes
# BENCH_net.json (the recorded perf baseline) and gates three ways. The
# loopback gate (40 000 devices/s) holds the gateway-driven sweep —
# probes pushed to device agents, each reply burst verified as it
# lands — at ≥ 2x the first recorded loopback baseline of
# ~19k devices/s. The campaign gate (11 100 devices/s) holds the
# streamed wave engine + memoized probes + delta updates at ≥ 20x the
# phase-barrier baseline's recorded 556 devices/s. The cluster gate
# holds fan-out sweeps across four gateways against the single-gateway
# run; its floor was recalibrated (0.9 → 0.5) when the SHA-NI
# compression path landed: it roughly doubled absolute throughput, so
# the fixed cost of four reactor threads sharing one core is no longer
# masked by scalar-crypto time, and the honest ratio range on a
# single-core box widened to 0.60-0.96. The absolute floors are what
# catch real code regressions.
net-bench:
	cargo run --release -p eilid_bench --bin net -- --min-loopback 40000 --min-campaign 11100 --min-cluster-ratio 0.5

# CI-sized smoke (smaller fleet, still release mode); no gates, to
# tolerate shared-runner noise.
net-bench-smoke:
	cargo run --release -p eilid_bench --bin net -- --quick --json /tmp/BENCH_net.json

fmt:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc of the workspace's own crates with every warning an error, so
# a doc link to a deleted item fails the build. The vendor/ stand-ins
# stay out: their docs are not this project's.
DOC_CRATES = -p eilid-repro -p eilid -p eilid_asm -p eilid_bench -p eilid_casu \
	-p eilid_fleet -p eilid_hwcost -p eilid_msp430 -p eilid_net -p eilid_obs \
	-p eilid_workloads
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps $(DOC_CRATES)

# Every example in examples/, release mode (about 2 s in all after the
# build); an example that returns an error or panics fails the target.
examples:
	cargo build --release --examples
	for example in examples/*.rs; do \
		name=$$(basename $$example .rs); echo "== $$name"; \
		cargo run --release -q --example $$name > /dev/null || exit 1; \
	done

# Local CI. sim-check runs the simulator step's oracles in release
# mode, the build the benchmark times; perfbench-test builds the
# benchmark crate against the workspace, so removing a public item it
# uses fails here too.
ci: fmt clippy doc test test-workspace sim-check examples perfbench-test
