# Same recipes as the Makefile, for `just` users.

build:
    cargo build --release

# Tier-1 verification: release build + the root package test suite.
test:
    cargo build --release
    cargo test -q

test-workspace:
    cargo test -q --workspace

# The benchmark crate's own tests (perfbench/ builds against the
# repository's crates by path).
perfbench-test:
    cargo test --release --manifest-path perfbench/Cargo.toml

# The benchmark's end-to-end paths, briefly: every workload untraced,
# then one traced run. Fails when any op fails its correctness check.
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

# Flat-vs-incremental sweep throughput at 1 000 devices; writes
# BENCH_fleet.json (the recorded perf baseline) and fails below the
# accepted 3x incremental speedup.
fleet-bench:
    cargo run --release -p eilid_bench --bin fleet -- --min-speedup 3

# CI-sized head-to-head only (no matrix), still release mode, gating on
# the same 3x speedup floor.
fleet-bench-smoke:
    cargo run --release -p eilid_bench --bin fleet -- --quick --json /tmp/BENCH_fleet.json --min-speedup 3

# The 1 000-device networked sweep over loopback TCP (release mode) —
# epoll reactor and scan fallback both.
net-scale:
    cargo test --release -p eilid_net -- --include-ignored thousand

# The 10 000-connection reactor scale test (Linux/epoll, release mode,
# 60 s budget).
net-scale-10k:
    cargo test --release -p eilid_net --test net_scale_10k -- --include-ignored scale_10k

# The 1 000-device staged OTA campaign over loopback TCP (release mode,
# 60 s budget), report pinned equal to the in-process backend's.
net-campaign:
    cargo test --release -p eilid_net --test net_campaign_scale -- --include-ignored campaign --nocapture

# The supervised multi-process cluster drill (release mode, 120 s
# budget): four gateway processes, one SIGKILLed mid-campaign and
# restarted, campaign resumed from the wave checkpoint, report pinned
# equal to an uninterrupted single-process run.
net-cluster:
    cargo test --release -p eilid_net --test cluster_scale -- --exact supervised_cluster_campaign_survives_gateway_kill --nocapture

# Telemetry end-to-end smoke: background gateway, one sweep, a live
# `fleet metrics` wire scrape checked for the expected counters, then
# a second sweep so the server exits cleanly (same shape as the
# Makefile target).
obs-smoke: build
    ./scripts/obs_smoke.sh

# Collective-attestation smoke (release mode, so the 1 000-device scale
# test un-ignores): aggregated sweeps over loopback TCP plus the
# aggregated-vs-per-device equivalence oracle.
agg-smoke:
    cargo test --release -p eilid_net --test agg_smoke -- --include-ignored
    cargo test --release -p eilid_net --test agg_equivalence

# Persistent-pool vs scoped-thread sweeps and in-memory vs loopback
# transports at 1 000 devices; writes BENCH_net.json (the recorded perf
# baseline) and gates three ways: pool ratio ≥ 0.85, in-memory ≥ 70k
# devices/s, loopback TCP ≥ 40k devices/s (≥ 2x the PR 3 baseline),
# 4-gateway cluster sweeps ≥ 0.5x the single-gateway rate, observed
# loopback sweep ≥ 0.85x the bare one (telemetry is nearly free),
# aggregated collective-attestation sweep ≥ 1.2x the per-device
# client-driven loopback sweep. The pool/cluster/obs floors were
# recalibrated when the SHA-NI path roughly doubled absolute sweep
# throughput: fixed coordination/telemetry costs are no longer masked
# by scalar-crypto time on a single-core box (see Makefile).
net-bench:
    cargo run --release -p eilid_bench --bin net -- --min-pool-ratio 0.85 --min-in-memory 70000 --min-loopback 40000 --min-cluster-ratio 0.5 --min-obs-ratio 0.85 --min-agg-ratio 1.2

# CI-sized smoke (smaller fleet, still release mode); gates loosened
# (pool ratio 0.85, no absolute floors) to tolerate shared-runner noise.
net-bench-smoke:
    cargo run --release -p eilid_bench --bin net -- --quick --json /tmp/BENCH_net.json --min-pool-ratio 0.85

fmt:
    cargo fmt --all --check

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

ci: fmt clippy test test-workspace
