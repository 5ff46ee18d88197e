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

# The simulator step's oracles, release mode: pinned bus-trace digests
# of every Table IV app (clean and attacked), the per-step bus bound
# over every first instruction word plus interrupt entry, a predecoded
# core stepping like a plain one under code rewrites, pinned per-opcode
# digests of every first instruction word on seeded operands, and the
# memory map pin (every address's region, the write gate, the runtime's
# secure addresses).
sim-check:
    cargo test --release --test golden_bus_trace
    cargo test --release -p eilid_msp430 --test bus_bound
    cargo test --release -p eilid_msp430 --test predecode_equivalence
    cargo test --release -p eilid_msp430 --test executor_digest
    cargo test --release -p eilid_casu --test memory_map

# Every property-test suite and parser fuzz loop in release mode, once
# per seed in SOAK_SEEDS (default: eight fixed seeds), stopping at the
# first failing seed (`SOAK_SEEDS="1 2 3" just soak` picks the seeds).
soak:
    ./scripts/soak.sh

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

# Networked attestation smoke: serve a 64-device gateway in the
# background and sweep the fleet through it, this process hosting the
# devices as agents. The sweep retries while the server comes up; a
# failed run kills the background server instead of orphaning it
# (which would hold the port for the next run). Same shape as the
# Makefile target.
net-smoke: build
    #!/bin/sh
    ./target/release/eilid-cli fleet serve --addr 127.0.0.1:4810 --devices 64 &
    SERVE=$!; ok=1
    for attempt in 1 2 3 4 5 6 7 8 9 10; do
        sleep 1
        if ./target/release/eilid-cli fleet attest --gateway 127.0.0.1:4810 --devices 64 --clients 4; then ok=0; break; fi
    done
    if [ $ok -eq 0 ]; then wait $SERVE; else kill $SERVE 2>/dev/null; echo "net-smoke: gateway sweep never succeeded"; exit 1; fi

# Telemetry end-to-end smoke: background gateway, one gateway sweep, a
# live `fleet metrics` wire scrape checked for the expected counters,
# then two more sweeps so the server exits cleanly (same shape as the
# Makefile target).
obs-smoke: build
    ./scripts/obs_smoke.sh

# Collective-attestation smoke (release mode, so the 1 000-device scale
# test un-ignores): aggregated sweeps over loopback TCP plus the
# equivalence oracle against a from-scratch per-device classification.
agg-smoke:
    cargo test --release -p eilid_net --test agg_smoke -- --include-ignored
    cargo test --release -p eilid_net --test agg_equivalence

# Gateway sweeps, campaigns and cluster fan-out at 1 000 devices;
# writes BENCH_net.json (the recorded perf baseline) and gates: the
# gateway-driven loopback sweep ≥ 40k devices/s (≥ 2x the PR 3
# baseline), campaigns over TCP ≥ 11 100 devices/s, 4-gateway cluster
# sweeps ≥ 0.5x the single-gateway rate (see Makefile).
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

# Rustdoc of the workspace's own crates with every warning an error
# (the vendor/ stand-ins stay out).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p eilid-repro -p eilid -p eilid_asm -p eilid_bench -p eilid_casu -p eilid_fleet -p eilid_hwcost -p eilid_msp430 -p eilid_net -p eilid_obs -p eilid_workloads

# Every example in examples/, release mode; an example that returns an
# error or panics fails the recipe (same shape as the Makefile target).
examples:
    #!/bin/sh
    set -e
    cargo build --release --examples
    for example in examples/*.rs; do
        name=$(basename "$example" .rs); echo "== $name"
        cargo run --release -q --example "$name" > /dev/null
    done

# Local CI. sim-check runs the simulator step's oracles in release
# mode, the build the benchmark times; perfbench-test builds the
# benchmark crate against the workspace, so removing a public item it
# uses fails here too.
ci: fmt clippy doc test test-workspace sim-check examples perfbench-test
