//! Networked attestation throughput scenario.
//!
//! Measures full-protocol networked sweeps over the in-memory pipe and
//! loopback TCP, operator-plane campaigns, cluster fan-out and
//! aggregated sweeps, then writes `BENCH_net.json` — the recorded perf
//! baseline later changes regress against.
//!
//! ```text
//! net [--devices N] [--clients N] [--window N] [--json PATH]
//!     [--min-in-memory N] [--min-loopback N] [--min-campaign N]
//!     [--min-cluster-ratio X] [--min-obs-ratio X] [--min-agg-ratio X]
//!     [--quick]
//! ```
//!
//! `--quick` runs a smaller configuration (the CI smoke mode) and does
//! not write the baseline unless `--json` is explicit.
//! `--min-in-memory N` / `--min-loopback N` are absolute floors in
//! devices/s on the two transport paths — the no-regression gates for
//! the reactor + batching work (the loopback floor of 40 000 in `make
//! net-bench` is ≥ 2× the PR 3 recorded baseline of ~19 000).
//! `--window N` sets the client pipelining window (exchanges in flight
//! per connection). `--min-campaign N` is the floor in devices/s for
//! the staged campaign driven over loopback TCP through the gateway's
//! operator plane (update + probe + smoke per device — hence orders of
//! magnitude below sweep throughput). `--min-cluster-ratio X` exits
//! non-zero when fan-out sweeps across the widest measured cluster (4
//! gateways) fall below `X` times the single-gateway cluster sweep —
//! the gate bounding fan-out coordination overhead (on a single-core
//! box with hardware SHA-256 the four reactor threads honestly cost
//! 5-40% run to run, so `make net-bench` sets the floor at 0.5).
//! `--min-obs-ratio X` exits non-zero when the latency-observed
//! loopback sweep falls below `X` times the bare loopback sweep — the
//! gate for "telemetry recording is (nearly) free on the hot path".
//! `--min-agg-ratio X` exits non-zero when the aggregated
//! (collective-attestation) sweep falls below `X` times the per-device
//! client-driven loopback sweep — the gate for "folding evidence into
//! per-shard aggregate roots beats shipping per-device verdicts".

use std::process::ExitCode;

use eilid_bench::net::{
    measure_aggregated_sweeps, measure_campaigns, measure_cluster_sweeps, measure_transport_sweeps,
    render_net_bench_json,
};

/// Parses `--flag value`; a missing flag yields `default`, an
/// unparseable value is a hard error (never a silent fallback that
/// would record a baseline for a different configuration).
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse::<T>()
            .map_err(|_| format!("invalid {flag} value: {}", args[i + 1])),
        None => Ok(default),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let devices = flag_value(&args, "--devices", if quick { 256 } else { 1000 })?;
    let clients = flag_value(&args, "--clients", 8)?;
    let window = flag_value(&args, "--window", eilid_net::DEFAULT_PIPELINE_WINDOW)?;
    let rounds = if quick { 2 } else { 5 };
    let min_in_memory: f64 = flag_value(&args, "--min-in-memory", 0.0)?;
    let min_loopback: f64 = flag_value(&args, "--min-loopback", 0.0)?;
    let min_campaign: f64 = flag_value(&args, "--min-campaign", 0.0)?;
    let min_cluster_ratio: f64 = flag_value(&args, "--min-cluster-ratio", 0.0)?;
    let min_obs_ratio: f64 = flag_value(&args, "--min-obs-ratio", 0.0)?;
    let min_agg_ratio: f64 = flag_value(&args, "--min-agg-ratio", 0.0)?;
    // `--quick` runs a smaller, non-comparable configuration, so it
    // must never silently overwrite the recorded full-size baseline.
    // A `--json` with its value missing is a hard error like every
    // other flag, not a silent no-write.
    let json_path = match args.iter().position(|a| a == "--json") {
        Some(i) => Some(
            args.get(i + 1)
                .ok_or_else(|| "--json needs a value".to_string())?
                .clone(),
        ),
        None => (!quick).then(|| "BENCH_net.json".to_string()),
    };

    println!(
        "transport head-to-head: {devices} devices, {clients} client connections, \
         pipeline window {window}"
    );
    let transports = measure_transport_sweeps(devices, clients, window, rounds);
    println!(
        "  in-memory pipe    {:>9.0} devices/s",
        transports.in_memory.devices_per_second
    );
    println!(
        "  loopback TCP      {:>9.0} devices/s  ({} reactor, batch {})",
        transports.loopback.devices_per_second,
        transports.poller_backend.name(),
        transports.batch_size,
    );
    println!(
        "  loopback observed {:>9.0} devices/s  ({:.2}x bare; p50 {}µs, p99 {}µs per exchange)",
        transports.loopback_observed.devices_per_second,
        transports.obs_ratio(),
        transports.p50_latency_us,
        transports.p99_latency_us,
    );

    println!(
        "operator-plane campaign: {} devices (staged canary→full, update + probe + smoke per device)",
        if quick { 128 } else { 1000 }
    );
    let campaigns = measure_campaigns(if quick { 128 } else { 1000 }, clients.min(8));
    println!(
        "  in-process        {:>9.0} devices/s  ({:.2}s)",
        campaigns.in_process.devices_per_second, campaigns.in_process.seconds
    );
    println!(
        "  over loopback TCP {:>9.0} devices/s  ({:.2}s, {} agents)",
        campaigns.over_tcp.devices_per_second, campaigns.over_tcp.seconds, campaigns.agents
    );
    println!(
        "  delta wire bytes  {:>9.3}x full image  ({} of {} bytes, ~1%-dirty image campaign)",
        campaigns.delta_bytes_ratio(),
        campaigns.update_bytes_wire,
        campaigns.update_bytes_full,
    );
    println!(
        "  probes            {:>9} executed, {} memoized",
        campaigns.probes_executed, campaigns.probes_memoized,
    );

    let cluster_devices = if quick { 128 } else { 512 };
    println!(
        "cluster fan-out sweep: {cluster_devices} devices placed across 1/2/4 gateway reactors"
    );
    let clusters = measure_cluster_sweeps(cluster_devices, &[1, 2, 4], 2, rounds);
    for row in &clusters.rows {
        println!(
            "  {} gateway{}        {:>9.0} devices/s",
            row.gateways,
            if row.gateways == 1 { " " } else { "s" },
            row.devices_per_second
        );
    }
    println!("  widest/single     {:>9.2}x", clusters.scaling_ratio());

    println!("collective attestation: {devices} devices, aggregated vs client-driven sweeps");
    let aggs = measure_aggregated_sweeps(devices, clients.min(8), window, rounds);
    println!(
        "  aggregated sweep  {:>9.0} devices/s  ({} aggregate roots verified, {} short-circuited)",
        aggs.aggregated.devices_per_second, aggs.roots_verified, aggs.short_circuited,
    );
    println!(
        "  client-driven     {:>9.0} devices/s  (interleaved loopback baseline; {:.2}x aggregated/client)",
        aggs.client_driven.devices_per_second,
        aggs.loopback_ratio(),
    );

    if let Some(json_path) = json_path {
        let json = render_net_bench_json(&transports, &campaigns, &clusters, &aggs);
        std::fs::write(&json_path, &json)
            .map_err(|e| format!("cannot write `{json_path}`: {e}"))?;
        println!("wrote {json_path}");
    }

    if transports.in_memory.devices_per_second < min_in_memory {
        return Err(format!(
            "in-memory transport regression: {:.0} devices/s is below the accepted floor of {min_in_memory:.0}",
            transports.in_memory.devices_per_second
        ));
    }
    if transports.loopback.devices_per_second < min_loopback {
        return Err(format!(
            "loopback TCP regression: {:.0} devices/s is below the accepted floor of {min_loopback:.0}",
            transports.loopback.devices_per_second
        ));
    }
    if campaigns.over_tcp.devices_per_second < min_campaign {
        return Err(format!(
            "campaign-over-TCP regression: {:.0} devices/s is below the accepted floor of {min_campaign:.0}",
            campaigns.over_tcp.devices_per_second
        ));
    }
    if transports.obs_ratio() < min_obs_ratio {
        return Err(format!(
            "telemetry overhead regression: the observed loopback sweep runs at {:.2}x the bare \
             sweep, below the accepted {min_obs_ratio}x",
            transports.obs_ratio()
        ));
    }
    if aggs.loopback_ratio() < min_agg_ratio {
        return Err(format!(
            "aggregated sweep regression: {:.2}x the per-device loopback sweep is below the \
             accepted {min_agg_ratio}x",
            aggs.loopback_ratio()
        ));
    }
    if clusters.scaling_ratio() < min_cluster_ratio {
        return Err(format!(
            "cluster fan-out regression: widest cluster sweeps at {:.2}x the single-gateway rate, \
             below the accepted {min_cluster_ratio}x",
            clusters.scaling_ratio()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
