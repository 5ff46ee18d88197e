//! Networked attestation throughput scenario.
//!
//! Measures gateway-driven aggregated sweeps, operator-plane campaigns
//! and cluster fan-out over loopback TCP, then writes `BENCH_net.json`
//! — the recorded perf baseline later changes regress against.
//!
//! ```text
//! net [--devices N] [--clients N] [--json PATH]
//!     [--min-loopback N] [--min-campaign N] [--min-cluster-ratio X]
//!     [--quick]
//! ```
//!
//! `--quick` runs a smaller configuration (the CI smoke mode) and does
//! not write the baseline unless `--json` is explicit. `--clients N`
//! sets the device-agent connections of the sweep and campaign runs.
//! `--min-loopback N` is the absolute floor in devices/s of the
//! gateway-driven sweep over loopback TCP (probes pushed to device
//! agents, each reply burst verified as it lands, aggregate roots back
//! to the operator). `--min-campaign N` is the floor in
//! devices/s for the staged campaign driven over loopback TCP through
//! the gateway's operator plane (update + probe + smoke per device —
//! hence orders of magnitude below sweep throughput).
//! `--min-cluster-ratio X` exits non-zero when fan-out sweeps across
//! the widest measured cluster (4 gateways) fall below `X` times the
//! single-gateway cluster sweep — the gate bounding fan-out
//! coordination overhead (on a single-core box with hardware SHA-256
//! the four reactor threads honestly cost 5-40% run to run, so `make
//! net-bench` sets the floor at 0.5).

use std::process::ExitCode;

use eilid_bench::net::{
    measure_aggregated_sweeps, measure_campaigns, measure_cluster_sweeps, render_net_bench_json,
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
    let rounds = if quick { 2 } else { 5 };
    let min_loopback: f64 = flag_value(&args, "--min-loopback", 0.0)?;
    let min_campaign: f64 = flag_value(&args, "--min-campaign", 0.0)?;
    let min_cluster_ratio: f64 = flag_value(&args, "--min-cluster-ratio", 0.0)?;
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

    let agents = clients.min(8);
    println!("gateway-driven sweep: {devices} devices over {agents} device agents");
    let aggs = measure_aggregated_sweeps(devices, agents, rounds);
    println!(
        "  loopback TCP      {:>9.0} devices/s  ({} reactor; {} aggregate roots verified, \
         {} short-circuited)",
        aggs.devices_per_second,
        aggs.poller_backend.name(),
        aggs.roots_verified,
        aggs.short_circuited,
    );

    println!(
        "operator-plane campaign: {} devices (staged canary→full, update + probe + smoke per device)",
        if quick { 128 } else { 1000 }
    );
    let campaigns = measure_campaigns(if quick { 128 } else { 1000 }, agents);
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

    if let Some(json_path) = json_path {
        let json = render_net_bench_json(&aggs, &campaigns, &clusters);
        std::fs::write(&json_path, &json)
            .map_err(|e| format!("cannot write `{json_path}`: {e}"))?;
        println!("wrote {json_path}");
    }

    if aggs.devices_per_second < min_loopback {
        return Err(format!(
            "loopback sweep regression: {:.0} devices/s is below the accepted floor of {min_loopback:.0}",
            aggs.devices_per_second
        ));
    }
    if campaigns.over_tcp.devices_per_second < min_campaign {
        return Err(format!(
            "campaign-over-TCP regression: {:.0} devices/s is below the accepted floor of {min_campaign:.0}",
            campaigns.over_tcp.devices_per_second
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
