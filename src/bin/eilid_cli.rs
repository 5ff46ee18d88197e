//! `eilid-cli` — command-line front end for the EILID reproduction.
//!
//! ```text
//! eilid-cli instrument <app.s>             print the instrumented assembly + report
//! eilid-cli run <app.s> [--protect] [--max-cycles N]
//!                                          assemble (and optionally protect) then simulate
//! eilid-cli disasm <app.s>                 assemble and disassemble the image
//! eilid-cli workloads                      list the paper's evaluation applications
//! eilid-cli attack <workload> <attack>     inject a threat-model attack on a protected device
//! eilid-cli fleet run [--devices N] [--threads N] [--cycles N]
//!                                          simulate a fleet slice and print health counts
//! eilid-cli fleet attest [--devices N] [--threads N] [--sweeps N]
//!                        [--aggregated] [--gateway ADDR | --gateways A,B,..]
//!                                          attestation sweep + throughput (in-process,
//!                                          gateway-driven over TCP, or fanned out over a
//!                                          multi-gateway cluster); `--aggregated` sweeps
//!                                          via per-shard aggregate evidence roots — the
//!                                          operator verifies O(shards) MACs, not O(devices)
//! eilid-cli fleet campaign [--devices N] [--threads N] [--inject-bad]
//!                          [--gateway ADDR | --gateways A,B,..]
//!                                          staged OTA campaign (canary → full), in-process
//!                                          or wire-driven through one gateway's — or a
//!                                          cluster's — operator plane
//! eilid-cli fleet serve [--addr A] [--devices N] [--expect-reports N]
//!                       [--poller epoll|scan]
//!                                          run the networked attestation gateway
//! eilid-cli fleet metrics --gateway ADDR | --gateways A,B,.. [--watch]
//!                                          scrape telemetry (Prometheus text) from a live
//!                                          gateway, or merged across a cluster
//! ```
//!
//! Fleet devices answer challenges from the incremental Merkle
//! measurement engine.
//!
//! `fleet attest`/`fleet campaign` run through the unified operator
//! plane (`eilid_fleet::ops::FleetOps`): the same scenario code drives
//! the in-process backend by default and, with `--gateway ADDR`, a
//! remote gateway's campaign engine over TCP. This process then hosts
//! the devices as agents (`--clients N` connections); run `fleet serve`
//! with the same fleet shape in the other terminal — or on another
//! machine. Both sides derive the same demo fleet (same root key, so
//! the gateway holds the right goldens); the gateway challenges every
//! device and verifies its report. With `--gateways A,B,..` the scenario instead fans
//! out over a whole cluster: devices are placed shard-wise across the
//! listed gateways (run one `fleet serve` per address, same fleet
//! shape) and the per-gateway results merge back into the
//! single-gateway shapes.

use std::process::ExitCode;
use std::time::Instant;

use eilid::{DeviceBuilder, EilidConfig, InstrumentedBuild, Runtime};
use eilid_casu::DeviceKey;
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, CampaignReport, Fleet, FleetBuilder, FleetOps, LocalOps,
    SweepSummary, Verifier,
};
use eilid_msp430::render_disassembly;
use eilid_workloads::{CfiAttack, WorkloadId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("instrument") => cmd_instrument(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("workloads") => cmd_workloads(),
        Some("attack") => cmd_attack(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `eilid-cli help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "eilid-cli — EILID (DATE 2025) reproduction\n\n\
         USAGE:\n  eilid-cli instrument <app.s>\n  eilid-cli run <app.s> [--protect] [--max-cycles N]\n  eilid-cli disasm <app.s>\n  eilid-cli workloads\n  eilid-cli attack <workload> <attack>\n  eilid-cli fleet run [--devices N] [--threads N] [--cycles N]\n  eilid-cli fleet attest [--devices N] [--threads N] [--sweeps N]\n                         [--aggregated] [--gateway ADDR | --gateways A,B,..]\n  eilid-cli fleet campaign [--devices N] [--threads N] [--inject-bad]\n                           [--gateway ADDR | --gateways A,B,..]\n  eilid-cli fleet serve [--addr A] [--devices N] [--expect-reports N]\n                        [--poller epoll|scan]\n  eilid-cli fleet metrics --gateway ADDR | --gateways A,B,.. [--watch]\n\n\
         Attacks: return-address, isr-context, indirect-call, code-injection"
    );
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn cmd_instrument(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: eilid-cli instrument <app.s>")?;
    let source = read_source(path)?;
    let config = EilidConfig::default();
    let runtime = Runtime::build(&config).map_err(|e| e.to_string())?;
    let artifacts = InstrumentedBuild::new(config)
        .run(&source, &runtime)
        .map_err(|e| e.to_string())?;
    println!("{}", artifacts.instrumented_source);
    eprintln!("{}", artifacts.report);
    eprintln!(
        "binary size: {} -> {} bytes ({:+.1}%), {} build iterations",
        artifacts.metrics.original_binary_bytes,
        artifacts.metrics.instrumented_binary_bytes,
        artifacts.metrics.binary_size_overhead() * 100.0,
        artifacts.metrics.iterations
    );
    Ok(())
}

fn parse_max_cycles(args: &[String]) -> Result<u64, String> {
    match args.iter().position(|a| a == "--max-cycles") {
        Some(i) => args
            .get(i + 1)
            .ok_or("--max-cycles needs a value")?
            .parse::<u64>()
            .map_err(|e| format!("invalid --max-cycles value: {e}")),
        None => Ok(50_000_000),
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("usage: eilid-cli run <app.s> [--protect] [--max-cycles N]")?;
    let source = read_source(path)?;
    let protect = args.iter().any(|a| a == "--protect");
    let max_cycles = parse_max_cycles(args)?;

    let builder = DeviceBuilder::new();
    let mut device = if protect {
        builder.build_eilid(&source).map_err(|e| e.to_string())?
    } else {
        builder.build_baseline(&source).map_err(|e| e.to_string())?
    };
    let outcome = device.run_for(max_cycles);
    println!(
        "{} device: {outcome}",
        if protect { "EILID" } else { "baseline" }
    );
    println!("debug output: {:?}", device.cpu().peripherals.sim_output());
    if !device.cpu().peripherals.uart_output().is_empty() {
        println!(
            "uart output : {}",
            String::from_utf8_lossy(device.cpu().peripherals.uart_output())
        );
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: eilid-cli disasm <app.s>")?;
    let source = read_source(path)?;
    let image = eilid_asm::assemble(&source).map_err(|e| e.to_string())?;
    let memory = image.to_memory().map_err(|e| e.to_string())?;
    for segment in &image.segments {
        println!(
            "; segment {:#06x} ({} bytes)",
            segment.base,
            segment.bytes.len()
        );
        println!(
            "{}",
            render_disassembly(
                &memory,
                segment.base,
                segment.base.wrapping_add(segment.bytes.len() as u16)
            )
        );
    }
    Ok(())
}

fn cmd_workloads() -> Result<(), String> {
    println!("{:<18} {:<5} {:<9} description", "name", "ISR", "indirect");
    for workload in eilid_workloads::all() {
        println!(
            "{:<18} {:<5} {:<9} {}",
            workload.name,
            if workload.uses_interrupts { "yes" } else { "-" },
            if workload.uses_indirect_calls {
                "yes"
            } else {
                "-"
            },
            workload.description
        );
    }
    Ok(())
}

fn parse_workload(name: &str) -> Result<WorkloadId, String> {
    WorkloadId::ALL
        .into_iter()
        .find(|id| id.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown workload `{name}` (see `eilid-cli workloads`)"))
}

fn parse_attack(name: &str) -> Result<CfiAttack, String> {
    match name.to_ascii_lowercase().as_str() {
        "return-address" | "ra" => Ok(CfiAttack::ReturnAddressOverwrite),
        "isr-context" | "rfi" => Ok(CfiAttack::IsrContextTamper),
        "indirect-call" | "ind" => Ok(CfiAttack::IndirectCallHijack),
        "code-injection" | "inject" => Ok(CfiAttack::CodeInjectionJump),
        other => Err(format!(
            "unknown attack `{other}` (return-address, isr-context, indirect-call, code-injection)"
        )),
    }
}

fn cmd_attack(args: &[String]) -> Result<(), String> {
    let workload = parse_workload(
        args.first()
            .ok_or("usage: eilid-cli attack <workload> <attack>")?,
    )?;
    let attack = parse_attack(
        args.get(1)
            .ok_or("usage: eilid-cli attack <workload> <attack>")?,
    )?;
    let source = workload.workload().source;

    let mut device = DeviceBuilder::new()
        .build_eilid(&source)
        .map_err(|e| e.to_string())?;
    let result =
        eilid_workloads::inject(&mut device, attack, 60_000_000).map_err(|e| e.to_string())?;
    println!("{workload} under {attack}: {}", result.outcome);
    if result.detected() {
        println!(
            "detected{}",
            if result.detected_as_expected() {
                " with the expected fault class"
            } else {
                " (unexpected fault class)"
            }
        );
    } else {
        println!("NOT detected — this should not happen on a protected device");
    }
    Ok(())
}

// --- fleet subcommands ---------------------------------------------------

/// Demo-only root key; a real deployment provisions this out of band.
const FLEET_DEMO_ROOT: &[u8] = b"eilid-cli-demo-fleet-root-key-01";

fn parse_flag_value(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse::<u64>()
            .map_err(|e| format!("invalid {flag} value: {e}")),
        None => Ok(default),
    }
}

fn build_fleet(args: &[String]) -> Result<(Fleet, Verifier), String> {
    let devices = parse_flag_value(args, "--devices", 64)? as usize;
    let threads = parse_flag_value(args, "--threads", 4)? as usize;
    let root = DeviceKey::new(FLEET_DEMO_ROOT).map_err(|e| e.to_string())?;
    FleetBuilder::new(root)
        .devices(devices)
        .threads(threads)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_fleet(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_fleet_run(&args[1..]),
        Some("attest") => cmd_fleet_attest(&args[1..]),
        Some("campaign") => cmd_fleet_campaign(&args[1..]),
        Some("serve") => cmd_fleet_serve(&args[1..]),
        Some("metrics") => cmd_fleet_metrics(&args[1..]),
        _ => Err("usage: eilid-cli fleet run|attest|campaign|serve|metrics \
             [--devices N] [--threads N]"
            .into()),
    }
}

/// Scrapes a live gateway (or a whole cluster) over the operator
/// plane and prints the telemetry snapshot in Prometheus text format.
/// With `--gateways`, the merged cluster snapshot is printed followed
/// by a compact per-gateway table; `--watch` re-scrapes every 2s.
fn cmd_fleet_metrics(args: &[String]) -> Result<(), String> {
    let gateway = parse_gateway(args)?;
    let cluster = parse_gateways(args)?;
    let watch = args.iter().any(|a| a == "--watch");
    if gateway.is_some() && cluster.is_some() {
        return Err("--gateway and --gateways are mutually exclusive".to_string());
    }
    if gateway.is_none() && cluster.is_none() {
        return Err(
            "usage: eilid-cli fleet metrics --gateway HOST:PORT | --gateways A,B,.. [--watch]"
                .into(),
        );
    }
    loop {
        if let Some(addr) = gateway {
            let mut console = eilid_net::RemoteOps::connect(addr).map_err(|e| e.to_string())?;
            let snapshot = console.metrics().map_err(|e| e.to_string())?;
            print!("{}", snapshot.to_prometheus());
        } else if let Some(addrs) = &cluster {
            let mut ops = eilid_net::ClusterOps::connect(addrs).map_err(|e| e.to_string())?;
            let (merged, parts) = ops.metrics().map_err(|e| e.to_string())?;
            print!("{}", merged.to_prometheus());
            println!("# per-gateway (accepted / frames received / reports verified):");
            for (index, (addr, part)) in addrs.iter().zip(&parts).enumerate() {
                let get = |name: &str| part.counters.get(name).copied().unwrap_or(0);
                println!(
                    "#   gateway {index} {addr}: {} / {} / {}",
                    get("eilid_gateway_accepted_total"),
                    get("eilid_gateway_frames_received_total"),
                    get("eilid_service_reports_verified_total"),
                );
            }
        }
        if !watch {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(2));
        println!();
    }
}

fn parse_flag_string(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
        None => Ok(None),
    }
}

fn cmd_fleet_serve(args: &[String]) -> Result<(), String> {
    let addr = parse_flag_string(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:4810".to_string());
    let (fleet, mut verifier) = build_fleet(args)?;
    let expect = parse_flag_value(args, "--expect-reports", fleet.len() as u64)?;
    let poller = match parse_flag_string(args, "--poller")?.as_deref() {
        None => eilid_net::PollerChoice::Auto,
        Some("epoll") => eilid_net::PollerChoice::Epoll,
        Some("scan") => eilid_net::PollerChoice::Scan,
        Some(other) => return Err(format!("invalid --poller `{other}` (epoll or scan)")),
    };

    // A generous nonce block: networked challenges can never collide
    // with this process's in-process sweeps.
    let service = std::sync::Arc::new(eilid_net::AttestationService::new(
        verifier.service_snapshot(1 << 32),
    ));
    let gateway = eilid_net::Gateway::bind(
        addr.as_str(),
        std::sync::Arc::clone(&service),
        eilid_net::GatewayConfig {
            poller,
            ..eilid_net::GatewayConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let backend = gateway.poller_backend();
    let handle = gateway.spawn();
    println!(
        "gateway listening on {} ({} cohorts, {} reactor); waiting for {expect} reports",
        handle.addr(),
        fleet.cohort_ids().len(),
        backend.name(),
    );

    let load =
        |counter: &std::sync::atomic::AtomicU64| counter.load(std::sync::atomic::Ordering::Relaxed);
    // While serving, surface the reactor's health counters (the same
    // figures an operator console sees in `OpHealthResult`) every ~2s
    // when they moved. When they have NOT moved the gateway is either
    // idle or wedged — indistinguishable from silence — so every quiet
    // tick records an explicit heartbeat in the trace ring (scrapeable
    // via `fleet metrics`) and every ~30s one heartbeat line is
    // printed, so the log never goes fully dark.
    let mut last_logged = (u64::MAX, u64::MAX);
    let mut next_log = std::time::Instant::now();
    let mut idle_ticks: u64 = 0;
    while service.stats().reports_verified() < expect {
        if std::time::Instant::now() >= next_log {
            let snapshot = (
                load(&handle.counters().live_connections),
                service.stats().reports_verified(),
            );
            if snapshot != last_logged {
                println!(
                    "reactor: {} live sessions, {}/{expect} reports verified",
                    snapshot.0, snapshot.1,
                );
                last_logged = snapshot;
                idle_ticks = 0;
            } else {
                idle_ticks += 1;
                handle.metrics().trace().record(
                    eilid_net::TRACE_CAT_SERVE,
                    eilid_net::TRACE_SERVE_IDLE,
                    idle_ticks,
                    snapshot.0,
                );
                if idle_ticks.is_multiple_of(15) {
                    println!(
                        "reactor idle for {}s: {} live sessions, {}/{expect} reports verified \
                         (heartbeat; scrape `fleet metrics` for detail)",
                        idle_ticks * 2,
                        snapshot.0,
                        snapshot.1,
                    );
                }
            }
            next_log += std::time::Duration::from_secs(2);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let gateway = handle.shutdown().map_err(|e| e.to_string())?;
    let stats = service.stats();
    println!(
        "served {} reports over {} connections: \
         {} attested, {} stale, {} tampered, {} unverified",
        stats.reports_verified(),
        load(&gateway.counters().accepted),
        load(&stats.attested),
        load(&stats.stale),
        load(&stats.tampered),
        load(&stats.unverified),
    );
    Ok(())
}

fn cmd_fleet_run(args: &[String]) -> Result<(), String> {
    let cycles = parse_flag_value(args, "--cycles", 5_000_000)?;
    let (mut fleet, _verifier) = build_fleet(args)?;
    println!(
        "fleet of {} devices across {} firmware cohorts",
        fleet.len(),
        fleet.cohort_ids().len()
    );
    let report = fleet.run_slice(cycles);
    println!(
        "run slice ({cycles} cycles): {} completed, {} running, {} violation resets, {} faults",
        report.completed, report.running, report.violations, report.faults
    );
    Ok(())
}

/// Parses `--gateway ADDR` into a socket address, if present.
fn parse_gateway(args: &[String]) -> Result<Option<std::net::SocketAddr>, String> {
    match parse_flag_string(args, "--gateway")? {
        Some(addr) => addr
            .parse()
            .map(Some)
            .map_err(|e| format!("invalid --gateway `{addr}`: {e}")),
        None => Ok(None),
    }
}

/// Parses `--gateways A,B,..` into a cluster address list, if present.
fn parse_gateways(args: &[String]) -> Result<Option<Vec<std::net::SocketAddr>>, String> {
    let Some(list) = parse_flag_string(args, "--gateways")? else {
        return Ok(None);
    };
    let addrs = list
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.parse()
                .map_err(|e| format!("invalid --gateways entry `{part}`: {e}"))
        })
        .collect::<Result<Vec<std::net::SocketAddr>, String>>()?;
    if addrs.is_empty() {
        return Err("--gateways needs at least one HOST:PORT".to_string());
    }
    Ok(Some(addrs))
}

/// Runs `scenario` against the requested operator-plane backend: the
/// in-process `LocalOps` by default; with `--gateway ADDR` a
/// `RemoteOps` console against that gateway; with `--gateways A,B,..`
/// a fan-out `ClusterOps` console over every listed gateway, with this
/// process's fleet devices placed shard-wise across them. This is the
/// whole point of the unified `FleetOps` surface: the scenario code
/// cannot tell the backends apart.
fn with_fleet_ops<R: Send>(
    args: &[String],
    scenario: impl Fn(&mut dyn FleetOps) -> Result<R, String> + Sync,
) -> Result<R, String> {
    let gateway = parse_gateway(args)?;
    let cluster = parse_gateways(args)?;
    if gateway.is_some() && cluster.is_some() {
        return Err("--gateway and --gateways are mutually exclusive".to_string());
    }
    let (mut fleet, mut verifier) = build_fleet(args)?;
    if let Some(addrs) = cluster {
        let agents = parse_flag_value(args, "--clients", 4)?.max(1) as usize;
        println!(
            "driving the operator plane of a {}-gateway cluster ({} local devices placed \
             shard-wise, {agents} agent connections per gateway)",
            addrs.len(),
            fleet.len(),
        );
        return eilid_net::cluster::with_placed_fleet(&mut fleet, &addrs, agents, || {
            let mut ops = eilid_net::ClusterOps::connect(&addrs).map_err(|e| e.to_string())?;
            // The demo root key is shared knowledge, so the console can
            // always verify aggregate roots (`fleet attest --aggregated`).
            ops.set_agg_root_key(FLEET_DEMO_ROOT);
            scenario(&mut ops)
        })
        .map_err(|e| format!("device agents failed: {e}"))?;
    }
    match gateway {
        None => scenario(&mut LocalOps::new(&mut fleet, &mut verifier)),
        Some(addr) => {
            let agents = parse_flag_value(args, "--clients", 4)?.max(1) as usize;
            println!(
                "driving the operator plane of {addr} ({} local devices attached over {agents} agent connections)",
                fleet.len()
            );
            eilid_net::with_attached_fleet(&mut fleet, agents, addr, || {
                let mut ops = eilid_net::RemoteOps::connect(addr).map_err(|e| e.to_string())?;
                ops.set_agg_root_key(FLEET_DEMO_ROOT);
                scenario(&mut ops)
            })
            .map_err(|e| format!("device agents failed: {e}"))?
        }
    }
}

fn print_sweep(summary: &SweepSummary, elapsed: std::time::Duration) {
    use eilid_fleet::HealthClass;
    println!(
        "attestation sweep: {} devices in {:.3}s ({:.0} devices/s)",
        summary.devices,
        elapsed.as_secs_f64(),
        summary.devices as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    for class in [
        HealthClass::Attested,
        HealthClass::Stale,
        HealthClass::Tampered,
        HealthClass::Unverified,
    ] {
        let count = summary.count(class);
        if count > 0 {
            println!("  {class:<10} {count}");
        }
    }
    if !summary.flagged.is_empty() {
        println!("  flagged: {:?}", summary.flagged);
    }
}

fn cmd_fleet_attest(args: &[String]) -> Result<(), String> {
    let sweeps = parse_flag_value(args, "--sweeps", 1)?.max(1);
    let aggregated = args.iter().any(|a| a == "--aggregated");
    with_fleet_ops(args, |ops| {
        // With `--sweeps N` the later sweeps show the steady-state cost:
        // warm verifier key caches and cache-served device roots.
        if aggregated {
            let mut last = None;
            for _ in 0..sweeps {
                let start = Instant::now();
                let agg = ops.sweep_aggregated().map_err(|e| e.to_string())?;
                last = Some((agg, start.elapsed()));
            }
            let (agg, elapsed) = last.expect("at least one sweep ran");
            print_sweep(&agg.summary, elapsed);
            println!(
                "  aggregated: {} shard roots verified (cap {}), {}/{} verdicts \
                 short-circuited, epoch {}",
                agg.roots_verified,
                eilid_fleet::SHARD_COUNT,
                agg.short_circuited,
                agg.summary.devices,
                agg.epoch,
            );
            let hex: String = agg.fleet_root.iter().map(|b| format!("{b:02x}")).collect();
            println!("  fleet root: {hex}");
        } else {
            let mut last = None;
            for _ in 0..sweeps {
                let start = Instant::now();
                let summary = ops.sweep().map_err(|e| e.to_string())?;
                last = Some((summary, start.elapsed()));
            }
            let (summary, elapsed) = last.expect("at least one sweep ran");
            print_sweep(&summary, elapsed);
        }
        if sweeps > 1 {
            println!("  (sweep {sweeps} of {sweeps}; verifier key caches warm)");
        }
        Ok(())
    })
}

fn print_campaign(report: &CampaignReport) {
    for wave in &report.waves {
        println!(
            "wave {} ({} devices): {} updated, {} failed post-update probes",
            wave.wave, wave.size, wave.updated, wave.failures
        );
    }
    match report.outcome {
        CampaignOutcome::Completed { updated } => {
            println!("campaign completed: {updated} devices on the new firmware");
        }
        CampaignOutcome::HaltedAndRolledBack {
            wave,
            failure_rate,
            rolled_back,
        } => {
            println!(
                "campaign HALTED at wave {wave} (failure rate {:.0}%); {rolled_back} devices rolled back",
                failure_rate * 100.0
            );
        }
    }
    if !report.quarantined.is_empty() {
        println!(
            "quarantined (probe failed, rolled back): {:?}",
            report.quarantined
        );
    }
    if !report.rollback_incomplete.is_empty() {
        println!(
            "ROLLBACK INCOMPLETE — operator attention needed: {:?}",
            report.rollback_incomplete
        );
    }
}

fn cmd_fleet_campaign(args: &[String]) -> Result<(), String> {
    let inject_bad = args.iter().any(|a| a == "--inject-bad");

    let cohort = WorkloadId::LightSensor;
    let (target, payload): (u16, Vec<u8>) = if inject_bad {
        // A patch whose first instruction writes PMEM: the canary wave's
        // monitors catch it and the campaign rolls back.
        (
            eilid_fleet::fixtures::BRICKING_PATCH_TARGET,
            eilid_fleet::fixtures::bricking_patch(),
        )
    } else {
        // A benign data patch in the unused PMEM gap below the trampolines.
        (
            eilid_fleet::fixtures::BENIGN_PATCH_TARGET,
            eilid_fleet::fixtures::benign_patch(),
        )
    };

    println!(
        "staged campaign for {cohort}: {} bytes at {target:#06x}{}",
        payload.len(),
        if inject_bad {
            " (deliberately bad)"
        } else {
            ""
        }
    );
    let config = CampaignConfig::new(cohort, target, payload);
    with_fleet_ops(args, |ops| {
        let report = ops.run_campaign(&config).map_err(|e| e.to_string())?;
        print_campaign(&report);
        let start = Instant::now();
        let sweep = ops.sweep().map_err(|e| e.to_string())?;
        println!("post-campaign:");
        print_sweep(&sweep, start.elapsed());
        Ok(())
    })
}
