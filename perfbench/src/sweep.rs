//! `sweep`: one `FleetOps::sweep` over loopback TCP per op.
//!
//! The fleet holds every cohort behind one gateway and one device
//! agent. Before each op (untimed) a seeded ~1% of devices take a
//! same-value PMEM write, so their measurer re-hashes one granule. A
//! fixed seeded set of devices carries a flipped PMEM byte and must come
//! back `Tampered`; every other device must come back `Attested`.

use std::hint::black_box;
use std::time::Instant;

use eilid_casu::{AttestationReport, Challenge};
use eilid_fleet::{DeviceId, Fleet, FleetOps, HealthClass, SweepSummary, Verifier};
use eilid_net::{
    AttestationService, DeviceAgent, Frame, FrameDecoder, GatewayHandle, ProbeMode, RemoteOps,
    TcpTransport, VerifyTask,
};
use eilid_obs::RegistrySnapshot;
use eilid_workloads::WorkloadId;

use crate::common::{end_to_end, median, ms, timed, us, Outcome, Rng, Scale};
use crate::plane;

/// Seed stream of this workload's inputs.
const STREAM: u64 = 1;

/// Nonce span reserved for one gateway (far more than a run issues).
const NONCE_SPAN: u64 = 1 << 40;

/// Reports the gateway coalesces into one verification batch (its
/// default `batch_max`); the verify replay batches the same way.
const VERIFY_BATCH: usize = 64;

/// Everything one measured sweep session needs.
struct Session {
    fleet: Fleet,
    verifier: Verifier,
    handle: GatewayHandle,
    agent: DeviceAgent<TcpTransport>,
    console: RemoteOps<TcpTransport>,
    /// Devices carrying a flipped PMEM byte, ascending.
    tampered: Vec<DeviceId>,
    /// First and last PMEM address (inclusive).
    pmem: (u16, u16),
}

/// The per-op input: which devices get a same-value write, and where.
type Dirt = Vec<(usize, u16)>;

fn setup(seed: u64, scale: Scale) -> Session {
    let mut rng = Rng::new(seed, STREAM);
    let (mut fleet, mut verifier) = plane::build_fleet(scale.sweep_devices, &WorkloadId::ALL);
    let pmem = {
        let layout = fleet.devices()[0].device().layout();
        (*layout.pmem.start(), *layout.pmem.end())
    };
    let mut tampered = Vec::new();
    for index in rng.distinct(scale.sweep_tampered, fleet.len()) {
        let addr = pick_addr(&mut rng, pmem);
        let device = &mut fleet.devices_mut()[index];
        let memory = &mut device.device_mut().cpu_mut().memory;
        let value = memory.read_byte(addr);
        memory.write_byte(addr, value ^ 0xA5);
        tampered.push(device.id());
    }
    let handle = plane::spawn_gateway(verifier.service_snapshot(NONCE_SPAN));
    let mut agent = plane::attach_agent(handle.addr(), &fleet);
    let mut console = plane::connect_console(handle.addr());
    // Warm-up: key caches, Merkle roots, connection buffers.
    for _ in 0..2 {
        let (summary, served) = plane::serve_during(&mut agent, &mut fleet, || console.sweep());
        served.expect("agent serves the warm-up sweep");
        check(
            &summary.expect("warm-up sweep succeeds"),
            fleet.len(),
            &tampered,
        )
        .expect("warm-up sweep classifies the fleet");
    }
    // The in-process floor's own warm-up (key derivation, Merkle roots).
    verifier.sweep(&mut fleet);
    Session {
        fleet,
        verifier,
        handle,
        agent,
        console,
        tampered,
        pmem,
    }
}

fn pick_addr(rng: &mut Rng, (start, end): (u16, u16)) -> u16 {
    start + rng.below(usize::from(end - start) + 1) as u16
}

fn draw_dirt(rng: &mut Rng, session: &Session) -> Dirt {
    let count = session.fleet.len().div_ceil(100);
    rng.distinct(count, session.fleet.len())
        .into_iter()
        .map(|index| (index, pick_addr(rng, session.pmem)))
        .collect()
}

fn apply_dirt(fleet: &mut Fleet, dirt: &Dirt) {
    for &(index, addr) in dirt {
        let memory = &mut fleet.devices_mut()[index].device_mut().cpu_mut().memory;
        let value = memory.read_byte(addr);
        memory.write_byte(addr, value);
    }
}

/// The op's correctness oracle: exactly the tampered set is flagged,
/// as `Tampered`, and everyone else is `Attested`.
fn check(summary: &SweepSummary, devices: usize, tampered: &[DeviceId]) -> Result<(), String> {
    let expected: Vec<(DeviceId, HealthClass)> = tampered
        .iter()
        .map(|&id| (id, HealthClass::Tampered))
        .collect();
    if summary.devices != devices
        || summary.flagged != expected
        || summary.count(HealthClass::Attested) != devices - tampered.len()
    {
        return Err(format!(
            "sweep: {} devices, counts {:?}, {} flagged (expected {} tampered)",
            summary.devices,
            summary.counts,
            summary.flagged.len(),
            tampered.len()
        ));
    }
    Ok(())
}

/// One closed-loop op: the wire sweep, timed from the call to its
/// result.
fn op(session: &mut Session) -> (Result<(), String>, f64) {
    let Session {
        fleet,
        agent,
        console,
        tampered,
        ..
    } = session;
    let ((summary, elapsed), served) =
        plane::serve_during(agent, fleet, || timed(|| console.sweep()));
    let verdict = match (summary, served) {
        (Ok(summary), Ok(())) => check(&summary, fleet.len(), tampered),
        (Err(err), _) => Err(format!("sweep: {err}")),
        (_, Err(err)) => Err(format!("sweep agent: {err}")),
    };
    (verdict, ms(elapsed))
}

/// Runs `ops` sweeps and reports the end-to-end metrics.
pub fn run(seed: u64, ops: usize, scale: Scale) -> Outcome {
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..scale.setups.max(1) {
        // A dropped handle leaves its gateway's threads running; shut
        // each discarded set-up down before the next is timed.
        if let Some(discarded) = session.take() {
            finish(discarded);
        }
        let (built, elapsed) = timed(|| setup(seed, scale));
        setup_s.push(elapsed.as_secs_f64());
        session = Some(built);
    }
    let mut session = session.expect("at least one set-up ran");
    let mut rng = Rng::new(seed, STREAM + 100);
    let mut out = Outcome::default();
    let mut op_ms = Vec::with_capacity(ops);
    for _ in 0..ops {
        let dirt = draw_dirt(&mut rng, &session);
        apply_dirt(&mut session.fleet, &dirt);
        let (verdict, elapsed) = op(&mut session);
        out.check(verdict);
        op_ms.push(elapsed);
    }
    let devices = session.fleet.len() as f64;
    end_to_end(&mut out, &op_ms, devices * ops as f64, &setup_s);
    finish(session);
    out
}

fn finish(session: Session) {
    drop(session.console);
    drop(session.agent);
    session.handle.shutdown().expect("gateway shuts down");
}

/// Per-op counters the program exports, read around a traced op.
struct Counters {
    metrics: RegistrySnapshot,
    verified: u64,
    leaves: u64,
}

impl Counters {
    fn read(session: &Session) -> Self {
        Counters {
            metrics: session.handle.metrics_snapshot(),
            verified: session.handle.service().stats().reports_verified(),
            leaves: session
                .fleet
                .devices()
                .iter()
                .filter_map(|device| device.measurer_stats())
                .map(|stats| stats.leaves_rehashed)
                .sum(),
        }
    }
}

fn counter(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

/// Growth of histogram `name` between two snapshots, as
/// `(observations, sum)`.
fn hist_growth(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> (u64, u64) {
    let read = |snapshot: &RegistrySnapshot| {
        snapshot
            .histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let ((count0, sum0), (count1, sum1)) = (read(before), read(after));
    (count1 - count0, sum1 - sum0)
}

/// Attests every device once against `nonce`-based challenges; the
/// reports feed the verify and codec replays.
fn replay_attest(
    fleet: &mut Fleet,
    nonce: u64,
) -> (
    Vec<(DeviceId, WorkloadId, Challenge, AttestationReport)>,
    f64,
) {
    let mut reports = Vec::with_capacity(fleet.len());
    let start = Instant::now();
    for device in fleet.devices_mut() {
        let layout = device.device().layout();
        let challenge = Challenge {
            nonce: nonce + device.id(),
            start: *layout.pmem.start(),
            end: *layout.pmem.end(),
        };
        let report = device.attest(challenge);
        reports.push((device.id(), device.cohort(), challenge, report));
    }
    let elapsed = start.elapsed();
    (reports, us(elapsed))
}

/// Verifies `reports` in per-shard batches, as the gateway does.
/// Returns the elapsed µs and the number classified `Tampered`.
fn replay_verify(
    service: &AttestationService,
    reports: &[(DeviceId, WorkloadId, Challenge, AttestationReport)],
) -> (f64, usize) {
    let mut tasks: Vec<VerifyTask> = reports
        .iter()
        .map(|&(device, cohort, issued, report)| VerifyTask {
            device,
            cohort,
            issued,
            report,
        })
        .collect();
    tasks.sort_by_key(|task| task.device % eilid_fleet::SHARD_COUNT as u64);
    let mut tampered = 0;
    let start = Instant::now();
    for batch in tasks.chunks(VERIFY_BATCH) {
        for (class, _) in service.verify_batch(batch) {
            tampered += usize::from(class == HealthClass::Tampered);
        }
    }
    (us(start.elapsed()), tampered)
}

/// Encodes and decodes one probe request/result pair per report.
fn replay_codec(reports: &[(DeviceId, WorkloadId, Challenge, AttestationReport)]) -> f64 {
    let mut buf = Vec::with_capacity(256);
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    let start = Instant::now();
    for &(device, _, challenge, report) in reports {
        Frame::ProbeRequest {
            device,
            mode: ProbeMode::AttestOnly,
            smoke_cycles: 0,
            challenge,
        }
        .encode_into(&mut buf);
        Frame::ProbeResult {
            device,
            healthy: 1,
            report,
        }
        .encode_into(&mut buf);
        decoder.extend(&buf);
        buf.clear();
        while let Ok(Some(frame)) = decoder.next_frame() {
            black_box(frame);
            decoded += 1;
        }
    }
    let elapsed = us(start.elapsed());
    assert_eq!(decoded, 2 * reports.len(), "codec replay round-trips");
    elapsed
}

/// The traced run: `ops` untraced and `ops` traced sweeps, alternating,
/// with each traced op's layers replayed on the op's own inputs.
pub fn trace(seed: u64, ops: usize, scale: Scale) -> Outcome {
    let mut session = setup(seed, scale);
    let replay_service = AttestationService::new(session.verifier.service_snapshot(NONCE_SPAN));
    let mut replay_nonce = 1u64 << 50;
    {
        // Warm the replay service's key cache as the gateway's is.
        let (reports, _) = replay_attest(&mut session.fleet, replay_nonce);
        replay_nonce += session.fleet.len() as u64;
        replay_verify(&replay_service, &reports);
    }
    let devices = session.fleet.len() as f64;
    let mut rng = Rng::new(seed, STREAM + 100);
    let mut out = Outcome::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut rows: Vec<[f64; 10]> = Vec::new();
    let mut exact_verified = 0u64;
    let mut exact_leaves = 0u64;
    for _ in 0..ops {
        let dirt = draw_dirt(&mut rng, &session);
        apply_dirt(&mut session.fleet, &dirt);
        let (verdict, elapsed) = op(&mut session);
        out.check(verdict);
        plain_ms.push(elapsed);

        let dirt = draw_dirt(&mut rng, &session);
        apply_dirt(&mut session.fleet, &dirt);
        let before = Counters::read(&session);
        let (verdict, elapsed) = op(&mut session);
        let after = Counters::read(&session);
        traced_ms.push(elapsed);

        let (_, pass_us) = hist_growth(&before.metrics, &after.metrics, "eilid_gateway_pass_us");
        let (wakes, frames) = hist_growth(
            &before.metrics,
            &after.metrics,
            "eilid_gateway_frames_per_wake",
        );
        let busy = counter(&after.metrics, "eilid_gateway_busy_rejections_total")
            - counter(&before.metrics, "eilid_gateway_busy_rejections_total");
        let verified = after.verified - before.verified;
        let leaves = after.leaves - before.leaves;
        exact_verified += verified;
        exact_leaves += leaves;

        // Replays on the op's inputs: the same devices re-dirtied. Their
        // verdicts must agree with the op's.
        apply_dirt(&mut session.fleet, &dirt);
        let (reports, attest_us) = replay_attest(&mut session.fleet, replay_nonce);
        replay_nonce += session.fleet.len() as u64;
        let (verify_us, replay_tampered) = replay_verify(&replay_service, &reports);
        let codec_us = replay_codec(&reports);
        apply_dirt(&mut session.fleet, &dirt);
        let (report, floor) = timed(|| session.verifier.sweep(&mut session.fleet));
        let tampered = session.tampered.len();
        out.check(verdict.and_then(|()| {
            if report.count(HealthClass::Tampered) == tampered && replay_tampered == tampered {
                Ok(())
            } else {
                Err("sweep replay: tampered count differs from the op's".to_string())
            }
        }));
        let layered = attest_us + verify_us + codec_us;
        rows.push([
            attest_us / devices,
            leaves as f64,
            codec_us / devices,
            verify_us / devices,
            us(floor) / devices,
            pass_us as f64 / devices,
            frames as f64 / wakes.max(1) as f64,
            busy as f64,
            verified as f64 / devices,
            1.0 - layered / (elapsed * 1e3),
        ]);
    }
    let column = |i: usize| median(&rows.iter().map(|row| row[i]).collect::<Vec<_>>());
    out.put("fleet.device.attest_us", column(0), "us");
    out.put("casu.merkle.rehashed_leaves", column(1), "count");
    out.put("net.wire.codec_us", column(2), "us");
    out.put("net.service.verify_us", column(3), "us");
    out.put("fleet.verifier.sweep_us", column(4), "us");
    out.put("net.gateway.pass_us", column(5), "us");
    out.put("net.gateway.frames_per_wake", column(6), "count");
    out.put("net.gateway.busy_rejections", column(7), "count");
    out.put("net.service.verified_ratio", column(8), "ratio");
    out.put("sweep.unaccounted_share", column(9), "share");
    out.put(
        "sweep.tracing_overhead",
        median(&traced_ms) / median(&plain_ms) - 1.0,
        "share",
    );
    out.exact
        .insert("sweep.reports_verified".into(), exact_verified);
    out.exact
        .insert("sweep.rehashed_leaves".into(), exact_leaves);
    finish(session);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_correct_and_repeats() {
        let scale = Scale::tiny();
        let a = trace(11, 3, scale);
        let b = trace(11, 3, scale);
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.attempted, 6);
        assert_eq!(a.exact, b.exact);
        assert_eq!(
            a.exact["sweep.reports_verified"],
            3 * scale.sweep_devices as u64
        );
        let plain = run(11, 2, scale);
        assert_eq!(plain.failed, 0, "{:?}", plain.failures);
        assert!(plain.metrics["op_ms_p50"].value > 0.0);
    }

    #[test]
    fn seed_changes_the_inputs() {
        let scale = Scale::tiny();
        let a = setup(1, scale);
        let b = setup(2, scale);
        assert_ne!(a.tampered, b.tampered);
        let mut ra = Rng::new(1, STREAM + 100);
        let mut rb = Rng::new(2, STREAM + 100);
        assert_ne!(draw_dirt(&mut ra, &a), draw_dirt(&mut rb, &b));
        finish(a);
        finish(b);
    }
}
