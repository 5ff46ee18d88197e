//! `rollout`: one staged canary (10%) → full campaign per op, driven
//! through `RemoteOps` on a single-cohort LightSensor fleet.
//!
//! Before each op (untimed) the benchmark binds a fresh gateway and
//! attaches the fleet — a gateway keeps a finished campaign in its
//! cohort slot and refuses the next `OpBegin` — and gives a seeded ~1%
//! of devices a diverged byte inside the patch range. Each op writes a
//! fresh seeded 8-byte change inside a 256-byte image of the unused PMEM
//! gap at `fixtures::BENIGN_PATCH_TARGET`, at version = op number. The
//! image is large enough that the engine ships in-sync devices a sparse
//! delta; the diverged devices fail the delta MAC and take the
//! full-image fallback, so every op has the same share leaving the fast
//! path.
//!
//! `rollout` is not a listed workload: its ten-run spreads exceeded the
//! benchmark's bounds. Only its traced ledger runs, inside every
//! `--trace 1` run.

use std::hint::black_box;
use std::time::Instant;

use eilid_casu::{
    AttestationReport, Challenge, DeltaUpdateRequest, UpdateAuthority, DELTA_GRANULE,
};
use eilid_fleet::fixtures::BENIGN_PATCH_TARGET;
use eilid_fleet::{
    CampaignConfig, CampaignOutcome, CampaignReport, CampaignStatus, CohortSnapshot, Fleet,
    FleetOps, SimDevice, Verifier,
};
use eilid_net::{Frame, FrameDecoder, ProbeMode, RemoteOps, TcpTransport};
use eilid_obs::RegistrySnapshot;
use eilid_workloads::WorkloadId;

use crate::common::{median, ms, timed, us, Outcome, Rng, Scale};
use crate::plane;

const STREAM: u64 = 2;
const COHORT: WorkloadId = WorkloadId::LightSensor;
/// Bytes of the patch image (the unused PMEM gap `0xF600..0xF700`).
const IMAGE_LEN: usize = 256;
/// Fresh bytes each op writes inside the image.
const CHANGED: usize = 8;
/// Nonce span reserved per gateway.
const NONCE_SPAN: u64 = 1 << 24;
/// Replays per traced op of the per-device update path.
const REPLAYS: usize = 32;

struct Session {
    fleet: Fleet,
    verifier: Verifier,
    /// The cohort's golden state as a gateway would hold it after every
    /// campaign so far (a fresh gateway starts from the verifier's
    /// enrolment snapshot, so the benchmark carries promotions over).
    cohort: CohortSnapshot,
    version: u64,
    /// Op 0's report and counters, which every later op must repeat.
    reference: Option<Counts>,
}

/// What an op must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    report: CampaignReport,
    probes_executed: u64,
    probes_memoized: u64,
    bytes_full: u64,
    bytes_wire: u64,
}

/// One op's inputs.
struct Plan {
    config: CampaignConfig,
    /// Fleet indices of the devices given a diverged byte.
    diverged: Vec<usize>,
}

/// What one op measured.
struct OpResult {
    verdict: Result<(), String>,
    op_ms: f64,
    bringup_ms: f64,
    /// `campaign_begin`, first and second `campaign_step` (traced ops).
    spans: [f64; 3],
    metrics: RegistrySnapshot,
}

fn counter(snapshot: &RegistrySnapshot, name: &str) -> u64 {
    snapshot.counters.get(name).copied().unwrap_or(0)
}

fn hist_mean(snapshot: &RegistrySnapshot, name: &str) -> f64 {
    snapshot
        .histograms
        .get(name)
        .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64)
}

fn setup(seed: u64, scale: Scale) -> Session {
    let (fleet, mut verifier) = plane::build_fleet(scale.rollout_devices, &[COHORT]);
    let cohort = verifier
        .service_snapshot(0)
        .cohorts
        .remove(&COHORT)
        .expect("the fleet enrols its cohort");
    let mut session = Session {
        fleet,
        verifier,
        cohort,
        version: 0,
        reference: None,
    };
    // Warm-up: op 0, whose report and counters are the reference.
    let mut rng = Rng::new(seed, STREAM);
    let plan = draw_plan(&mut rng, &mut session);
    let result = op(&mut session, &plan, false);
    result.verdict.expect("warm-up campaign completes");
    session
}

fn draw_plan(rng: &mut Rng, session: &mut Session) -> Plan {
    session.version += 1;
    let granules = IMAGE_LEN / DELTA_GRANULE;
    // The change sits in one granule; each diverged byte sits in
    // another, so no delta segment covers it and every diverged device
    // takes the fallback.
    let changed = rng.below(granules);
    let mut payload = session.cohort.golden.slice(range()).to_vec();
    let offset = changed * DELTA_GRANULE + rng.below(DELTA_GRANULE - CHANGED);
    let before = payload.clone();
    for byte in &mut payload[offset..offset + CHANGED] {
        *byte = rng.next_u64() as u8;
    }
    if payload == before {
        payload[offset] ^= 1;
    }
    let diverged = rng.distinct(session.fleet.len().div_ceil(100), session.fleet.len());
    for &index in &diverged {
        let granule = (changed + 1 + rng.below(granules - 1)) % granules;
        let addr =
            BENIGN_PATCH_TARGET + (granule * DELTA_GRANULE + rng.below(DELTA_GRANULE)) as u16;
        let memory = &mut session.fleet.devices_mut()[index]
            .device_mut()
            .cpu_mut()
            .memory;
        let value = memory.read_byte(addr);
        memory.write_byte(addr, value ^ 0x5A);
    }
    let mut config = CampaignConfig::new(COHORT, BENIGN_PATCH_TARGET, payload);
    config.version = session.version;
    Plan { config, diverged }
}

/// Runs the campaign through the lifecycle calls one by one, timing
/// each (the traced op).
fn spanned_campaign(
    console: &mut RemoteOps<TcpTransport>,
    config: &CampaignConfig,
) -> Result<(CampaignReport, [f64; 3]), eilid_fleet::OpsError> {
    let mut spans = [0.0; 3];
    let (begun, elapsed) = timed(|| console.campaign_begin(config));
    begun?;
    spans[0] = ms(elapsed);
    let mut wave = 0;
    loop {
        let (status, elapsed) = timed(|| console.campaign_step());
        if let Some(span) = spans.get_mut(1 + wave) {
            *span = ms(elapsed);
        }
        wave += 1;
        if status? == CampaignStatus::Finished {
            break;
        }
    }
    Ok((console.campaign_report()?, spans))
}

/// One closed-loop op: bring-up (untimed), the campaign (timed), then
/// the correctness oracle and the golden promotion.
fn op(session: &mut Session, plan: &Plan, traced: bool) -> OpResult {
    let bring = Instant::now();
    let mut snapshot = session.verifier.service_snapshot(NONCE_SPAN);
    snapshot.cohorts.insert(COHORT, session.cohort.clone());
    let handle = plane::spawn_gateway(snapshot);
    let mut agent = plane::attach_agent(handle.addr(), &session.fleet);
    let mut console = plane::connect_console(handle.addr());
    let bringup_ms = ms(bring.elapsed());

    let config = &plan.config;
    let ((campaign, op_ms), served) = plane::serve_during(&mut agent, &mut session.fleet, || {
        let start = Instant::now();
        let campaign = if traced {
            spanned_campaign(&mut console, config)
        } else {
            console
                .run_campaign(config)
                .map(|report| (report, [0.0; 3]))
        };
        (campaign, ms(start.elapsed()))
    });
    let metrics = handle.metrics_snapshot();
    drop(console);
    drop(agent);
    handle.shutdown().expect("gateway shuts down");

    let (verdict, spans) = match (campaign, served) {
        (Ok((report, spans)), Ok(())) => {
            let counts = Counts {
                report,
                probes_executed: counter(&metrics, "eilid_ops_probes_executed_total"),
                probes_memoized: counter(&metrics, "eilid_ops_probes_memoized_total"),
                bytes_full: counter(&metrics, "eilid_ops_update_bytes_full_total"),
                bytes_wire: counter(&metrics, "eilid_ops_update_bytes_wire_total"),
            };
            let completed = counts.report.outcome
                == (CampaignOutcome::Completed {
                    updated: session.fleet.len(),
                });
            let verdict = check(session, plan, counts);
            if completed {
                promote(session, &plan.config.payload);
            }
            (verdict, spans)
        }
        (Err(err), _) => (Err(format!("rollout: {err}")), [0.0; 3]),
        (_, Err(err)) => (Err(format!("rollout agent: {err}")), [0.0; 3]),
    };
    OpResult {
        verdict,
        op_ms,
        bringup_ms,
        spans,
        metrics,
    }
}

/// The op's correctness oracle: every device updated, and the report,
/// probe counts and update-bytes ratio equal op 0's.
fn check(session: &mut Session, plan: &Plan, counts: Counts) -> Result<(), String> {
    let devices = session.fleet.len();
    if counts.report.outcome != (CampaignOutcome::Completed { updated: devices }) {
        return Err(format!("rollout outcome {:?}", counts.report.outcome));
    }
    let updated = session.fleet.devices().iter().all(|device| {
        device.device().cpu().memory.slice(range()) == plan.config.payload.as_slice()
    });
    if !updated {
        return Err("rollout: a device does not hold the new image".into());
    }
    match &session.reference {
        None => {
            session.reference = Some(counts);
            Ok(())
        }
        Some(reference) if *reference == counts => Ok(()),
        Some(reference) => Err(format!(
            "rollout differs from op 0: probes {}/{} vs {}/{}, bytes {}/{} vs {}/{}",
            counts.probes_executed,
            counts.probes_memoized,
            reference.probes_executed,
            reference.probes_memoized,
            counts.bytes_wire,
            counts.bytes_full,
            reference.bytes_wire,
            reference.bytes_full
        )),
    }
}

fn range() -> std::ops::Range<usize> {
    let start = usize::from(BENIGN_PATCH_TARGET);
    start..start + IMAGE_LEN
}

/// Carries the campaign's golden promotion over to the next gateway,
/// as the gateway that ran it did.
fn promote(session: &mut Session, payload: &[u8]) {
    let cohort = &mut session.cohort;
    cohort
        .golden
        .load(BENIGN_PATCH_TARGET, payload)
        .expect("patch image fits PMEM");
    let measurement = session
        .fleet
        .scheme()
        .measure_pmem(&cohort.golden, &cohort.layout);
    // Only the previous image stays "stale but authentic": keeping the
    // whole history would make later ops classify against a longer list.
    cohort.previous = vec![cohort.current];
    cohort.current = measurement;
}

/// Encodes and decodes the three request/reply pairs one device's
/// rollout exchanges.
fn codec_pairs(
    device: &SimDevice,
    delta: &DeltaUpdateRequest,
    challenge: Challenge,
    report: AttestationReport,
) -> usize {
    let id = device.id();
    let frames = [
        Frame::SnapshotRequest {
            device: id,
            start: BENIGN_PATCH_TARGET,
            len: IMAGE_LEN as u16,
        },
        Frame::SnapshotReport {
            device: id,
            last_nonce: 1,
            version: 1,
            measurement: report.measurement,
            data: device.device().cpu().memory.slice(range()).to_vec(),
        },
        Frame::DeltaUpdateRequest {
            device: id,
            request: delta.clone(),
        },
        Frame::UpdateResult {
            device: id,
            status: 0,
        },
        Frame::ProbeRequest {
            device: id,
            mode: ProbeMode::UpdateAttest,
            smoke_cycles: 2_000_000,
            challenge,
        },
        Frame::ProbeResult {
            device: id,
            healthy: 2,
            report,
        },
    ];
    let mut buf = Vec::with_capacity(1024);
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0;
    for frame in &frames {
        frame.encode_into(&mut buf);
        decoder.extend(&buf);
        buf.clear();
        while let Ok(Some(frame)) = decoder.next_frame() {
            black_box(frame);
            decoded += 1;
        }
    }
    decoded
}

/// Replays one device's update path on `plan`'s inputs: authorise,
/// apply the delta, attest, reboot, smoke-run, and the frames around
/// them. Returns per-device µs for each, smoke in ms.
fn replay(session: &Session, plan: &Plan, template: &SimDevice) -> [f64; 6] {
    let config = &plan.config;
    let key = session.verifier.device_key(template.id());
    let base = template.device().cpu().memory.slice(range()).to_vec();
    let last_nonce = template.engine().last_nonce();
    let layout = template.device().layout().clone();
    let challenge = Challenge {
        nonce: 1 << 40,
        start: *layout.pmem.start(),
        end: *layout.pmem.end(),
    };
    let mut authorize = 0.0;
    let mut apply = 0.0;
    let mut attest = 0.0;
    let mut reboot = 0.0;
    let mut smoke = 0.0;
    let mut codec = 0.0;
    for _ in 0..REPLAYS {
        let mut authority =
            UpdateAuthority::with_key_resuming(&key, last_nonce + 1).with_version(config.version);
        let (request, elapsed) = timed(|| authority.authorize(config.target, &config.payload));
        authorize += us(elapsed);
        let delta = DeltaUpdateRequest::from_full(&request, &base);
        let mut device = template.clone();
        let (applied, elapsed) = timed(|| device.apply_delta_update(&delta));
        applied.expect("replayed delta applies to an in-sync device");
        apply += us(elapsed);
        let (report, elapsed) = timed(|| device.attest(challenge));
        attest += us(elapsed);
        let ((), elapsed) = timed(|| device.reboot());
        reboot += us(elapsed);
        let (outcome, elapsed) = timed(|| device.run_slice(config.smoke_cycles));
        assert!(outcome.is_completed(), "replayed smoke run completes");
        smoke += ms(elapsed);
        let (decoded, elapsed) = timed(|| codec_pairs(template, &delta, challenge, report));
        assert_eq!(decoded, 6, "codec replay round-trips");
        codec += us(elapsed);
    }
    let n = REPLAYS as f64;
    [
        authorize / n,
        apply / n,
        attest / n,
        reboot / n,
        smoke / n,
        codec / n,
    ]
}

/// The traced run: `ops` untraced and `ops` traced campaigns,
/// alternating, each traced op followed by replays on its inputs.
pub fn trace(seed: u64, ops: usize, scale: Scale) -> Outcome {
    let mut session = setup(seed, scale);
    let mut rng = Rng::new(seed, STREAM + 100);
    let mut out = Outcome::default();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut exact = [0u64; 4];
    let devices = session.fleet.len() as f64;
    for _ in 0..ops {
        let plan = draw_plan(&mut rng, &mut session);
        let result = op(&mut session, &plan, false);
        out.check(result.verdict);
        plain_ms.push(result.op_ms);

        let plan = draw_plan(&mut rng, &mut session);
        // An in-sync device in its pre-update state, for the replays.
        let template = (0..session.fleet.len())
            .find(|index| !plan.diverged.contains(index))
            .map(|index| session.fleet.devices()[index].clone())
            .expect("most devices are in sync");
        let result = op(&mut session, &plan, true);
        out.check(result.verdict);
        traced_ms.push(result.op_ms);
        let m = &result.metrics;
        let executed = counter(m, "eilid_ops_probes_executed_total");
        let memoized = counter(m, "eilid_ops_probes_memoized_total");
        let full = counter(m, "eilid_ops_update_bytes_full_total");
        let wire = counter(m, "eilid_ops_update_bytes_wire_total");
        let retries = counter(m, "eilid_ops_busy_retries_total");
        for (slot, value) in exact.iter_mut().zip([executed, memoized, full, wire]) {
            *slot += value;
        }
        let [authorize, apply, attest, reboot, smoke_ms, codec] =
            replay(&session, &plan, &template);
        let layered_us = devices * (authorize + apply + attest + reboot + codec)
            + executed as f64 * smoke_ms * 1e3;
        rows.push(vec![
            result.spans[0],
            result.spans[1],
            result.spans[2],
            hist_mean(m, "eilid_ops_phase_snapshot_us"),
            hist_mean(m, "eilid_ops_phase_update_us"),
            hist_mean(m, "eilid_ops_phase_probe_us"),
            executed as f64,
            memoized as f64,
            wire as f64 / full.max(1) as f64,
            retries as f64,
            authorize,
            apply,
            reboot,
            smoke_ms,
            result.bringup_ms,
            1.0 - layered_us / (result.op_ms * 1e3),
        ]);
    }
    let column = |i: usize| median(&rows.iter().map(|row| row[i]).collect::<Vec<_>>());
    let names: [(&str, &'static str); 16] = [
        ("net.ops.begin_ms", "ms"),
        ("net.ops.wave0_ms", "ms"),
        ("net.ops.wave1_ms", "ms"),
        ("net.engine.snapshot_us", "us"),
        ("net.engine.update_us", "us"),
        ("net.engine.probe_us", "us"),
        ("net.engine.probes_executed", "count"),
        ("net.engine.probes_memoized", "count"),
        ("net.engine.update_bytes_ratio", "ratio"),
        ("net.engine.busy_retries", "count"),
        ("casu.update.authorize_us", "us"),
        ("fleet.device.apply_delta_us", "us"),
        ("fleet.device.reboot_us", "us"),
        ("core.device.smoke_ms", "ms"),
        ("rollout.bringup_ms", "ms"),
        ("rollout.unaccounted_share", "share"),
    ];
    for (i, (name, unit)) in names.into_iter().enumerate() {
        out.put(name, column(i), unit);
    }
    out.put(
        "rollout.tracing_overhead",
        median(&traced_ms) / median(&plain_ms) - 1.0,
        "share",
    );
    for (name, value) in [
        "rollout.probes_executed",
        "rollout.probes_memoized",
        "rollout.update_bytes_full",
        "rollout.update_bytes_wire",
    ]
    .into_iter()
    .zip(exact)
    {
        out.exact.insert(name.into(), value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_rollout_is_correct_and_repeats() {
        let scale = Scale::tiny();
        let a = trace(5, 2, scale);
        let b = trace(5, 2, scale);
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.attempted, 4);
        assert_eq!(a.exact, b.exact);
        assert!(a.exact["rollout.update_bytes_wire"] < a.exact["rollout.update_bytes_full"]);
    }

    #[test]
    fn seed_changes_the_inputs() {
        let scale = Scale::tiny();
        let mut a = setup(1, scale);
        let mut b = setup(2, scale);
        let pa = draw_plan(&mut Rng::new(1, STREAM + 100), &mut a);
        let pb = draw_plan(&mut Rng::new(2, STREAM + 100), &mut b);
        assert_ne!(pa.config.payload, pb.config.payload);
        assert_ne!(pa.diverged, pb.diverged);
    }
}
