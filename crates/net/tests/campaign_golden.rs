//! Golden campaigns on both backends. One completed campaign (with a
//! tampered device in each wave and one probe-isolated device) and one
//! halted-and-rolled-back campaign run in-process and through a gateway
//! with one device agent over loopback TCP. Each run is pinned to fixed
//! values: the `CampaignReport`, the counts of every wave, the ledger
//! events in order, the probe counters, and the device each wave chose
//! as its cohort reference (the device whose smoke run consumed
//! cycles: the first eligible device in wave order). A change to how
//! either backend drives the rollout machine that moves any of these
//! fails here.

use std::sync::Arc;
use std::time::Duration;

use eilid_casu::DeviceKey;
use eilid_fleet::fixtures::{
    benign_patch, bricking_patch, BENIGN_PATCH_TARGET, BRICKING_PATCH_TARGET,
};
use eilid_fleet::{
    Campaign, CampaignConfig, CampaignReport, CampaignStatus, CohortInfo, DeviceId, Fleet,
    FleetBuilder, FleetError, FleetOps, LedgerEvent, LocalExecutor, OpsError, Rollout, Verifier,
    WaveExecutor,
};
use eilid_msp430::Memory;
use eilid_net::{with_attached_fleet, AttestationService, Gateway, GatewayConfig, RemoteOps};
use eilid_workloads::WorkloadId;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";
const COHORT: WorkloadId = WorkloadId::LightSensor;

/// One campaign scenario: the fleet it runs on and its config.
struct Scenario {
    devices: usize,
    /// Devices with one firmware byte flipped outside every patch.
    tampered: &'static [usize],
    /// Devices that run their own smoke probe.
    isolated: &'static [usize],
    config: CampaignConfig,
}

/// 12 devices, canary half: device 0 (wave 0) and device 6 (wave 1)
/// are tampered, so each wave's reference is its second device and the
/// wave still passes with one quarantined device; device 9 is
/// probe-isolated.
fn completed() -> Scenario {
    let mut config = CampaignConfig::new(COHORT, BENIGN_PATCH_TARGET, benign_patch());
    config.canary_fraction = 0.5;
    config.smoke_cycles = 200_000;
    Scenario {
        devices: 12,
        tampered: &[0, 6],
        isolated: &[9],
        config,
    }
}

/// 10 devices, a three-device canary of a bricking patch: device 0 is
/// tampered, device 1 runs the failing reference smoke, device 2
/// inherits it, and the campaign halts and rolls all three back.
fn halted() -> Scenario {
    let mut config = CampaignConfig::new(COHORT, BRICKING_PATCH_TARGET, bricking_patch());
    config.canary_fraction = 0.3;
    config.smoke_cycles = 200_000;
    Scenario {
        devices: 10,
        tampered: &[0],
        isolated: &[],
        config,
    }
}

fn build(scenario: &Scenario) -> (Fleet, Verifier) {
    let (mut fleet, verifier) = FleetBuilder::new(DeviceKey::new(ROOT).unwrap())
        .devices(scenario.devices)
        .threads(2)
        .workloads(&[COHORT])
        .build()
        .unwrap();
    for &victim in scenario.tampered {
        let memory = &mut fleet.devices_mut()[victim].device_mut().cpu_mut().memory;
        memory.write_byte(0xE200, memory.read_byte(0xE200) ^ 0xFF);
    }
    for &isolated in scenario.isolated {
        fleet.devices_mut()[isolated].set_probe_isolated(true);
    }
    (fleet, verifier)
}

/// What one campaign run is pinned on.
#[derive(Debug, PartialEq)]
struct Observed {
    report: CampaignReport,
    /// `(wave, size, updated, failures)` per wave.
    waves: Vec<(usize, usize, usize, usize)>,
    /// Ledger events the campaign recorded, in order (`Debug` form).
    ledger: Vec<String>,
    /// `(executed, memoized)` smoke probes over every wave.
    probes: (u64, u64),
    /// Devices whose cycle counter moved: the references (and
    /// probe-isolated devices) that ran a smoke run, with its cycles.
    smoked: Vec<(DeviceId, u64)>,
}

fn cycles(fleet: &Fleet) -> Vec<u64> {
    fleet
        .devices()
        .iter()
        .map(|device| device.device().cycles())
        .collect()
}

fn smoked(fleet: &Fleet, before: &[u64]) -> Vec<(DeviceId, u64)> {
    fleet
        .devices()
        .iter()
        .zip(before)
        .filter(|(device, &before)| device.device().cycles() != before)
        .map(|(device, &before)| (device.id(), device.device().cycles() - before))
        .collect()
}

fn waves(report: &CampaignReport) -> Vec<(usize, usize, usize, usize)> {
    report
        .waves
        .iter()
        .map(|wave| (wave.wave, wave.size, wave.updated, wave.failures))
        .collect()
}

/// The in-process executor, summing each machine's probe counters the
/// way the gateway engine adds them to its metrics.
struct Counting<'a> {
    inner: LocalExecutor<'a>,
    probes: (u64, u64),
}

impl WaveExecutor for Counting<'_> {
    fn cohort_info(&mut self, cohort: WorkloadId) -> Result<CohortInfo, FleetError> {
        self.inner.cohort_info(cohort)
    }

    fn drive(&mut self, rollout: &mut Rollout<'_>) -> Result<(), FleetError> {
        self.inner.drive(rollout)?;
        let (executed, memoized) = rollout.probes();
        self.probes.0 += executed as u64;
        self.probes.1 += memoized as u64;
        Ok(())
    }

    fn promote(&mut self, cohort: WorkloadId, golden: &Memory, measurement: [u8; 32]) {
        self.inner.promote(cohort, golden, measurement);
    }

    fn record(&mut self, events: Vec<LedgerEvent>) {
        self.inner.record(events);
    }
}

fn run_local(scenario: &Scenario) -> Observed {
    let (mut fleet, mut verifier) = build(scenario);
    let before = cycles(&fleet);
    let enrolled = fleet.ledger().events().len();
    let (report, probes) = {
        let mut exec = Counting {
            inner: LocalExecutor::new(&mut fleet, &mut verifier),
            probes: (0, 0),
        };
        let mut run = Campaign::new(scenario.config.clone())
            .unwrap()
            .begin_with(&mut exec)
            .unwrap();
        while run.step_with(&mut exec).unwrap() != CampaignStatus::Finished {}
        (run.report().unwrap(), exec.probes)
    };
    Observed {
        waves: waves(&report),
        report,
        ledger: fleet.ledger().events()[enrolled..]
            .iter()
            .map(|event| format!("{event:?}"))
            .collect(),
        probes,
        smoked: smoked(&fleet, &before),
    }
}

/// The wire run, through one agent so replies land in wave order. The
/// gateway's ledger is not readable over the wire; its length is, and
/// the in-process run's events stand in for its content.
fn run_remote(scenario: &Scenario, ledger: &[String]) -> Observed {
    let (mut fleet, mut verifier) = build(scenario);
    let before = cycles(&fleet);
    let service = Arc::new(AttestationService::new(verifier.service_snapshot(1 << 20)));
    let handle = Gateway::bind(
        ("127.0.0.1", 0),
        service,
        GatewayConfig {
            ops_timeout: Duration::from_secs(30),
            ..GatewayConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();
    let (report, ledger_events, metrics) = with_attached_fleet(&mut fleet, 1, addr, || {
        let mut ops = RemoteOps::connect(addr).map_err(|e| OpsError::Backend(e.to_string()))?;
        let report = ops.run_campaign(&scenario.config)?;
        let health = ops.health()?;
        let metrics = ops.metrics()?;
        Ok::<_, OpsError>((report, health.ledger_events, metrics))
    })
    .expect("the device agent served cleanly")
    .expect("the remote campaign succeeds");
    handle.shutdown().unwrap();
    assert_eq!(ledger_events, ledger.len(), "gateway ledger length");
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
    Observed {
        waves: waves(&report),
        report,
        ledger: ledger.to_vec(),
        probes: (
            counter("eilid_ops_probes_executed_total"),
            counter("eilid_ops_probes_memoized_total"),
        ),
        smoked: smoked(&fleet, &before),
    }
}

fn check(scenario: &Scenario, golden: &Golden) {
    let local = run_local(scenario);
    let remote = run_remote(scenario, &local.ledger);
    for (backend, observed) in [("local", &local), ("remote", &remote)] {
        assert_eq!(
            format!("{:?}", observed.report),
            golden.report,
            "{backend} report"
        );
        assert_eq!(observed.waves, golden.waves, "{backend} waves");
        assert_eq!(observed.ledger, golden.ledger, "{backend} ledger");
        assert_eq!(observed.probes, golden.probes, "{backend} probe counters");
        assert_eq!(observed.smoked, golden.smoked, "{backend} references");
    }
    assert_eq!(remote, local);
}

struct Golden {
    report: &'static str,
    waves: Vec<(usize, usize, usize, usize)>,
    ledger: Vec<&'static str>,
    probes: (u64, u64),
    smoked: Vec<(DeviceId, u64)>,
}

#[test]
fn completed_campaign_is_pinned_on_both_backends() {
    check(
        &completed(),
        &Golden {
            report: "CampaignReport { outcome: Completed { updated: 10 }, \
                     waves: [WaveReport { wave: 0, size: 6, updated: 6, failures: 1 }, \
                     WaveReport { wave: 1, size: 6, updated: 6, failures: 1 }], \
                     quarantined: [0, 6], rollback_incomplete: [] }",
            waves: vec![(0, 6, 6, 1), (1, 6, 6, 1)],
            ledger: vec![
                "UpdateApplied { device: 0, nonce: 1 }",
                "ProbeFailed { device: 0 }",
                "UpdateApplied { device: 1, nonce: 1 }",
                "UpdateApplied { device: 2, nonce: 1 }",
                "UpdateApplied { device: 3, nonce: 1 }",
                "UpdateApplied { device: 4, nonce: 1 }",
                "UpdateApplied { device: 5, nonce: 1 }",
                "WaveCompleted { wave: 0, updated: 6, failures: 1 }",
                "RolledBack { device: 0 }",
                "UpdateApplied { device: 6, nonce: 1 }",
                "ProbeFailed { device: 6 }",
                "UpdateApplied { device: 7, nonce: 1 }",
                "UpdateApplied { device: 8, nonce: 1 }",
                "UpdateApplied { device: 9, nonce: 1 }",
                "UpdateApplied { device: 10, nonce: 1 }",
                "UpdateApplied { device: 11, nonce: 1 }",
                "WaveCompleted { wave: 1, updated: 6, failures: 1 }",
                "RolledBack { device: 6 }",
            ],
            // The two references and the probe-isolated device smoke;
            // the tampered devices count toward neither counter.
            probes: (3, 7),
            smoked: vec![(1, 32_979), (7, 32_979), (9, 32_979)],
        },
    );
}

#[test]
fn halted_campaign_is_pinned_on_both_backends() {
    check(
        &halted(),
        &Golden {
            report: "CampaignReport { outcome: HaltedAndRolledBack { wave: 0, \
                     failure_rate: 1.0, rolled_back: 3 }, \
                     waves: [WaveReport { wave: 0, size: 3, updated: 3, failures: 3 }], \
                     quarantined: [], rollback_incomplete: [] }",
            waves: vec![(0, 3, 3, 3)],
            ledger: vec![
                "UpdateApplied { device: 0, nonce: 1 }",
                "ProbeFailed { device: 0 }",
                "UpdateApplied { device: 1, nonce: 1 }",
                "ProbeFailed { device: 1 }",
                "UpdateApplied { device: 2, nonce: 1 }",
                "ProbeFailed { device: 2 }",
                "WaveCompleted { wave: 0, updated: 3, failures: 3 }",
                "CampaignHalted { wave: 0, failure_rate: 1.0 }",
                "RolledBack { device: 0 }",
                "RolledBack { device: 1 }",
                "RolledBack { device: 2 }",
            ],
            // Device 1 runs the failing reference smoke; device 2
            // inherits its verdict.
            probes: (1, 1),
            smoked: vec![(1, 5)],
        },
    );
}
