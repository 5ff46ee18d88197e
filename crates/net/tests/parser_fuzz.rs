//! Mutation-fuzz loops over the byte parsers that take untrusted input:
//! wire frames (through the streaming [`FrameDecoder`]), paused-campaign
//! records and JSON metrics snapshots. (The cluster pause blob's decoder
//! is private; its loop sits beside it in `cluster/ops.rs`.)
//!
//! Every loop asserts two things on each mutated input: the parser
//! never panics, and anything it accepts re-encodes to bytes that
//! decode to an equal value. Seeded from `PROPTEST_SEED` like the
//! property suites (see `support/mutate.rs`).

#[path = "support/mutate.rs"]
mod mutate;

use eilid_casu::{
    AggProof, AttestationReport, Challenge, DeltaSegment, DeltaUpdateRequest, DeviceKey,
};
use eilid_fleet::fixtures::{benign_patch, BENIGN_PATCH_TARGET};
use eilid_fleet::{
    Campaign, CampaignConfig, CampaignOutcome, CampaignReport, FleetBuilder, PausedCampaign,
    WaveReport,
};
use eilid_net::{CampaignOp, ErrorCode, Frame, FrameDecoder, ProbeMode, WireHealth};
use eilid_obs::{HistogramSnapshot, RegistrySnapshot};
use eilid_workloads::WorkloadId;

use mutate::{assert_round_trip, fuzz};

fn config() -> CampaignConfig {
    CampaignConfig::new(WorkloadId::LightSensor, BENIGN_PATCH_TARGET, benign_patch())
}

/// One frame of every type, with non-trivial payloads.
fn frames() -> Vec<Frame> {
    let challenge = Challenge {
        nonce: 0x0102_0304_0506_0708,
        start: 0xE000,
        end: 0xFFDF,
    };
    let report = AttestationReport {
        challenge,
        measurement: [0x42; 32],
        mac: [0x17; 32],
    };
    let campaign_report = CampaignReport {
        outcome: CampaignOutcome::HaltedAndRolledBack {
            wave: 1,
            failure_rate: 0.5,
            rolled_back: 3,
        },
        waves: vec![WaveReport {
            wave: 0,
            size: 4,
            updated: 2,
            failures: 2,
        }],
        quarantined: vec![3, 9],
        rollback_incomplete: vec![9],
    };
    let proof = AggProof {
        shard: 3,
        epoch: 77,
        count: 2,
        root: [0xAB; 32],
        mac: [0xCD; 32],
    };
    vec![
        Frame::Hello {
            min_version: 1,
            max_version: 10,
        },
        Frame::HelloAck { version: 10 },
        Frame::UpdateResult {
            device: 5,
            status: 2,
        },
        Frame::CampaignControl {
            cohort: WorkloadId::FireSensor,
            op: CampaignOp::Pause,
        },
        Frame::CampaignStatus {
            cohort: WorkloadId::LightSensor,
            state: 1,
            wave_cursor: 2,
        },
        Frame::Error {
            code: ErrorCode::Busy,
        },
        Frame::Bye,
        Frame::DeviceError {
            device: 12,
            code: ErrorCode::UnknownCohort,
        },
        Frame::Attach {
            device: 7,
            cohort: WorkloadId::TempSensor,
        },
        Frame::AttachAck { device: 7 },
        Frame::SnapshotRequest {
            device: 8,
            start: 0xF600,
            len: 16,
        },
        Frame::SnapshotReport {
            device: 8,
            last_nonce: 4,
            version: 2,
            measurement: [0x11; 32],
            data: (0..16).collect(),
        },
        Frame::ProbeRequest {
            device: 9,
            mode: ProbeMode::UpdateProbe,
            smoke_cycles: 5_000,
            challenge,
        },
        Frame::ProbeResult {
            device: 9,
            healthy: 1,
            report,
        },
        Frame::OpBegin { config: config() },
        Frame::OpStep {
            cohort: WorkloadId::LightSensor,
        },
        Frame::OpResume {
            paused: b"EPC2 not really".to_vec(),
        },
        Frame::OpPaused {
            cohort: WorkloadId::LightSensor,
            paused: vec![1, 2, 3],
        },
        Frame::OpReport {
            cohort: WorkloadId::SyringePump,
            report: campaign_report,
        },
        Frame::OpHealth,
        Frame::OpHealthResult {
            attached: 64,
            active_campaigns: 1,
            ledger_events: 12,
            live_sessions: 5,
        },
        Frame::OpDrain,
        Frame::OpDrained {
            paused: vec![
                (WorkloadId::LightSensor, vec![9; 8]),
                (WorkloadId::LcdSensor, vec![]),
            ],
        },
        Frame::OpMetrics,
        Frame::OpMetricsResult {
            snapshot: snapshot().to_json().into_bytes(),
        },
        Frame::DeltaUpdateRequest {
            device: 10,
            request: DeltaUpdateRequest {
                target: BENIGN_PATCH_TARGET,
                base_len: 32,
                segments: vec![
                    DeltaSegment {
                        offset: 0,
                        bytes: vec![0x03, 0x43],
                    },
                    DeltaSegment {
                        offset: 16,
                        bytes: vec![0xFF; 4],
                    },
                ],
                nonce: 6,
                version: 3,
                mac: [0x5A; 32],
            },
        },
        Frame::OpCheckpoint {
            cohort: WorkloadId::LightSensor,
        },
        Frame::OpCheckpointAck {
            cohort: WorkloadId::LightSensor,
            paused: vec![4; 12],
        },
        Frame::OpAggSweep,
        Frame::OpAggSweepResult {
            epoch: 77,
            devices: 2,
            counts: [1, 0, 1, 0],
            bitmap_base: 3,
            bitmap: vec![0b0000_0011],
            proofs: vec![proof],
            suspects: vec![(4, WireHealth::Tampered)],
        },
    ]
}

#[test]
fn frame_decoder_survives_mutated_streams() {
    let frames = frames();
    let mut corpus: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    // Multi-frame streams, so mutations also land on frame boundaries.
    corpus.push(frames.iter().take(8).flat_map(Frame::encode).collect());
    corpus.push(frames.iter().skip(12).flat_map(Frame::encode).collect());
    fuzz("wire_frames", &corpus, 20_000, |input| {
        let mut decoder = FrameDecoder::new();
        decoder.extend(input);
        // A decode error poisons the stream; stop at the first one.
        while let Ok(Some(frame)) = decoder.next_frame() {
            let again = Frame::decode(&frame.encode()).expect("re-encoded frame decodes");
            assert_round_trip(&frame, &again, Frame::encode);
        }
    });
}

fn paused_records() -> Vec<PausedCampaign> {
    let (mut fleet, mut verifier) =
        FleetBuilder::new(DeviceKey::new(b"fleet-root-key-0123").unwrap())
            .devices(4)
            .threads(1)
            .workloads(&[WorkloadId::LightSensor])
            .build()
            .unwrap();
    let mut paused = Vec::new();
    for delta in [false, true] {
        let config = CampaignConfig { delta, ..config() };
        let mut run = Campaign::new(config)
            .unwrap()
            .begin(&mut fleet, &mut verifier)
            .unwrap();
        run.step(&mut fleet, &mut verifier).unwrap();
        paused.push(run.pause());
    }
    paused
}

#[test]
fn paused_campaign_parser_survives_mutated_records() {
    let corpus: Vec<Vec<u8>> = paused_records()
        .iter()
        .map(PausedCampaign::to_bytes)
        .collect();
    // Each record carries a 64 KiB golden image; fewer cases keep the
    // loop as quick as the others.
    fuzz("paused_campaign", &corpus, 2_000, |input| {
        if let Ok(paused) = PausedCampaign::from_bytes(input) {
            let again = PausedCampaign::from_bytes(&paused.to_bytes())
                .expect("re-encoded paused campaign decodes");
            assert_round_trip(&paused, &again, PausedCampaign::to_bytes);
        }
    });
}

fn snapshot() -> RegistrySnapshot {
    let mut snapshot = RegistrySnapshot::empty();
    snapshot.put_counter("eilid_gateway_frames_in_total", 4_096);
    snapshot.put_counter("eilid_service_verified_total", 17);
    snapshot.put_gauge("eilid_gateway_sessions", 3);
    let mut hist = HistogramSnapshot::empty();
    hist.count = 3;
    hist.sum = 1_234;
    hist.buckets[4] = 1;
    hist.buckets[9] = 2;
    snapshot
        .histograms
        .insert("eilid_ops_sweep_us".to_string(), hist);
    snapshot
}

#[test]
fn metrics_snapshot_parser_survives_mutated_json() {
    let corpus = vec![
        snapshot().to_json().into_bytes(),
        RegistrySnapshot::empty().to_json().into_bytes(),
    ];
    let to_json = |snapshot: &RegistrySnapshot| snapshot.to_json().into_bytes();
    fuzz("metrics_json", &corpus, 20_000, |input| {
        // The parser takes text; the wire carries bytes, so a mutation
        // that breaks UTF-8 still reaches the parser, lossily.
        let text = String::from_utf8_lossy(input);
        if let Ok(snapshot) = RegistrySnapshot::from_json(&text) {
            let again = RegistrySnapshot::from_json(&snapshot.to_json())
                .expect("re-encoded snapshot parses");
            assert_round_trip(&snapshot, &again, to_json);
        }
    });
}
