//! Golden bytes for every wire frame. One fixed instance of each
//! [`Frame`] variant is encoded and pinned in hex, header included, so
//! a refactor of the frame codec or of the campaign record codecs it
//! calls cannot move a wire byte without failing here. Each pinned
//! frame must also decode back to the instance it came from.

use eilid_casu::{AggProof, AttestationReport, Challenge, DeltaSegment, DeltaUpdateRequest};
use eilid_fleet::{CampaignConfig, CampaignOutcome, CampaignReport, WaveReport};
use eilid_net::{
    CampaignOp, ErrorCode, Frame, ProbeMode, WireHealth, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|byte| format!("{byte:02x}")).collect()
}

/// A config with no default field: every byte of the `OpBegin` layout
/// carries a distinct value.
fn config() -> CampaignConfig {
    CampaignConfig {
        cohort: WorkloadId::SyringePump,
        target: 0xE1F0,
        payload: vec![0x03, 0x43, 0x30, 0x41, 0xA5],
        canary_fraction: 0.25,
        failure_threshold: 0.125,
        smoke_cycles: 123_456,
        version: 7,
        delta: false,
    }
}

fn challenge() -> Challenge {
    Challenge {
        nonce: 0x0102_0304_0506_0708,
        start: 0xE000,
        end: 0xFFDF,
    }
}

/// Every frame variant, each with the hex of its full encoding.
fn golden() -> Vec<(Frame, &'static str)> {
    let report = AttestationReport {
        challenge: challenge(),
        measurement: [0x42; 32],
        mac: [0x17; 32],
    };
    let halted = CampaignReport {
        outcome: CampaignOutcome::HaltedAndRolledBack {
            wave: 1,
            failure_rate: 0.5,
            rolled_back: 3,
        },
        waves: vec![
            WaveReport {
                wave: 0,
                size: 4,
                updated: 4,
                failures: 0,
            },
            WaveReport {
                wave: 1,
                size: 6,
                updated: 5,
                failures: 3,
            },
        ],
        quarantined: vec![3, 0x0102_0304_0506_0708],
        rollback_incomplete: vec![9],
    };
    let proofs = vec![
        AggProof {
            shard: 3,
            epoch: 77,
            count: 2,
            root: [0xAB; 32],
            mac: [0xCD; 32],
        },
        AggProof {
            shard: 9,
            epoch: 77,
            count: 1,
            root: [0x01; 32],
            mac: [0x02; 32],
        },
    ];
    vec![
        (
            Frame::Hello {
                min_version: 1,
                max_version: 11,
            },
            "45494c440b0102000000010b",
        ),
        (Frame::HelloAck { version: 11 }, "45494c440b02010000000b"),
        (
            Frame::UpdateResult {
                device: 5,
                status: 2,
            },
            "45494c440b0809000000050000000000000002",
        ),
        (
            Frame::CampaignControl {
                cohort: WorkloadId::FireSensor,
                op: CampaignOp::Status,
            },
            "45494c440b09020000000202",
        ),
        (
            Frame::CampaignStatus {
                cohort: WorkloadId::LightSensor,
                state: 2,
                wave_cursor: 0x0102,
            },
            "45494c440b0a06000000000202010000",
        ),
        (
            Frame::Error {
                code: ErrorCode::CampaignActive,
            },
            "45494c440b0b0100000009",
        ),
        (Frame::Bye, "45494c440b0c00000000"),
        (
            Frame::DeviceError {
                device: 12,
                code: ErrorCode::UnknownCohort,
            },
            "45494c440b0d090000000c0000000000000003",
        ),
        (
            Frame::Attach {
                device: 7,
                cohort: WorkloadId::TempSensor,
            },
            "45494c440b0e09000000070000000000000004",
        ),
        (Frame::AttachAck { device: 7 }, "45494c440b0f080000000700000000000000"),
        (
            Frame::SnapshotRequest {
                device: 8,
                start: 0xF600,
                len: 16,
            },
            "45494c440b100c000000080000000000000000f61000",
        ),
        (
            Frame::SnapshotReport {
                device: 8,
                last_nonce: 4,
                version: 2,
                measurement: [0x11; 32],
                data: (0..16).collect(),
            },
            "45494c440b114c000000080000000000000004000000000000000200000000000000111111111111111111111111111111111111111111111111111111111111111110000000000102030405060708090a0b0c0d0e0f",
        ),
        (
            Frame::ProbeRequest {
                device: 9,
                mode: ProbeMode::UpdateProbe,
                smoke_cycles: 5_000,
                challenge: challenge(),
            },
            "45494c440b121d0000000900000000000000018813000000000000080706050403020100e0dfff",
        ),
        (
            Frame::ProbeResult {
                device: 9,
                healthy: 1,
                report,
            },
            "45494c440b1355000000090000000000000001080706050403020100e0dfff42424242424242424242424242424242424242424242424242424242424242421717171717171717171717171717171717171717171717171717171717171717",
        ),
        (Frame::OpBegin { config: config() }, "45494c440b142d00000003f0e1000000000000d03f000000000000c03f40e20100000000000700000000000000000500000003433041a5"),
        (
            Frame::OpStep {
                cohort: WorkloadId::LightSensor,
            },
            "45494c440b150100000000",
        ),
        (
            Frame::OpResume {
                paused: vec![0x45, 0x50, 0x43, 0x00, 0xFF],
            },
            "45494c440b16090000000500000045504300ff",
        ),
        (
            Frame::OpPaused {
                cohort: WorkloadId::LightSensor,
                paused: vec![1, 2, 3],
            },
            "45494c440b17080000000003000000010203",
        ),
        (
            Frame::OpReport {
                cohort: WorkloadId::SyringePump,
                report: halted,
            },
            "45494c440b1856000000030201000000000000000000e03f030000000200000000000000040000000400000000000000010000000600000005000000030000000200000003000000000000000807060504030201010000000900000000000000",
        ),
        (
            Frame::OpReport {
                cohort: WorkloadId::LcdSensor,
                report: CampaignReport {
                    outcome: CampaignOutcome::Completed { updated: 10 },
                    waves: vec![WaveReport {
                        wave: 0,
                        size: 10,
                        updated: 10,
                        failures: 0,
                    }],
                    quarantined: Vec::new(),
                    rollback_incomplete: Vec::new(),
                },
            },
            "45494c440b182200000006010a00000001000000000000000a0000000a000000000000000000000000000000",
        ),
        (Frame::OpHealth, "45494c440b1b00000000"),
        (
            Frame::OpHealthResult {
                attached: 64,
                active_campaigns: 1,
                ledger_events: 12,
                live_sessions: 5,
            },
            "45494c440b1c1000000040000000010000000c00000005000000",
        ),
        (Frame::OpDrain, "45494c440b1d00000000"),
        (
            Frame::OpDrained {
                paused: vec![
                    (WorkloadId::LightSensor, vec![9; 8]),
                    (WorkloadId::LcdSensor, vec![]),
                    (WorkloadId::UltrasonicRanger, vec![0xEE, 0x01]),
                ],
            },
            "45494c440b1e1d000000030000000008000000090909090909090906000000000102000000ee01",
        ),
        (Frame::OpMetrics, "45494c440b1f00000000"),
        (
            Frame::OpMetricsResult {
                snapshot: br#"{"counters":{}}"#.to_vec(),
            },
            "45494c440b20130000000f0000007b22636f756e74657273223a7b7d7d",
        ),
        (
            Frame::DeltaUpdateRequest {
                device: 10,
                request: DeltaUpdateRequest {
                    target: 0xE100,
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
            "45494c440b21580000000a0000000000000000e1060000000000000003000000000000002000000002000000000000000200000003431000000004000000ffffffff5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a",
        ),
        (
            Frame::OpCheckpoint {
                cohort: WorkloadId::Charlieplexing,
            },
            "45494c440b220100000005",
        ),
        (
            Frame::OpCheckpointAck {
                cohort: WorkloadId::Charlieplexing,
                paused: vec![4; 12],
            },
            "45494c440b2311000000050c000000040404040404040404040404",
        ),
        (Frame::OpAggSweep, "45494c440b2400000000"),
        (
            Frame::OpAggSweepResult {
                epoch: 77,
                devices: 5,
                counts: [3, 1, 1, 0],
                bitmap_base: 3,
                bitmap: vec![0b0001_1111],
                proofs,
                suspects: vec![(4, WireHealth::Tampered), (6, WireHealth::Stale)],
            },
            "45494c440b25cf0000004d0000000000000005000000030000000100000001000000000000000300000000000000010000001f02000000030002000000ababababababababababababababababababababababababababababababababcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd0900010000000101010101010101010101010101010101010101010101010101010101010101020202020202020202020202020202020202020202020202020202020202020202000000040000000000000002060000000000000001",
        ),
    ]
}

/// The variant's type byte, by name: a new variant must be added here,
/// which forces a golden instance for it too.
fn variant(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "Hello",
        Frame::HelloAck { .. } => "HelloAck",
        Frame::UpdateResult { .. } => "UpdateResult",
        Frame::CampaignControl { .. } => "CampaignControl",
        Frame::CampaignStatus { .. } => "CampaignStatus",
        Frame::Error { .. } => "Error",
        Frame::Bye => "Bye",
        Frame::DeviceError { .. } => "DeviceError",
        Frame::Attach { .. } => "Attach",
        Frame::AttachAck { .. } => "AttachAck",
        Frame::SnapshotRequest { .. } => "SnapshotRequest",
        Frame::SnapshotReport { .. } => "SnapshotReport",
        Frame::ProbeRequest { .. } => "ProbeRequest",
        Frame::ProbeResult { .. } => "ProbeResult",
        Frame::OpBegin { .. } => "OpBegin",
        Frame::OpStep { .. } => "OpStep",
        Frame::OpResume { .. } => "OpResume",
        Frame::OpPaused { .. } => "OpPaused",
        Frame::OpReport { .. } => "OpReport",
        Frame::OpHealth => "OpHealth",
        Frame::OpHealthResult { .. } => "OpHealthResult",
        Frame::OpDrain => "OpDrain",
        Frame::OpDrained { .. } => "OpDrained",
        Frame::OpMetrics => "OpMetrics",
        Frame::OpMetricsResult { .. } => "OpMetricsResult",
        Frame::DeltaUpdateRequest { .. } => "DeltaUpdateRequest",
        Frame::OpCheckpoint { .. } => "OpCheckpoint",
        Frame::OpCheckpointAck { .. } => "OpCheckpointAck",
        Frame::OpAggSweep => "OpAggSweep",
        Frame::OpAggSweepResult { .. } => "OpAggSweepResult",
    }
}

#[test]
fn every_frame_encodes_to_its_golden_bytes() {
    assert_eq!(PROTOCOL_VERSION, 11);
    let golden = golden();
    let mut names: Vec<&str> = golden.iter().map(|(frame, _)| variant(frame)).collect();
    names.dedup();
    assert_eq!(names.len(), 30, "one golden instance per frame variant");

    let mut mismatches = Vec::new();
    for (frame, expected) in &golden {
        let bytes = frame.encode();
        assert_eq!(&bytes[4..5], &[PROTOCOL_VERSION]);
        assert_eq!(
            bytes.len() - FRAME_HEADER_LEN,
            u32::from_le_bytes(bytes[6..10].try_into().unwrap()) as usize
        );
        if hex(&bytes) != *expected {
            mismatches.push(format!("{}: {}", variant(frame), hex(&bytes)));
        }
        assert_eq!(&Frame::decode(&bytes).unwrap(), frame, "{}", variant(frame));
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
