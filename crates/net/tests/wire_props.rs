//! Wire-codec property tests: encode→decode is the identity for
//! arbitrary frames, and a corpus of malformed inputs dies with clean
//! typed errors — never a panic, never an unbounded allocation.

use eilid_casu::{
    AggProof, AttestationReport, Challenge, DeltaSegment, DeltaUpdateRequest, UpdateRequest,
};
use eilid_fleet::{CampaignConfig, CampaignOutcome, CampaignReport, WaveReport};
use eilid_net::{
    ErrorCode, Frame, FrameDecoder, ProbeMode, WireError, WireHealth, FRAME_HEADER_LEN,
    MAX_FRAME_PAYLOAD, MAX_OP_PAYLOAD, PROTOCOL_VERSION,
};
use eilid_workloads::WorkloadId;
use proptest::prelude::*;

fn arb_cohort() -> impl Strategy<Value = WorkloadId> {
    (0usize..WorkloadId::ALL.len()).prop_map(|i| WorkloadId::ALL[i])
}

fn arb_challenge() -> impl Strategy<Value = Challenge> {
    (any::<u64>(), any::<u16>(), any::<u16>()).prop_map(|(nonce, start, end)| Challenge {
        nonce,
        start,
        end,
    })
}

fn arb_array32() -> impl Strategy<Value = [u8; 32]> {
    proptest::collection::vec(0u8..=255, 32..33).prop_map(|v| {
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        out
    })
}

fn arb_report() -> impl Strategy<Value = AttestationReport> {
    (arb_challenge(), arb_array32(), arb_array32()).prop_map(|(challenge, measurement, mac)| {
        AttestationReport {
            challenge,
            measurement,
            mac,
        }
    })
}

fn arb_delta_update_request() -> impl Strategy<Value = DeltaUpdateRequest> {
    let segment =
        (any::<u16>(), proptest::collection::vec(0u8..=255, 1..96)).prop_map(|(offset, bytes)| {
            DeltaSegment {
                offset: u32::from(offset),
                bytes,
            }
        });
    (
        any::<u16>(),
        // A zero base length is not a representable delta: the codec
        // rejects it (`zero_length_delta_base_is_rejected`).
        1u32..=eilid_casu::wire::MAX_UPDATE_PAYLOAD as u32,
        proptest::collection::vec(segment, 0..6),
        any::<u64>(),
        any::<u64>(),
        arb_array32(),
    )
        .prop_map(
            |(target, base_len, segments, nonce, version, mac)| DeltaUpdateRequest {
                target,
                base_len,
                segments,
                nonce,
                version,
                mac,
            },
        )
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::UnsupportedVersion),
        Just(ErrorCode::Busy),
        Just(ErrorCode::UnknownCohort),
        Just(ErrorCode::NotNegotiated),
        Just(ErrorCode::UnexpectedFrame),
        Just(ErrorCode::Unsupported),
        Just(ErrorCode::UnknownDevice),
        Just(ErrorCode::NoCampaign),
        Just(ErrorCode::CampaignActive),
    ]
}

fn arb_probe_mode() -> impl Strategy<Value = ProbeMode> {
    prop_oneof![
        Just(ProbeMode::AttestOnly),
        Just(ProbeMode::UpdateProbe),
        Just(ProbeMode::RollbackVerify),
        Just(ProbeMode::UpdateAttest),
    ]
}

fn arb_wire_health() -> impl Strategy<Value = WireHealth> {
    prop_oneof![
        Just(WireHealth::Attested),
        Just(WireHealth::Stale),
        Just(WireHealth::Tampered),
        Just(WireHealth::Unverified),
    ]
}

/// Finite staging fractions only: the codec round-trips any f64 bits,
/// but `CampaignConfig`'s derived `PartialEq` (like any f64 compare)
/// cannot witness NaN == NaN.
fn arb_campaign_config() -> impl Strategy<Value = CampaignConfig> {
    (
        arb_cohort(),
        any::<u16>(),
        proptest::collection::vec(0u8..=255, 1..64),
        (1u32..=10, 0u32..=4, any::<u64>()),
        (any::<u64>(), any::<bool>()),
    )
        .prop_map(
            |(cohort, target, payload, (canary, threshold, smoke_cycles), (version, delta))| {
                CampaignConfig {
                    cohort,
                    target,
                    payload,
                    canary_fraction: f64::from(canary) / 10.0,
                    failure_threshold: f64::from(threshold) / 4.0,
                    smoke_cycles,
                    version,
                    delta,
                }
            },
        )
}

fn arb_wave_report() -> impl Strategy<Value = WaveReport> {
    (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
        |(wave, size, updated, failures)| WaveReport {
            wave: wave as usize,
            size: size as usize,
            updated: updated as usize,
            failures: failures as usize,
        },
    )
}

fn arb_campaign_report() -> impl Strategy<Value = CampaignReport> {
    let outcome = prop_oneof![
        any::<u32>().prop_map(|updated| CampaignOutcome::Completed {
            updated: updated as usize,
        }),
        (any::<u32>(), 0u32..=100, any::<u32>()).prop_map(|(wave, rate, rolled_back)| {
            CampaignOutcome::HaltedAndRolledBack {
                wave: wave as usize,
                failure_rate: f64::from(rate) / 100.0,
                rolled_back: rolled_back as usize,
            }
        }),
    ];
    (
        outcome,
        proptest::collection::vec(arb_wave_report(), 0..6),
        proptest::collection::vec(any::<u64>(), 0..8),
        proptest::collection::vec(any::<u64>(), 0..8),
    )
        .prop_map(
            |(outcome, waves, quarantined, rollback_incomplete)| CampaignReport {
                outcome,
                waves,
                quarantined,
                rollback_incomplete,
            },
        )
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(min_version, max_version)| Frame::Hello {
            min_version,
            max_version,
        }),
        any::<u8>().prop_map(|version| Frame::HelloAck { version }),
        (any::<u64>(), any::<u8>())
            .prop_map(|(device, status)| Frame::UpdateResult { device, status }),
        (arb_cohort(), 0u8..=2).prop_map(|(cohort, op)| Frame::CampaignControl {
            cohort,
            op: match op {
                0 => eilid_net::CampaignOp::Pause,
                1 => eilid_net::CampaignOp::Status,
                _ => eilid_net::CampaignOp::Report,
            },
        }),
        (arb_cohort(), any::<u8>(), any::<u32>()).prop_map(|(cohort, state, wave_cursor)| {
            Frame::CampaignStatus {
                cohort,
                state,
                wave_cursor,
            }
        }),
        arb_error_code().prop_map(|code| Frame::Error { code }),
        Just(Frame::Bye),
        (any::<u64>(), arb_error_code())
            .prop_map(|(device, code)| Frame::DeviceError { device, code }),
        // --- version 3: device plane + operator plane ---
        (any::<u64>(), arb_cohort()).prop_map(|(device, cohort)| Frame::Attach { device, cohort }),
        any::<u64>().prop_map(|device| Frame::AttachAck { device }),
        (any::<u64>(), any::<u16>(), any::<u16>())
            .prop_map(|(device, start, len)| { Frame::SnapshotRequest { device, start, len } }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_array32(),
            proptest::collection::vec(0u8..=255, 0..128),
        )
            .prop_map(|(device, last_nonce, version, measurement, data)| {
                Frame::SnapshotReport {
                    device,
                    last_nonce,
                    version,
                    measurement,
                    data,
                }
            }),
        (
            any::<u64>(),
            arb_probe_mode(),
            any::<u64>(),
            arb_challenge()
        )
            .prop_map(
                |(device, mode, smoke_cycles, challenge)| Frame::ProbeRequest {
                    device,
                    mode,
                    smoke_cycles,
                    challenge,
                },
            ),
        (any::<u64>(), 0u8..=1, arb_report()).prop_map(|(device, healthy, report)| {
            Frame::ProbeResult {
                device,
                healthy,
                report,
            }
        }),
        arb_campaign_config().prop_map(|config| Frame::OpBegin { config }),
        arb_cohort().prop_map(|cohort| Frame::OpStep { cohort }),
        proptest::collection::vec(0u8..=255, 0..512).prop_map(|paused| Frame::OpResume { paused }),
        (arb_cohort(), proptest::collection::vec(0u8..=255, 0..512))
            .prop_map(|(cohort, paused)| Frame::OpPaused { cohort, paused }),
        (arb_cohort(), arb_campaign_report())
            .prop_map(|(cohort, report)| Frame::OpReport { cohort, report }),
        Just(Frame::OpHealth),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(attached, active_campaigns, ledger_events, live_sessions)| {
                Frame::OpHealthResult {
                    attached,
                    active_campaigns,
                    ledger_events,
                    live_sessions,
                }
            }
        ),
        Just(Frame::OpDrain),
        proptest::collection::vec(
            (arb_cohort(), proptest::collection::vec(0u8..=255, 0..256)),
            0..4,
        )
        .prop_map(|paused| Frame::OpDrained { paused }),
        // --- version 5: telemetry scrape ---
        Just(Frame::OpMetrics),
        proptest::collection::vec(0u8..=255, 0..512)
            .prop_map(|snapshot| Frame::OpMetricsResult { snapshot }),
        // --- version 6: delta updates + checkpoints ---
        (any::<u64>(), arb_delta_update_request())
            .prop_map(|(device, request)| Frame::DeltaUpdateRequest { device, request }),
        arb_cohort().prop_map(|cohort| Frame::OpCheckpoint { cohort }),
        (arb_cohort(), proptest::collection::vec(0u8..=255, 0..512))
            .prop_map(|(cohort, paused)| Frame::OpCheckpointAck { cohort, paused }),
        // --- version 7: collective attestation ---
        Just(Frame::OpAggSweep),
        (
            any::<u64>(),
            (
                any::<u32>(),
                (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            ),
            (any::<u64>(), proptest::collection::vec(0u8..=255, 0..64)),
            proptest::collection::vec(
                (any::<u16>(), any::<u32>(), arb_array32(), arb_array32()),
                0..6,
            ),
            proptest::collection::vec((any::<u64>(), arb_wire_health()), 0..12),
        )
            .prop_map(
                |(epoch, (devices, (a, s, t, u)), (bitmap_base, bitmap), proofs, suspects)| {
                    // The wire form carries the epoch once at frame level,
                    // so every proof in a frame shares it by construction.
                    Frame::OpAggSweepResult {
                        epoch,
                        devices,
                        counts: [a, s, t, u],
                        bitmap_base,
                        bitmap,
                        proofs: proofs
                            .into_iter()
                            .map(|(shard, count, root, mac)| AggProof {
                                shard,
                                epoch,
                                count,
                                root,
                                mac,
                            })
                            .collect(),
                        suspects,
                    }
                },
            ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // encode → decode is the identity for every representable frame.
    #[test]
    fn frame_round_trips(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert!(bytes.len() >= FRAME_HEADER_LEN);
        // The paused-campaign carriers get the larger operator-plane
        // ceiling; everything else stays under the regular one.
        let ceiling = match frame {
            Frame::OpResume { .. }
            | Frame::OpPaused { .. }
            | Frame::OpReport { .. }
            | Frame::OpAggSweepResult { .. }
            | Frame::OpDrained { .. }
            | Frame::OpMetricsResult { .. }
            | Frame::OpCheckpointAck { .. } => MAX_OP_PAYLOAD,
            _ => MAX_FRAME_PAYLOAD,
        };
        prop_assert!(bytes.len() <= FRAME_HEADER_LEN + ceiling);
        let decoded = Frame::decode(&bytes).expect("well-formed frames decode");
        prop_assert_eq!(decoded, frame);
    }

    // The streaming decoder produces the same frames regardless of how
    // the byte stream is chunked.
    #[test]
    fn streaming_decode_is_chunking_invariant(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        chunk in 1usize..64,
    ) {
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            decoder.extend(piece);
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    // Seeded interleavings of extends and partial decodes: after every
    // step the decoder holds exactly the bytes fed minus the bytes of
    // the frames it returned, however reading from an offset, clearing
    // and compaction have moved them; and the frames come out in order.
    #[test]
    fn buffered_is_fed_minus_decoded_under_any_interleaving(
        frames in proptest::collection::vec(arb_frame(), 1..12),
        pattern in proptest::collection::vec((1usize..300, 0usize..4), 1..64),
    ) {
        let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        let stream = encoded.concat();
        let mut decoder = FrameDecoder::new();
        let (mut fed, mut decoded_bytes, mut decoded) = (0usize, 0usize, Vec::new());
        for &(chunk, decodes) in pattern.iter().cycle() {
            let take = chunk.min(stream.len() - fed);
            decoder.extend(&stream[fed..fed + take]);
            fed += take;
            prop_assert_eq!(decoder.buffered(), fed - decoded_bytes);
            // The last pass drains everything that is complete.
            let decodes = if fed == stream.len() { usize::MAX } else { decodes };
            for _ in 0..decodes {
                match decoder.next_frame().expect("valid stream") {
                    Some(frame) => {
                        decoded_bytes += encoded[decoded.len()].len();
                        decoded.push(frame);
                        prop_assert_eq!(decoder.buffered(), fed - decoded_bytes);
                    }
                    None => break,
                }
            }
            if fed == stream.len() {
                break;
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    // A corrupt header after K good frames, in one burst or fed in
    // seeded chunks: the decoder yields the K frames, then the error a
    // fresh decoder gives for the corrupt frame alone, and keeps giving
    // it (the stream stays poisoned).
    #[test]
    fn a_corrupt_header_after_k_good_frames_yields_k_frames_then_its_error(
        frames in proptest::collection::vec(arb_frame(), 0..8),
        corrupt in arb_frame(),
        (field, value) in (0usize..10, 0u8..=255),
        chunk in 1usize..512,
    ) {
        let mut bad = corrupt.encode();
        // Corrupt magic, version or length into a header error; keep
        // the type byte (an unknown one also fails, from the header).
        match field {
            0..=3 => bad[field] ^= value | 1,
            4 => bad[4] = PROTOCOL_VERSION.wrapping_add(1 + value % 200),
            5 => bad[5] = 0xF0 | value,
            _ => bad[6..10].copy_from_slice(&(MAX_OP_PAYLOAD as u32 + 1 + u32::from(value)).to_le_bytes()),
        }
        let mut alone = FrameDecoder::new();
        alone.extend(&bad);
        let expected = alone.next_frame();
        prop_assert!(expected.is_err(), "corruption {field} left {expected:?}");

        let mut stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let good = stream.len();
        stream.extend_from_slice(&bad);
        let mut decoder = FrameDecoder::new();
        let (mut decoded, mut error, mut fed) = (Vec::new(), None, 0);
        for piece in stream.chunks(chunk) {
            decoder.extend(piece);
            fed += piece.len();
            loop {
                match decoder.next_frame() {
                    Ok(Some(frame)) => decoded.push(frame),
                    Ok(None) => break,
                    Err(err) => {
                        error = Some(err);
                        break;
                    }
                }
            }
            if error.is_some() {
                break;
            }
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(error.map(Err), Some(expected.clone()));
        prop_assert_eq!(decoder.next_frame(), expected);
        prop_assert_eq!(decoder.buffered(), fed - good);
    }

    // Every strict prefix of a valid frame is Truncated — a typed
    // error, never a panic.
    #[test]
    fn every_truncation_is_a_typed_error(frame in arb_frame()) {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => prop_assert!(false, "prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    // Arbitrary garbage never panics the decoder: it either fails with
    // a typed error or asks for more input.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&bytes);
        // Pump until the decoder errors or stalls; both are fine.
        for _ in 0..32 {
            match decoder.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}

#[test]
fn malformed_corpus_yields_clean_typed_errors() {
    let template = Frame::Attach {
        device: 42,
        cohort: WorkloadId::LightSensor,
    }
    .encode();

    // Truncated length prefix: the header itself is cut short.
    assert!(matches!(
        Frame::decode(&template[..FRAME_HEADER_LEN - 3]),
        Err(WireError::Truncated { .. })
    ));

    // Oversized claim: the length field requests more than the cap.
    let mut oversized = template.clone();
    oversized[6..10].copy_from_slice(&((MAX_FRAME_PAYLOAD + 1) as u32).to_le_bytes());
    assert_eq!(
        Frame::decode(&oversized),
        Err(WireError::Oversized {
            claimed: MAX_FRAME_PAYLOAD + 1,
            max: MAX_FRAME_PAYLOAD,
        })
    );

    // Wrong version: rejected from the header alone.
    let mut wrong_version = template.clone();
    wrong_version[4] = PROTOCOL_VERSION + 1;
    assert_eq!(
        Frame::decode(&wrong_version),
        Err(WireError::UnsupportedVersion(PROTOCOL_VERSION + 1))
    );

    // Unknown frame type.
    let mut unknown_type = template.clone();
    unknown_type[5] = 0x7F;
    assert_eq!(
        Frame::decode(&unknown_type),
        Err(WireError::UnknownFrameType(0x7F))
    );

    // Unknown cohort discriminant inside the payload.
    let mut bad_cohort = template.clone();
    let len = bad_cohort.len();
    bad_cohort[len - 1] = 0xEE;
    assert!(matches!(
        Frame::decode(&bad_cohort),
        Err(WireError::BadEnum {
            field: "cohort",
            ..
        })
    ));

    // Payload longer than the frame's structure.
    let mut trailing = template.clone();
    trailing.push(0);
    trailing[6..10].copy_from_slice(&10u32.to_le_bytes());
    assert!(matches!(
        Frame::decode(&trailing),
        Err(WireError::TrailingBytes { .. })
    ));

    // An update whose segment length field lies about its size.
    let mut request = Frame::DeltaUpdateRequest {
        device: 1,
        request: DeltaUpdateRequest::whole(UpdateRequest {
            target: 0xE000,
            payload: vec![1, 2, 3, 4],
            nonce: 9,
            version: 0,
            mac: [0; 32],
        }),
    }
    .encode();
    // The segment length sits after header(10) + device(8) + target(2)
    // + nonce(8) + version(8) + base_len(4) + segment count(4) +
    // offset(4).
    request[48..52].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&request),
        Err(WireError::BadPayload(_))
    ));
}

/// A full image at the casu wire maximum, sent as the one-segment delta
/// that replaced the full-image frame, fits the regular frame ceiling
/// and round-trips.
#[test]
fn wire_maximum_full_image_update_round_trips() {
    let frame = Frame::DeltaUpdateRequest {
        device: u64::MAX,
        request: DeltaUpdateRequest::whole(UpdateRequest {
            target: 0xE000,
            payload: vec![0xA5; eilid_casu::wire::MAX_UPDATE_PAYLOAD],
            nonce: u64::MAX,
            version: u64::MAX,
            mac: [7; 32],
        }),
    };
    let bytes = frame.encode();
    assert!(bytes.len() - FRAME_HEADER_LEN <= MAX_FRAME_PAYLOAD);
    assert_eq!(Frame::decode(&bytes), Ok(frame));
}

/// Malformed operator-plane and device-plane (version 3) frames die
/// with clean typed errors — the `CampaignStatus` coverage the frames
/// gained when the gateway started emitting them on wave boundaries,
/// plus the bigger structures around them.
#[test]
fn malformed_operator_plane_corpus_yields_clean_typed_errors() {
    // CampaignStatus: truncated at every strict prefix.
    let status = Frame::CampaignStatus {
        cohort: WorkloadId::LightSensor,
        state: eilid_net::CAMPAIGN_STATE_RUNNING,
        wave_cursor: 3,
    }
    .encode();
    for cut in 0..status.len() {
        assert!(matches!(
            Frame::decode(&status[..cut]),
            Err(WireError::Truncated { .. })
        ));
    }
    // CampaignStatus: unknown cohort discriminant (first payload byte).
    let mut bad_cohort = status.clone();
    bad_cohort[FRAME_HEADER_LEN] = 0xEE;
    assert!(matches!(
        Frame::decode(&bad_cohort),
        Err(WireError::BadEnum {
            field: "cohort",
            ..
        })
    ));
    // CampaignStatus: trailing bytes past the fixed structure.
    let mut trailing = status.clone();
    trailing.push(0xAA);
    trailing[6..10].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        Frame::decode(&trailing),
        Err(WireError::TrailingBytes { .. })
    ));

    // OpBegin: a zero-length campaign payload is structurally invalid
    // (like an empty update payload).
    let mut begin = Frame::OpBegin {
        config: CampaignConfig::new(WorkloadId::LightSensor, 0xF600, vec![1, 2, 3]),
    }
    .encode();
    // Payload length sits after header(10) + cohort(1) + target(2)
    // + 4×u64(32) + delta flag(1).
    begin[46..50].copy_from_slice(&0u32.to_le_bytes());
    begin.truncate(50);
    begin[6..10].copy_from_slice(&40u32.to_le_bytes());
    assert!(matches!(
        Frame::decode(&begin),
        Err(WireError::BadPayload(_))
    ));

    // OpPaused: a length claim past the operator-plane ceiling is
    // rejected from the header alone, before any payload is buffered.
    let mut paused = Frame::OpPaused {
        cohort: WorkloadId::LightSensor,
        paused: vec![0; 8],
    }
    .encode();
    paused[6..10].copy_from_slice(&((MAX_OP_PAYLOAD + 1) as u32).to_le_bytes());
    assert_eq!(
        Frame::decode(&paused),
        Err(WireError::Oversized {
            claimed: MAX_OP_PAYLOAD + 1,
            max: MAX_OP_PAYLOAD,
        })
    );
    // ...and an *inner* record-length claim exceeding what the frame
    // holds is a typed payload error.
    let mut paused = Frame::OpPaused {
        cohort: WorkloadId::LightSensor,
        paused: vec![0; 8],
    }
    .encode();
    paused[11..15].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&paused),
        Err(WireError::BadPayload(_)) | Err(WireError::Truncated { .. })
    ));

    // ProbeRequest: unknown probe mode discriminant.
    let mut probe = Frame::ProbeRequest {
        device: 1,
        mode: ProbeMode::UpdateProbe,
        smoke_cycles: 1000,
        challenge: Challenge {
            nonce: 1,
            start: 0xE000,
            end: 0xF7FF,
        },
    }
    .encode();
    probe[FRAME_HEADER_LEN + 8] = 0x77; // mode byte, after the device id
    assert!(matches!(
        Frame::decode(&probe),
        Err(WireError::BadEnum {
            field: "probe mode",
            ..
        })
    ));

    // OpReport: unknown outcome tag.
    let mut report = Frame::OpReport {
        cohort: WorkloadId::LightSensor,
        report: CampaignReport {
            outcome: CampaignOutcome::Completed { updated: 4 },
            waves: vec![],
            quarantined: vec![],
            rollback_incomplete: vec![],
        },
    }
    .encode();
    report[FRAME_HEADER_LEN + 1] = 0x99; // outcome tag, after the cohort
    assert!(matches!(
        Frame::decode(&report),
        Err(WireError::BadEnum {
            field: "campaign outcome",
            ..
        })
    ));

    // OpDrained (version 4): a record count the remaining bytes cannot
    // hold is rejected before any allocation.
    let template = Frame::OpDrained {
        paused: vec![(WorkloadId::LightSensor, vec![1, 2, 3, 4])],
    }
    .encode();
    let mut drained = template.clone();
    drained[FRAME_HEADER_LEN..FRAME_HEADER_LEN + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&drained),
        Err(WireError::BadPayload(_))
    ));
    // ...an unknown cohort discriminant in a record dies typed...
    let mut drained = template.clone();
    drained[FRAME_HEADER_LEN + 4] = 0xEE;
    assert!(matches!(
        Frame::decode(&drained),
        Err(WireError::BadEnum {
            field: "cohort",
            ..
        })
    ));
    // ...and so does an inner record length lying past the frame end.
    let mut drained = template;
    drained[FRAME_HEADER_LEN + 5..FRAME_HEADER_LEN + 9].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&drained),
        Err(WireError::BadPayload(_)) | Err(WireError::Truncated { .. })
    ));
}

/// Version-5 telemetry frames: malformed `OpMetricsResult` payloads
/// die typed, and a version-4 peer's decoder rejects the new verbs
/// from the header alone (the version byte precedes the type byte, so
/// an old peer never even learns these types exist).
#[test]
fn malformed_metrics_corpus_yields_clean_typed_errors() {
    let template = Frame::OpMetricsResult {
        snapshot: br#"{"v":1,"counters":[],"gauges":[],"histograms":[]}"#.to_vec(),
    }
    .encode();

    // Truncated at every strict prefix.
    for cut in 0..template.len() {
        assert!(matches!(
            Frame::decode(&template[..cut]),
            Err(WireError::Truncated { .. })
        ));
    }

    // A header length claim past the operator-plane ceiling is
    // rejected before any payload is buffered.
    let mut oversized = template.clone();
    oversized[6..10].copy_from_slice(&((MAX_OP_PAYLOAD + 1) as u32).to_le_bytes());
    assert_eq!(
        Frame::decode(&oversized),
        Err(WireError::Oversized {
            claimed: MAX_OP_PAYLOAD + 1,
            max: MAX_OP_PAYLOAD,
        })
    );

    // Trailing bytes past the declared snapshot are a typed error.
    let mut trailing = template.clone();
    trailing.push(0xAA);
    let claimed = (trailing.len() - FRAME_HEADER_LEN) as u32;
    trailing[6..10].copy_from_slice(&claimed.to_le_bytes());
    assert!(matches!(
        Frame::decode(&trailing),
        Err(WireError::TrailingBytes { .. })
    ));

    // An inner snapshot-length claim the frame cannot hold dies typed.
    let mut lying = template.clone();
    lying[FRAME_HEADER_LEN..FRAME_HEADER_LEN + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&lying),
        Err(WireError::BadPayload(_)) | Err(WireError::Truncated { .. })
    ));

    // A version-4 peer (or any non-v5 peer) rejects both new verbs
    // from the version byte alone — no v4 decoder ever reaches the
    // 0x1F/0x20 type bytes.
    for frame in [
        Frame::OpMetrics,
        Frame::OpMetricsResult { snapshot: vec![] },
    ] {
        let mut v4 = frame.encode();
        v4[4] = PROTOCOL_VERSION - 1;
        assert_eq!(
            Frame::decode(&v4),
            Err(WireError::UnsupportedVersion(PROTOCOL_VERSION - 1))
        );
    }

    // OpMetrics itself is an empty-payload frame; extra bytes are
    // trailing garbage, not silently ignored.
    let mut metrics = Frame::OpMetrics.encode();
    metrics.push(0x01);
    metrics[6..10].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        Frame::decode(&metrics),
        Err(WireError::TrailingBytes { .. })
    ));
}

/// Version-6 frames (delta updates, retention checkpoints): malformed
/// payloads die typed, and pre-v6 peers reject the new verbs from the
/// version byte alone.
#[test]
fn malformed_v6_corpus_yields_clean_typed_errors() {
    // DeltaUpdateRequest: a segment count the remaining bytes cannot
    // hold is rejected before any allocation.
    let template = Frame::DeltaUpdateRequest {
        device: 7,
        request: DeltaUpdateRequest {
            target: 0xE000,
            base_len: 128,
            segments: vec![DeltaSegment {
                offset: 64,
                bytes: vec![0xAB; 64],
            }],
            nonce: 3,
            version: 1,
            mac: [0; 32],
        },
    }
    .encode();
    // Truncated at every strict prefix.
    for cut in 0..template.len() {
        assert!(matches!(
            Frame::decode(&template[..cut]),
            Err(WireError::Truncated { .. })
        ));
    }
    // Segment count sits after header(10) + device(8) + target(2)
    // + nonce(8) + version(8) + base_len(4).
    let mut lying = template.clone();
    lying[40..44].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&lying),
        Err(WireError::BadPayload(_)) | Err(WireError::Truncated { .. })
    ));

    // OpCheckpoint: unknown cohort discriminant dies typed.
    let mut checkpoint = Frame::OpCheckpoint {
        cohort: WorkloadId::LightSensor,
    }
    .encode();
    checkpoint[FRAME_HEADER_LEN] = 0xEE;
    assert!(matches!(
        Frame::decode(&checkpoint),
        Err(WireError::BadEnum {
            field: "cohort",
            ..
        })
    ));

    // OpCheckpointAck: an inner record-length claim past the frame end
    // is a typed error, and a header claim past the operator ceiling is
    // rejected before buffering.
    let ack = Frame::OpCheckpointAck {
        cohort: WorkloadId::LightSensor,
        paused: vec![0; 8],
    }
    .encode();
    let mut lying = ack.clone();
    lying[FRAME_HEADER_LEN + 1..FRAME_HEADER_LEN + 5].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        Frame::decode(&lying),
        Err(WireError::BadPayload(_)) | Err(WireError::Truncated { .. })
    ));
    let mut oversized = ack;
    oversized[6..10].copy_from_slice(&((MAX_OP_PAYLOAD + 1) as u32).to_le_bytes());
    assert_eq!(
        Frame::decode(&oversized),
        Err(WireError::Oversized {
            claimed: MAX_OP_PAYLOAD + 1,
            max: MAX_OP_PAYLOAD,
        })
    );

    // A pre-v6 peer rejects every new verb from the version byte alone.
    for frame in [
        template.clone(),
        Frame::OpCheckpoint {
            cohort: WorkloadId::LightSensor,
        }
        .encode(),
        Frame::OpCheckpointAck {
            cohort: WorkloadId::LightSensor,
            paused: vec![],
        }
        .encode(),
    ] {
        let mut v5 = frame;
        v5[4] = PROTOCOL_VERSION - 1;
        assert_eq!(
            Frame::decode(&v5),
            Err(WireError::UnsupportedVersion(PROTOCOL_VERSION - 1))
        );
    }
}

/// Version-7 frames (collective attestation): malformed
/// `OpAggSweepResult` payloads die typed — a forged bitmap, proof or
/// suspect count can never drive an allocation past the frame — and
/// pre-v7 peers reject both new verbs from the version byte alone.
#[test]
fn malformed_v7_corpus_yields_clean_typed_errors() {
    let template = Frame::OpAggSweepResult {
        epoch: 9,
        devices: 4,
        counts: [3, 0, 1, 0],
        bitmap_base: 0,
        bitmap: vec![0x0F],
        proofs: vec![AggProof {
            shard: 3,
            epoch: 9,
            count: 4,
            root: [0x11; 32],
            mac: [0x22; 32],
        }],
        suspects: vec![(2, WireHealth::Tampered)],
    }
    .encode();

    // Truncated at every strict prefix.
    for cut in 0..template.len() {
        assert!(matches!(
            Frame::decode(&template[..cut]),
            Err(WireError::Truncated { .. })
        ));
    }

    // Payload layout after the 10-byte header: epoch(8) devices(4)
    // counts(16) bitmap_base(8) bitmap_len(4) bitmap(1) proofs_count(4)
    // proof(70) suspects_count(4) suspect(9). Forge each list count in
    // turn to claim more than the frame holds.
    let bitmap_len_at = FRAME_HEADER_LEN + 36;
    let proofs_count_at = FRAME_HEADER_LEN + 41;
    let suspects_count_at = template.len() - 13;
    for at in [bitmap_len_at, proofs_count_at, suspects_count_at] {
        let mut lying = template.clone();
        lying[at..at + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Frame::decode(&lying),
            Err(WireError::BadPayload(_)) | Err(WireError::Truncated { .. })
        ));
    }

    // A header length claim past the operator-plane ceiling is
    // rejected before any payload is buffered.
    let mut oversized = template.clone();
    oversized[6..10].copy_from_slice(&((MAX_OP_PAYLOAD + 1) as u32).to_le_bytes());
    assert_eq!(
        Frame::decode(&oversized),
        Err(WireError::Oversized {
            claimed: MAX_OP_PAYLOAD + 1,
            max: MAX_OP_PAYLOAD,
        })
    );

    // Trailing bytes past the declared suspect list are a typed error.
    let mut trailing = template.clone();
    trailing.push(0xAA);
    let claimed = (trailing.len() - FRAME_HEADER_LEN) as u32;
    trailing[6..10].copy_from_slice(&claimed.to_le_bytes());
    assert!(matches!(
        Frame::decode(&trailing),
        Err(WireError::TrailingBytes { .. })
    ));

    // An unknown suspect health discriminant dies typed.
    let mut bad_health = template.clone();
    let last = bad_health.len() - 1;
    bad_health[last] = 0xEE;
    assert!(matches!(
        Frame::decode(&bad_health),
        Err(WireError::BadEnum { .. })
    ));

    // A pre-v7 peer rejects both new verbs from the version byte alone.
    for frame in [Frame::OpAggSweep.encode(), template] {
        let mut v6 = frame;
        v6[4] = PROTOCOL_VERSION - 1;
        assert_eq!(
            Frame::decode(&v6),
            Err(WireError::UnsupportedVersion(PROTOCOL_VERSION - 1))
        );
    }

    // OpAggSweep itself is an empty-payload frame; extra bytes are
    // trailing garbage, not silently ignored.
    let mut sweep = Frame::OpAggSweep.encode();
    sweep.push(0x01);
    sweep[6..10].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        Frame::decode(&sweep),
        Err(WireError::TrailingBytes { .. })
    ));
}

/// "Wrong MAC domain tag": a report whose MAC was minted under the
/// update-protocol tag decodes fine — the codec is structural — and is
/// then rejected by the MAC layer with a clean typed error. The codec
/// and the crypto each reject exactly their own layer's garbage.
#[test]
fn cross_protocol_mac_is_rejected_by_the_mac_layer_not_the_codec() {
    use eilid_casu::{AttestError, AttestationVerifier, UpdateAuthority};
    let key = b"net-cross-protocol-key-012345678";
    let mut authority = UpdateAuthority::new(key);
    let update = authority.authorize(0xE000, &[0xAA; 32]);

    let challenge = Challenge {
        nonce: 77,
        start: 0xE000,
        end: 0xF7FF,
    };
    let forged = Frame::ProbeResult {
        device: 5,
        healthy: 1,
        report: AttestationReport {
            challenge,
            measurement: [0xAA; 32],
            mac: update.mac,
        },
    };
    let decoded = Frame::decode(&forged.encode()).expect("structurally valid");
    let Frame::ProbeResult { report, .. } = decoded else {
        panic!("decoded to a different frame type");
    };
    assert_eq!(
        AttestationVerifier::new(key).verify(&challenge, &report, None),
        Err(AttestError::BadMac),
        "the domain-separation tag must kill the cross-protocol graft"
    );
}
