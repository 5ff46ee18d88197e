//! Adversarial tests for the attestation protocol: every way an attacker
//! (controlling the transport, per the threat model) can mangle a report
//! must fail verification — wrong nonce, truncated attested range,
//! flipped measurement bytes, replayed reports and cross-protocol reuse
//! of MACs between the attestation and update protocols. A randomized
//! sweep backs the hand-picked cases.

use eilid_casu::{
    hmac_sha256, sha256, AttestError, AttestationReport, AttestationVerifier, Attestor, Challenge,
    DeviceKey, HmacKey, UpdateAuthority, UpdateEngine, UpdateError, UpdateRequest, LAYOUT,
};
use eilid_msp430::Memory;
use proptest::prelude::*;

const ROOT: &[u8] = b"fleet-root-key-0123456789abcdef";

fn setup() -> (Attestor, AttestationVerifier, Memory) {
    let key = DeviceKey::new(ROOT).unwrap().derive(42);
    let mut memory = Memory::new();
    // A plausible firmware image: non-uniform so range truncation changes
    // the measurement.
    let image: Vec<u8> = (0..512u32).map(|i| (i * 31 % 251) as u8).collect();
    memory.load(0xE000, &image).unwrap();
    (
        Attestor::with_key(&key),
        AttestationVerifier::with_key(&key),
        memory,
    )
}

#[test]
fn wrong_nonce_fails_verification() {
    let (attestor, verifier, memory) = setup();
    let issued = verifier.challenge_pmem(1000);

    // The prover answers a challenge with a different nonce (e.g. an
    // attacker precomputed a response to a guessed nonce).
    let wrong = Challenge {
        nonce: 999,
        ..issued
    };
    let report = attestor.attest(&memory, wrong);
    assert_eq!(
        verifier.verify(&issued, &report, None),
        Err(AttestError::ChallengeMismatch)
    );

    // Rewriting the embedded challenge to look fresh breaks the MAC
    // instead: the nonce is authenticated.
    let mut forged = report;
    forged.challenge.nonce = issued.nonce;
    assert_eq!(
        verifier.verify(&issued, &forged, None),
        Err(AttestError::BadMac)
    );
}

#[test]
fn truncated_range_fails_verification() {
    let (attestor, verifier, memory) = setup();
    let issued = verifier.challenge_pmem(7);

    // The prover attests a truncated range (hiding the tail of PMEM where
    // an implant lives).
    let truncated = Challenge {
        end: issued.end - 0x100,
        ..issued
    };
    let report = attestor.attest(&memory, truncated);
    assert_eq!(
        verifier.verify(&issued, &report, None),
        Err(AttestError::ChallengeMismatch)
    );

    // Claiming the full range over the truncated measurement breaks the
    // MAC: the range bounds are authenticated.
    let mut forged = report;
    forged.challenge = issued;
    assert_eq!(
        verifier.verify(&issued, &forged, None),
        Err(AttestError::BadMac)
    );
}

#[test]
fn flipped_measurement_byte_fails_verification() {
    let (attestor, verifier, memory) = setup();
    let issued = verifier.challenge_pmem(3);
    let good = attestor.attest(&memory, issued);
    verifier.verify(&issued, &good, None).unwrap();

    for position in [0, 15, 31] {
        let mut tampered = good;
        tampered.measurement[position] ^= 0x01;
        assert_eq!(
            verifier.verify(&issued, &tampered, None),
            Err(AttestError::BadMac),
            "flipping measurement byte {position} must break the MAC"
        );
    }
}

#[test]
fn replayed_report_fails_verification() {
    let (attestor, verifier, memory) = setup();

    // Round 1: honest attestation, attacker records the report.
    let round1 = verifier.challenge_pmem(100);
    let recorded = attestor.attest(&memory, round1);
    verifier.verify(&round1, &recorded, None).unwrap();

    // The device is then compromised; the attacker replays the recorded
    // report against the next challenge instead of attesting the (now
    // modified) memory.
    let round2 = verifier.challenge_pmem(101);
    assert_eq!(
        verifier.verify(&round2, &recorded, None),
        Err(AttestError::ChallengeMismatch),
        "a recorded report must not satisfy a fresh challenge"
    );
}

#[test]
fn report_from_anothers_device_key_fails_verification() {
    let root = DeviceKey::new(ROOT).unwrap();
    let memory = Memory::new();
    let verifier_for_7 = AttestationVerifier::with_key(&root.derive(7));
    let challenge = verifier_for_7.challenge_pmem(1);

    // Device 8 (compromised) cannot answer for device 7.
    let report = Attestor::with_key(&root.derive(8)).attest(&memory, challenge);
    assert_eq!(
        verifier_for_7.verify(&challenge, &report, None),
        Err(AttestError::BadMac)
    );
}

/// Cross-protocol MAC confusion, direction 1: a report MAC must never
/// authorize an update. Devices key the attestor and the update engine
/// with the same device key, and without domain-separation tags the two
/// message formats align exactly — report message `nonce(8) ‖ start(2) ‖
/// end(2) ‖ measurement(32)` re-parses as update message `target(2) ‖
/// nonce(8) ‖ payload(34)`. An attacker who controls the challenge (the
/// transport is attacker-controlled and challenges are unauthenticated)
/// could then pick nonce/start/end so the reflected report MAC passes
/// every update check — target inside PMEM, huge fresh nonce — and write
/// PMEM without the update authority. The domain tags must break this.
#[test]
fn attest_mac_cannot_authorize_an_update() {
    let key = DeviceKey::new(ROOT).unwrap().derive(42);
    let attestor = Attestor::with_key(&key);
    let engine = UpdateEngine::with_key(&key);
    let mut memory = Memory::new();
    memory.load(0xE000, &[0x5A; 64]).unwrap();

    // Attacker-crafted challenge: the nonce's low bytes become the forged
    // update target (0xE000, inside PMEM) and its high bytes make the
    // forged update nonce enormous (trivially fresh).
    let challenge = Challenge {
        nonce: u64::from_le_bytes([0x00, 0xE0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]),
        start: 0xE000,
        end: 0xE03F,
    };
    let report = attestor.attest(&memory, challenge);

    // Re-parse the report message as an update request: target =
    // nonce[0..2], nonce = nonce[2..8] ‖ start, payload = end ‖ measurement.
    let nonce_bytes = challenge.nonce.to_le_bytes();
    let target = u16::from_le_bytes([nonce_bytes[0], nonce_bytes[1]]);
    let mut forged_nonce = [0u8; 8];
    forged_nonce[..6].copy_from_slice(&nonce_bytes[2..8]);
    forged_nonce[6..].copy_from_slice(&challenge.start.to_le_bytes());
    let mut payload = Vec::with_capacity(34);
    payload.extend_from_slice(&challenge.end.to_le_bytes());
    payload.extend_from_slice(&report.measurement);

    let forged = UpdateRequest {
        target,
        payload,
        nonce: u64::from_le_bytes(forged_nonce),
        version: 0,
        mac: report.mac,
    };
    assert_eq!(engine.verify(&forged), Err(UpdateError::BadMac));
}

/// Cross-protocol MAC confusion, direction 2: an update-request MAC must
/// never verify as an attestation report. A legitimately authorized
/// 34-byte patch re-parses (absent domain tags) as a 44-byte report
/// message, letting a compromised device answer a challenge with a
/// recorded update MAC instead of measuring its memory.
#[test]
fn update_mac_cannot_forge_an_attestation_report() {
    let key = DeviceKey::new(ROOT).unwrap().derive(42);
    let mut authority = UpdateAuthority::with_key(&key);
    let verifier = AttestationVerifier::with_key(&key);

    let request = authority.authorize(0xE000, &[0xAB; 34]);

    // Re-parse the update message as a report: nonce = target ‖
    // update_nonce[0..6], start = update_nonce[6..8], end = payload[0..2],
    // measurement = payload[2..34].
    let update_nonce = request.nonce.to_le_bytes();
    let mut nonce_bytes = [0u8; 8];
    nonce_bytes[..2].copy_from_slice(&request.target.to_le_bytes());
    nonce_bytes[2..].copy_from_slice(&update_nonce[..6]);
    let challenge = Challenge {
        nonce: u64::from_le_bytes(nonce_bytes),
        start: u16::from_le_bytes([update_nonce[6], update_nonce[7]]),
        end: u16::from_le_bytes([request.payload[0], request.payload[1]]),
    };
    let mut measurement = [0u8; 32];
    measurement.copy_from_slice(&request.payload[2..34]);

    let forged = AttestationReport {
        challenge,
        measurement,
        mac: request.mac,
    };
    assert_eq!(
        verifier.verify(&challenge, &forged, None),
        Err(AttestError::BadMac)
    );
}

// --- stale-cache attacks on the incremental measurement engine ---------
//
// An attestor backed by an incremental Merkle engine caches leaf hashes
// and serves the root from that cache. The attack to rule out: tamper
// with measured memory *after* a measurement, hoping the engine misses
// the invalidation and keeps serving the pre-tamper root.

/// Tampering between two root requests is always visible: no mutation
/// path of `Memory` bypasses dirty tracking, so the engine can never
/// serve a stale cached root.
#[test]
fn stale_cache_attack_on_the_engine_is_detected() {
    use eilid_casu::merkle::{merkle_measure, IncrementalMeasurer};
    let (_, _, mut memory) = setup();
    let (start, end) = (*LAYOUT.pmem.start(), *LAYOUT.pmem.end());
    let mut measurer = IncrementalMeasurer::new(&mut memory, start, end);
    let golden = measurer.root(&mut memory);

    // The attacker patches one instruction after the measurement and
    // hopes the next measurement is served from cache.
    let original = memory.read_byte(0xE010);
    memory.write_byte(0xE010, original ^ 0x01);

    let next = measurer.root(&mut memory);
    assert_ne!(golden, next, "engine served a stale cached root");
    assert_eq!(
        next,
        merkle_measure(&memory, start, end),
        "post-tamper root must equal the from-scratch measurement"
    );

    // Repairing the byte produces the golden root again — the engine
    // tracks content, not history.
    memory.write_byte(0xE010, original);
    assert_eq!(golden, measurer.root(&mut memory));
}

/// A full attestation round through `Attestor::report` with an
/// engine-computed measurement: the tampered root never verifies against
/// the golden expectation, even when the challenge/MAC are honest.
#[test]
fn tampered_incremental_report_fails_golden_comparison() {
    use eilid_casu::merkle::IncrementalMeasurer;
    let (attestor, verifier, mut memory) = setup();
    let (start, end) = (*LAYOUT.pmem.start(), *LAYOUT.pmem.end());
    let mut measurer = IncrementalMeasurer::new(&mut memory, start, end);

    let golden = measurer.root(&mut memory);
    let challenge = verifier.challenge_pmem(77);
    let honest = attestor.report(challenge, measurer.root(&mut memory));
    verifier.verify(&challenge, &honest, Some(&golden)).unwrap();

    memory.write_byte(0xF000, memory.read_byte(0xF000) ^ 0x80);
    let challenge2 = verifier.challenge_pmem(78);
    let tampered = attestor.report(challenge2, measurer.root(&mut memory));
    assert_eq!(
        verifier.verify(&challenge2, &tampered, Some(&golden)),
        Err(AttestError::UnexpectedMeasurement),
        "tampered device must not re-attest against the golden root"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single-bit flip anywhere in the report (challenge fields,
    /// measurement or MAC) must fail verification.
    #[test]
    fn any_single_bit_flip_is_rejected(
        nonce in 0u64..1_000_000,
        flip_byte in 0usize..44,
        flip_bit in 0u8..8,
    ) {
        let (attestor, verifier, memory) = setup();
        let issued = Challenge { nonce, ..verifier.challenge_pmem(0) };
        let mut report = attestor.attest(&memory, issued);

        // Flip one bit across the concatenated mutable fields:
        // nonce (8) ‖ measurement (32) ‖ start (2) ‖ end (2).
        let mask = 1u8 << flip_bit;
        match flip_byte {
            0..=7 => report.challenge.nonce ^= u64::from(mask) << (8 * flip_byte as u32),
            8..=39 => report.measurement[flip_byte - 8] ^= mask,
            40..=41 => report.challenge.start ^= u16::from(mask) << (8 * (flip_byte - 40) as u32),
            _ => report.challenge.end ^= u16::from(mask) << (8 * (flip_byte - 42) as u32),
        }
        prop_assert!(verifier.verify(&issued, &report, None).is_err());
    }

    /// Flipping any byte of the MAC itself is rejected.
    #[test]
    fn mac_tampering_is_rejected(position in 0usize..32, mask in 1u8..=255) {
        let (attestor, verifier, memory) = setup();
        let issued = verifier.challenge_pmem(5);
        let mut report = attestor.attest(&memory, issued);
        report.mac[position] ^= mask;
        prop_assert_eq!(
            verifier.verify(&issued, &report, None),
            Err(AttestError::BadMac)
        );
    }
}

/// No holder of a key prints anything of it: the `Debug` output of the
/// schedule and of every protocol end built on it is the same under two
/// different keys, and shows neither key's bytes.
#[test]
fn debug_output_shows_no_key_or_schedule_bytes() {
    let keys = [
        DeviceKey::new(b"first-secret-key-material-0001").unwrap(),
        DeviceKey::new(b"other-secret-key-material-0002").unwrap(),
    ];
    let debug = |key: &DeviceKey| {
        [
            format!("{:?}", HmacKey::new(key.as_bytes())),
            format!("{:?}", key.schedule()),
            format!("{:?}", Attestor::with_key(key)),
            format!("{:?}", Attestor::new(key.as_bytes())),
            format!("{:?}", AttestationVerifier::with_key(key)),
            format!("{:?}", UpdateEngine::with_key(key)),
            format!("{:?}", UpdateAuthority::with_key(key)),
        ]
    };
    let (first, other) = (debug(&keys[0]), debug(&keys[1]));
    assert_eq!(first, other, "Debug output depends on the key");
    for (text, key) in first.iter().flat_map(|t| keys.iter().map(move |k| (t, k))) {
        assert!(text.contains("redacted"), "{text}");
        assert!(!text.contains("secret"), "{text}");
        assert!(!text.contains(&format!("{:?}", key.as_bytes())), "{text}");
    }
}

/// HMAC-SHA-256 the plain two-pass way (RFC 2104): hash the key down
/// if it is longer than a block, then `H(K ^ opad ‖ H(K ^ ipad ‖ m))`
/// over whole concatenated buffers.
fn reference_hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..32].copy_from_slice(&sha256(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(message);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&sha256(&inner));
    sha256(&outer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The one HMAC agrees with the two-pass reference on seeded keys
    /// and messages around every block boundary: keys shorter than,
    /// equal to and longer than a block (65 and 131 bytes are hashed
    /// first), and messages whose inner hash pads into one block (0,
    /// 55), spills into a second (56, 59 — the report message — 63,
    /// 64, 65) or a third (119, 120).
    #[test]
    fn hmac_matches_the_two_pass_reference(seed in any::<u64>()) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for key_len in [16usize, 32, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|_| next()).collect();
            for msg_len in [0usize, 55, 56, 59, 63, 64, 65, 119, 120] {
                let message: Vec<u8> = (0..msg_len).map(|_| next()).collect();
                let expected = reference_hmac(&key, &message);
                prop_assert_eq!(
                    HmacKey::new(&key).mac(&message),
                    expected,
                    "key {} bytes, message {} bytes", key_len, msg_len
                );
                prop_assert_eq!(hmac_sha256(&key, &message), expected);
            }
        }
    }
}
