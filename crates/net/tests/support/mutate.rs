//! A std-only, seeded mutation-fuzz loop for the byte parsers.
//!
//! Each case takes a valid encoding from the corpus and applies one to
//! four mutations: a bit flip, a byte insert, a byte delete, a
//! truncation, or a splice with another corpus entry. The loop is
//! seeded like the property suites: `PROPTEST_SEED` (decimal or `0x`
//! hex, `0` when unset) is mixed into a per-loop name seed, and
//! `PROPTEST_CASES` overrides the case count, so a failing case replays
//! bit-for-bit from the pair it prints.

use std::fmt::Debug;

use proptest::test_runner::{for_each_case, mix_seed, run_seed};

/// SplitMix64: small, fast and good enough to pick mutations.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A position in `0..len`: half the time in the first 64 bytes,
    /// where headers, tags and counts live, so large encodings still
    /// get their structure mutated.
    fn position(&mut self, len: usize) -> usize {
        if self.next() & 1 == 0 {
            self.below(len.min(64))
        } else {
            self.below(len)
        }
    }
}

/// One mutated copy of a corpus entry.
fn mutate(rng: &mut Rng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    for _ in 0..1 + rng.below(4) {
        match rng.below(5) {
            0 if !bytes.is_empty() => {
                let at = rng.position(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => {
                let at = rng.position(bytes.len() + 1);
                bytes.insert(at, rng.next() as u8);
            }
            2 if !bytes.is_empty() => {
                let at = rng.position(bytes.len());
                bytes.remove(at);
            }
            3 => {
                let at = rng.position(bytes.len() + 1);
                bytes.truncate(at);
            }
            4 => {
                let other = &corpus[rng.below(corpus.len())];
                let cut = rng.position(bytes.len() + 1);
                let from = rng.position(other.len() + 1);
                bytes.truncate(cut);
                bytes.extend_from_slice(&other[from..]);
            }
            _ => {}
        }
    }
    bytes
}

/// Runs `check` over `default_cases` mutated inputs (or
/// `PROPTEST_CASES`). A panic — from the parser or from a failed
/// round-trip assertion — is reported with the input and the replay
/// pair, then re-raised.
pub fn fuzz(name: &str, corpus: &[Vec<u8>], default_cases: u32, mut check: impl FnMut(&[u8])) {
    assert!(!corpus.is_empty(), "{name}: empty corpus");
    // FNV-1a over the loop name, then the run seed mixed in the same
    // way the vendored proptest mixes it.
    let name_seed = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    let mut rng = Rng(mix_seed(name_seed, run_seed()));
    for_each_case(name, default_cases, |_| {
        let input = mutate(&mut rng, corpus);
        let _shown = ShowOnPanic(&input);
        check(&input);
    });
}

/// Prints the input of a case that panics while it is alive.
struct ShowOnPanic<'a>(&'a [u8]);

impl Drop for ShowOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let input = self.0;
            let shown: String = input.iter().take(256).map(|b| format!("{b:02x}")).collect();
            eprintln!("input ({} bytes, first 256 shown): {shown}", input.len());
        }
    }
}

/// Asserts that `again` — `value` encoded and decoded once more — is
/// the same value. Values holding a NaN are not equal to themselves
/// under `PartialEq`; for those the two encodings must be bit-equal
/// instead.
pub fn assert_round_trip<T: PartialEq + Debug + ?Sized>(
    value: &T,
    again: &T,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    #[allow(clippy::eq_op)]
    let reflexive = value == value;
    if reflexive {
        assert_eq!(again, value, "re-encoded value decoded differently");
    } else {
        assert_eq!(
            encode(again),
            encode(value),
            "re-encoded value decoded differently"
        );
    }
}
