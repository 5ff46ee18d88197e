//! HMAC-SHA-256 (RFC 2104 / RFC 4231).
//!
//! Used by the CASU secure-update protocol to authenticate update requests
//! with a device key shared between the device's RoT and the update
//! authority.

use std::fmt;

use crate::sha256::{Sha256, BLOCK_SIZE, DIGEST_SIZE};

/// Size of an HMAC-SHA-256 tag in bytes.
pub const TAG_SIZE: usize = DIGEST_SIZE;

/// A key's HMAC-SHA-256 schedule: the SHA-256 states after the key's
/// ipad block and after its opad block.
///
/// Both blocks depend on the key alone, so holders that MAC many
/// messages under one key compute them once, here, and every
/// [`HmacKey::mac`] starts from the saved states: two compressions
/// fewer per tag than hashing the key blocks again.
///
/// A schedule is as secret as the key (it MACs like the key), so it
/// gets the same treatment as [`crate::DeviceKey`]: no `Serialize`, and
/// a `Debug` that prints nothing of it.
#[derive(Clone, Copy)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Computes the schedule of `key` (hashed first if it is longer
    /// than a block, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            key_block[..DIGEST_SIZE].copy_from_slice(&crate::sha256::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        HmacKey {
            inner: Sha256::state_after_block(&key_block.map(|b| b ^ 0x36)),
            outer: Sha256::state_after_block(&key_block.map(|b| b ^ 0x5c)),
        }
    }

    /// `HMAC-SHA256(key, message)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use eilid_casu::hmac::{hmac_sha256, HmacKey};
    ///
    /// let key = HmacKey::new(b"key");
    /// let message = b"The quick brown fox jumps over the lazy dog";
    /// assert_eq!(key.mac(message), hmac_sha256(b"key", message));
    /// ```
    pub fn mac(&self, message: &[u8]) -> [u8; TAG_SIZE] {
        let mut inner = Sha256::resume_after_block(self.inner);
        inner.update(message);
        let mut outer = Sha256::resume_after_block(self.outer);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

// Schedules must never leak through debug logs.
impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HmacKey([redacted])")
    }
}

/// Computes `HMAC-SHA256(key, message)`: [`HmacKey::mac`] under a
/// schedule used once.
///
/// # Examples
///
/// ```
/// use eilid_casu::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; TAG_SIZE] {
    HmacKey::new(key).mac(message)
}

/// Constant-time comparison of two MAC tags.
///
/// Avoids early-exit timing differences when the device verifies an update
/// request, mirroring the constant-time comparison CASU's trusted software
/// performs.
pub fn verify_tag(expected: &[u8; TAG_SIZE], provided: &[u8]) -> bool {
    if provided.len() != TAG_SIZE {
        return false;
    }
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(provided.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 §4.2–4.8, test cases 1–7. Case 5 compares the first
    /// 128 bits only, as the RFC does.
    const RFC4231: [(&str, &str, &str); 7] = [
        (
            "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
            "4869205468657265",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            "4a656665",
            "7768617420646f2079612077616e7420666f72206e6f7468696e673f",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "dddddddddddddddddddddddddddddddddddddddddddddddddd\
             dddddddddddddddddddddddddddddddddddddddddddddddddd",
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            "0102030405060708090a0b0c0d0e0f10111213141516171819",
            "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd\
             cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            "0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c",
            "546573742057697468205472756e636174696f6e",
            "a3b6167473100ee06e0c796c2955552b",
        ),
        (
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
             aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
             aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
             aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "54657374205573696e67204c6172676572205468616e20426c6f636b2d53697a\
             65204b6579202d2048617368204b6579204669727374",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
             aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
             aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\
             aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "5468697320697320612074657374207573696e672061206c6172676572207468\
             616e20626c6f636b2d73697a65206b657920616e642061206c61726765722074\
             68616e20626c6f636b2d73697a6520646174612e20546865206b6579206e6565\
             647320746f20626520686173686564206265666f7265206265696e6720757365\
             642062792074686520484d414320616c676f726974686d2e",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];

    fn unhex(text: &str) -> Vec<u8> {
        let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc4231_test_cases_1_to_7() {
        for (case, (key, data, tag)) in RFC4231.iter().enumerate() {
            let (key, data) = (unhex(key), unhex(data));
            let expected = tag.replace(char::is_whitespace, "");
            let full = HmacKey::new(&key).mac(&data);
            assert_eq!(
                hex(&full[..expected.len() / 2]),
                expected,
                "case {}",
                case + 1
            );
            assert_eq!(hmac_sha256(&key, &data), full, "case {}", case + 1);
        }
    }

    #[test]
    fn debug_prints_no_schedule_bytes() {
        let key = b"super-secret-key-material!";
        let schedule = HmacKey::new(key);
        let debug = format!("{schedule:?}");
        assert!(debug.contains("redacted"));
        assert!(!debug.contains("super-secret"));
        for word in schedule.inner.iter().chain(&schedule.outer) {
            assert!(!debug.contains(&word.to_string()), "{debug}");
            assert!(!debug.contains(&format!("{word:x}")), "{debug}");
        }
    }

    #[test]
    fn verify_tag_accepts_and_rejects() {
        let tag = hmac_sha256(b"key", b"msg");
        assert!(verify_tag(&tag, &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify_tag(&tag, &bad));
        assert!(!verify_tag(&tag, &tag[..31]));
    }

    #[test]
    fn different_keys_give_different_tags() {
        assert_ne!(hmac_sha256(b"key1", b"m"), hmac_sha256(b"key2", b"m"));
        assert_ne!(hmac_sha256(b"key", b"m1"), hmac_sha256(b"key", b"m2"));
    }
}
