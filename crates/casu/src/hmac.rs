//! HMAC-SHA-256 (RFC 2104 / RFC 4231).
//!
//! Used by the CASU secure-update protocol to authenticate update requests
//! with a device key shared between the device's RoT and the update
//! authority.

use crate::sha256::{Sha256, BLOCK_SIZE, DIGEST_SIZE};

/// Size of an HMAC-SHA-256 tag in bytes.
pub const TAG_SIZE: usize = DIGEST_SIZE;

/// Computes `HMAC-SHA256(key, message)`.
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
    let mut key_block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        let digest = crate::sha256::sha256(key);
        key_block[..DIGEST_SIZE].copy_from_slice(&digest);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut inner = Sha256::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(&inner_digest);
    outer.finalize()
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

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_test_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
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
