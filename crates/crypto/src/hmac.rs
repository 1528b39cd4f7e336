//! HMAC-SHA-256 (RFC 2104), and the MAC / authenticator machinery.
//!
//! MACs are the cheap authentication option of dimension **E3**: a shared
//! secret per channel, a 32-byte tag per message. Their limitation —
//! *repudiability* — matters in view-change: a replica cannot forward a
//! MAC-authenticated message as third-party evidence, which is why PBFT's
//! MAC variant adds `view-change-ack` messages (modeled by the PBFT
//! implementation in `bft-protocols`).

use serde::{Deserialize, Serialize};

use crate::hash::Hasher;

/// A shared symmetric key for one (sender, receiver) channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacKey(pub [u8; 32]);

impl MacKey {
    /// Derive the canonical channel key for an ordered pair of parties from
    /// a cluster master secret. In a real deployment these would come from a
    /// key exchange; in the simulation all correct parties derive them from
    /// the cluster secret, and fault injectors are simply never handed the
    /// secret of channels they do not own.
    pub fn derive(master: &[u8; 32], a: u64, b: u64) -> MacKey {
        let mut h = Hasher::new();
        h.update(master);
        h.update(&a.to_le_bytes());
        h.update(&b.to_le_bytes());
        MacKey(h.finalize())
    }
}

/// A 32-byte HMAC tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mac(pub [u8; 32]);

/// One HMAC-SHA-256 key with its padded blocks already absorbed: `inner`
/// has compressed `key ⊕ ipad` and `outer` `key ⊕ opad`, so a tag costs
/// the message's blocks and one outer block, not two key blocks more.
#[derive(Clone)]
pub struct HmacKey {
    inner: Hasher,
    outer: Hasher,
}

impl HmacKey {
    /// Absorb `key` (hashed first when longer than a block, per RFC 2104).
    pub fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&crate::hash::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Hasher::new();
            h.update(&key_block.map(|k| k ^ byte));
            h
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// The tag of `message` under this key.
    pub fn mac(&self, message: &[u8]) -> Mac {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        Mac(outer.finalize())
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

/// HMAC-SHA-256 as specified in RFC 2104 / FIPS 198-1.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Mac {
    HmacKey::new(key).mac(message)
}

/// Compute a MAC for a message under a channel key.
pub fn mac(key: &MacKey, message: &[u8]) -> Mac {
    hmac_sha256(&key.0, message)
}

/// Verify a MAC in constant structure (the simulation does not model timing
/// side channels, but we still compare full tags).
pub fn verify_mac(key: &MacKey, message: &[u8], tag: &Mac) -> bool {
    mac(key, message) == *tag
}

/// An *authenticator*: a vector of MACs, one per receiver, attached to a
/// broadcast message (the PBFT [Castro & Liskov '02] construction). Each
/// receiver checks only its own entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Authenticator {
    /// `(receiver index, tag)` pairs in receiver order.
    pub tags: Vec<(u32, Mac)>,
}

impl Authenticator {
    /// Build an authenticator for `receivers`, using `key_for` to obtain the
    /// per-channel key.
    pub fn generate(
        message: &[u8],
        receivers: impl IntoIterator<Item = u32>,
        mut key_for: impl FnMut(u32) -> MacKey,
    ) -> Authenticator {
        let tags = receivers
            .into_iter()
            .map(|r| (r, mac(&key_for(r), message)))
            .collect();
        Authenticator { tags }
    }

    /// Verify the entry for `receiver`.
    pub fn verify(&self, message: &[u8], receiver: u32, key: &MacKey) -> bool {
        self.tags
            .iter()
            .find(|(r, _)| *r == receiver)
            .is_some_and(|(_, tag)| verify_mac(key, message, tag))
    }

    /// Wire size: 4 bytes index + 32-byte tag per receiver. The linear
    /// growth of authenticators with cluster size is the cost that dimension
    /// E3 trades against signature CPU cost.
    pub fn wire_size(&self) -> usize {
        self.tags.len() * 36
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag.0),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag.0),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag.0),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag.0),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn an_absorbed_key_matches_rfc4231_and_stays_reusable() {
        let long_key = [0xaau8; 131];
        let vectors: [(&[u8], &[u8], &str); 3] = [
            (
                &[0x0bu8; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, data, expected) in vectors {
            let absorbed = HmacKey::new(key);
            // a tag leaves the key as it was: the second one is the same
            for _ in 0..2 {
                assert_eq!(hex(&absorbed.mac(data).0), expected);
            }
            assert_eq!(absorbed.mac(data), hmac_sha256(key, data));
        }
    }

    #[test]
    fn verify_detects_tampering() {
        let key = MacKey([7u8; 32]);
        let tag = mac(&key, b"payload");
        assert!(verify_mac(&key, b"payload", &tag));
        assert!(!verify_mac(&key, b"payloae", &tag));
        let wrong = MacKey([8u8; 32]);
        assert!(!verify_mac(&wrong, b"payload", &tag));
    }

    #[test]
    fn derived_keys_differ_per_channel() {
        let master = [1u8; 32];
        let k01 = MacKey::derive(&master, 0, 1);
        let k10 = MacKey::derive(&master, 1, 0);
        let k02 = MacKey::derive(&master, 0, 2);
        assert_ne!(k01, k10);
        assert_ne!(k01, k02);
    }

    #[test]
    fn authenticator_roundtrip() {
        let master = [9u8; 32];
        let msg = b"pre-prepare v0 s1";
        let auth = Authenticator::generate(msg, 0..4, |r| MacKey::derive(&master, 99, r as u64));
        for r in 0..4u32 {
            let key = MacKey::derive(&master, 99, r as u64);
            assert!(auth.verify(msg, r, &key));
            // a different receiver's key must not verify this receiver's slot
            let other = MacKey::derive(&master, 99, ((r + 1) % 4) as u64);
            assert!(!auth.verify(msg, r, &other));
        }
        assert_eq!(auth.wire_size(), 4 * 36);
    }

    #[test]
    fn authenticator_missing_receiver() {
        let auth = Authenticator::generate(b"m", 0..2, |_| MacKey([0u8; 32]));
        assert!(!auth.verify(b"m", 5, &MacKey([0u8; 32])));
    }
}
