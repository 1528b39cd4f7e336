//! Simulated digital signatures with non-repudiation.
//!
//! See the crate docs for the substitution rationale: inside the
//! deterministic simulator, a signature is an HMAC tag under the signer's
//! secret key, and verification resolves the signer's key through a public
//! [`KeyStore`]. Properties preserved relative to real signatures:
//!
//! * **Unforgeability** — producing a valid tag requires the signer's
//!   [`SecretKey`]; fault injectors are never handed other parties' keys.
//! * **Non-repudiation** — *any* party holding the key store can verify any
//!   signature (unlike MACs, where only the channel peer can), so signed
//!   messages can be relayed as evidence in view-change.
//! * **Signer binding** — the signature carries the signer identity and
//!   verifies only against that identity's registered key.
//!
//! What is signed is a value's 32-byte [`digest_of`](crate::digest_of), not
//! its encoding ("sign the hash"): [`Signer::sign_value`] and
//! [`verify_value`] hash the value once and tag the digest, so a client's
//! request signature covers exactly the request digest the protocols agree
//! on. A [`Signer`] absorbs its key once ([`HmacKey`]); every tag after that
//! costs the digest's block and one outer block.
//!
//! The CPU-cost asymmetry of real signatures (orders of magnitude slower
//! than MACs) is modeled in virtual time by [`crate::cost::CryptoCostModel`].

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::hash::Hasher;
use crate::hmac::{hmac_sha256, HmacKey, Mac};

/// Identity of a signing party. Replicas use their replica index; clients
/// use `CLIENT_BASE + client id` (see [`PartyId::client`] / [`PartyId::replica`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartyId(pub u64);

impl PartyId {
    const CLIENT_BASE: u64 = 1 << 32;

    /// The signing identity of replica `i`.
    pub fn replica(i: u32) -> PartyId {
        PartyId(i as u64)
    }

    /// The signing identity of client `c`.
    pub fn client(c: u64) -> PartyId {
        PartyId(Self::CLIENT_BASE + c)
    }
}

/// A party's secret signing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub [u8; 32]);

/// A signature: the signer identity plus an unforgeable tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Who signed.
    pub signer: PartyId,
    /// HMAC tag under the signer's secret.
    pub tag: Mac,
}

impl Signature {
    /// Wire size of a signature: modeled as 64 bytes plus the 8-byte signer
    /// id, matching typical Ed25519/BLS sizes so byte metrics are realistic.
    pub const WIRE_SIZE: usize = 72;
}

/// The public registry mapping party → verification key. In the simulation
/// the verification key *is* the secret key, but access discipline (fault
/// injectors can verify but never sign for others — signing requires a
/// [`Signer`], which is handed out once per party) preserves unforgeability.
#[derive(Debug, Clone, Default)]
pub struct KeyStore {
    /// Cluster master secret all keys are derived from.
    master: [u8; 32],
}

impl KeyStore {
    /// Create a key store from a cluster master secret (the simulation seed).
    pub fn new(master: [u8; 32]) -> Self {
        KeyStore { master }
    }

    /// Derive a party's key. Private: only `signer_for` and `verify` use it.
    fn key_of(&self, party: PartyId) -> SecretKey {
        let mut h = Hasher::new();
        h.update(&self.master);
        h.update(b"sign");
        h.update(&party.0.to_le_bytes());
        SecretKey(h.finalize())
    }

    /// Hand out the signer for a party. Call once per honest party at setup;
    /// Byzantine behaviors may only sign as *themselves*.
    pub fn signer_for(&self, party: PartyId) -> Signer {
        Signer {
            party,
            key: HmacKey::new(&self.key_of(party).0),
        }
    }

    /// Verify `sig` over `message`. Any holder of the key store can do this —
    /// that is the non-repudiation property.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let key = self.key_of(sig.signer);
        hmac_sha256(&key.0, message) == sig.tag
    }

    /// Shared handle used across actors in one simulation.
    pub fn shared(master: [u8; 32]) -> Arc<KeyStore> {
        Arc::new(KeyStore::new(master))
    }
}

/// A signing capability for a single party.
#[derive(Debug, Clone)]
pub struct Signer {
    party: PartyId,
    key: HmacKey,
}

impl Signer {
    /// This signer's identity.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            signer: self.party,
            tag: self.key.mac(message),
        }
    }

    /// Sign a serializable value: the tag is over its
    /// [`digest_of`](crate::digest_of).
    pub fn sign_value<T: serde::Serialize>(&self, value: &T) -> Signature {
        self.sign(&crate::digest_of(value).0)
    }
}

/// Verify a signature over a serializable value's
/// [`digest_of`](crate::digest_of).
pub fn verify_value<T: serde::Serialize>(store: &KeyStore, value: &T, sig: &Signature) -> bool {
    store.verify(&crate::digest_of(value).0, sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let store = KeyStore::new([3u8; 32]);
        let signer = store.signer_for(PartyId::replica(2));
        let sig = signer.sign(b"commit v1 s5");
        assert!(store.verify(b"commit v1 s5", &sig));
        assert!(!store.verify(b"commit v1 s6", &sig));
    }

    #[test]
    fn signature_binds_signer() {
        let store = KeyStore::new([3u8; 32]);
        let sig = store.signer_for(PartyId::replica(0)).sign(b"m");
        // claim it came from replica 1
        let forged = Signature {
            signer: PartyId::replica(1),
            tag: sig.tag,
        };
        assert!(!store.verify(b"m", &forged));
    }

    #[test]
    fn different_masters_do_not_cross_verify() {
        let store_a = KeyStore::new([1u8; 32]);
        let store_b = KeyStore::new([2u8; 32]);
        let sig = store_a.signer_for(PartyId::replica(0)).sign(b"m");
        assert!(!store_b.verify(b"m", &sig));
    }

    #[test]
    fn client_and_replica_identities_disjoint() {
        assert_ne!(PartyId::replica(5), PartyId::client(5));
    }

    #[test]
    fn a_value_signature_covers_its_digest() {
        let store = KeyStore::new([7u8; 32]);
        let signer = store.signer_for(PartyId::client(1));
        #[derive(serde::Serialize)]
        struct V {
            x: u64,
        }
        let sig = signer.sign_value(&V { x: 9 });
        assert_eq!(sig, signer.sign(&crate::digest_of(&V { x: 9 }).0));
        assert!(store.verify(&crate::digest_of(&V { x: 9 }).0, &sig));
        assert!(verify_value(&store, &V { x: 9 }, &sig));
        assert!(!verify_value(&store, &V { x: 10 }, &sig));
        // the same tag claimed by another signer does not verify
        let claimed = Signature {
            signer: PartyId::client(2),
            ..sig
        };
        assert!(!verify_value(&store, &V { x: 9 }, &claimed));
        let other = store.signer_for(PartyId::client(2)).sign_value(&V { x: 9 });
        assert_ne!(other.tag, sig.tag);
    }
}
