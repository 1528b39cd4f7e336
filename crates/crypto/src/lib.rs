//! # bft-crypto
//!
//! The cryptographic substrate for the BFT protocol suite (dimension **E3**
//! of the paper's design space: *authentication*).
//!
//! BFT protocols authenticate messages with one of three mechanisms, each
//! implemented here:
//!
//! * **MACs / authenticators** — an [`hmac`] (HMAC-SHA-256) per receiver.
//!   Cheap, but repudiable: a receiver cannot prove to a third party who
//!   authored a message, which is why MAC-based PBFT needs the extra
//!   `view-change-ack` round (design choice 11).
//! * **Digital signatures** — [`sign::Signer`]. Non-repudiable: any replica
//!   can verify any signature, so a signed message can be forwarded as
//!   evidence.
//! * **Threshold signatures** — [`threshold`]. A quorum's worth of signature
//!   *shares* combines into a single constant-size certificate, the
//!   ingredient that makes linear-communication protocols (SBFT, HotStuff —
//!   design choice 1) possible.
//!
//! ## The simulation substitution (documented in DESIGN.md)
//!
//! The workspace runs protocols inside a deterministic single-process
//! simulator, so real public-key cryptography would add nothing but CPU
//! time: the "adversary" is our own fault-injection code, which simply does
//! not get other replicas' secret keys. Signatures are therefore implemented
//! as HMAC tags under a per-signer secret, with verification going through a
//! public [`sign::KeyStore`] registry — this preserves exactly the properties
//! protocols rely on (unforgeability without the secret, non-repudiation via
//! the registry, distinctness of signers) while staying fast and
//! deterministic. The *relative cost* of MACs vs. signatures vs. threshold
//! combination — the quantity the paper's E3 dimension reasons about — is
//! modeled explicitly by [`cost::CryptoCostModel`] and charged to virtual
//! time by the simulator.
//!
//! SHA-256 and HMAC-SHA-256 are nevertheless real, from-scratch,
//! test-vector-verified implementations: state digests and request digests
//! must behave like proper cryptographic hashes for checkpoint comparison
//! and duplicate detection to be meaningful.
//!
//! ## What is hashed and what is signed
//!
//! A request is hashed once into its [`digest_of`], and that 32-byte
//! digest is what its client signs ([`sign::Signer::sign_value`]) and what
//! every verifier checks ([`sign::verify_value`]). A batch digest hashes
//! one fixed-width *leaf* per request: its digest, the signer and the
//! signature's tag (72 bytes, `bft_protocols::common::SignedRequest`'s
//! stable encoding). The slot digest replicas agree on thus binds every
//! request and its signature, and costs the same per request however large
//! the transaction is. Every party computes each leaf from the request it
//! holds; none takes a digest from another.
//!
//! [`digest_of`] streams the stable encoding into SHA-256 without a buffer.
//! The simulator's wire MACs tag a payload's digest too, so no step of a
//! run builds the encoding as bytes; [`stable_bytes`] does, for tests and
//! for digests of inputs taken outside a run.
//!
//! ## The hardware path
//!
//! Every digest, MAC and signature ends in [`hash`]'s compression function,
//! so that is where the CPU time goes. On an x86-64 CPU with the SHA
//! extensions it runs on `sha256rnds2` / `sha256msg1` / `sha256msg2`;
//! on any other CPU it runs the portable rounds, which stay the reference
//! the tests hold the hardware path to. The CPU is asked per block (std
//! caches the answer), so there is no option to set and the bytes are the
//! same either way. The call into the hardware rounds is the one `unsafe`
//! block in the workspace's crates; the other crates forbid `unsafe`.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod cost;
pub mod hash;
pub mod hmac;
pub mod sign;
pub mod threshold;

pub use cost::{CostTable, CryptoCostModel, CryptoOp};
pub use hash::{sha256, Hasher};
pub use hmac::{hmac_sha256, HmacKey, Mac, MacKey};
pub use sign::{KeyStore, SecretKey, Signature, Signer};
pub use threshold::{ThresholdScheme, ThresholdSig, ThresholdSigner};

use bft_types::Digest;

/// Hash any `serde`-serializable value into a [`Digest`].
///
/// Used to derive request digests, batch digests, and message digests. The
/// value's stable encoding ([`stable_bytes`]) is streamed into SHA-256, so
/// no buffer is built. A type may give itself a short fixed encoding: a
/// signed request encodes as its 72-byte leaf (its request digest, signer
/// and tag), so a batch digest hashes leaves, never whole requests.
pub fn digest_of<T: serde::Serialize>(value: &T) -> Digest {
    let mut enc = enc::ByteEncoder { out: Hasher::new() };
    value
        .serialize(&mut enc)
        .expect("stable encoding cannot fail");
    Digest(enc.out.finalize())
}

/// Deterministic byte encoding for hashing. We avoid pulling in a binary
/// serde format by writing a tiny self-describing encoder: field order is
/// struct order, which serde guarantees stable for a fixed type.
///
/// [`digest_of`] hashes exactly these bytes without building them.
pub fn stable_bytes<T: serde::Serialize>(value: &T) -> Vec<u8> {
    let mut enc = enc::ByteEncoder { out: Vec::new() };
    value
        .serialize(&mut enc)
        .expect("stable encoding cannot fail");
    enc.out
}

mod enc {
    //! Minimal deterministic serde serializer producing length-prefixed
    //! bytes. Every value is tagged so that adjacent fields cannot alias;
    //! a `u8` has a tag of its own and one byte, so a 32-byte digest or
    //! tag costs 65 bytes.

    use serde::ser::{self, Serialize};

    use crate::Hasher;

    /// Where the encoding goes: a buffer, or straight into a hash.
    pub trait Sink {
        fn put(&mut self, bytes: &[u8]);
    }

    impl Sink for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) {
            self.extend_from_slice(bytes);
        }
    }

    impl Sink for Hasher {
        fn put(&mut self, bytes: &[u8]) {
            self.update(bytes);
        }
    }

    pub struct ByteEncoder<S> {
        pub out: S,
    }

    #[derive(Debug)]
    pub struct NoErr;

    impl std::fmt::Display for NoErr {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("stable encoder error")
        }
    }
    impl std::error::Error for NoErr {}
    impl ser::Error for NoErr {
        fn custom<T: std::fmt::Display>(_msg: T) -> Self {
            NoErr
        }
    }

    type R = Result<(), NoErr>;

    impl<S: Sink> ByteEncoder<S> {
        fn tag(&mut self, t: u8) {
            self.out.put(&[t]);
        }
        /// A tag and a little-endian u64, in one write.
        fn tagged_u64(&mut self, t: u8, v: u64) {
            let mut bytes = [t; 9];
            bytes[1..].copy_from_slice(&v.to_le_bytes());
            self.out.put(&bytes);
        }
    }

    impl<S: Sink> ser::Serializer for &mut ByteEncoder<S> {
        type Ok = ();
        type Error = NoErr;
        type SerializeSeq = Self;
        type SerializeTuple = Self;
        type SerializeTupleStruct = Self;
        type SerializeTupleVariant = Self;
        type SerializeMap = Self;
        type SerializeStruct = Self;
        type SerializeStructVariant = Self;

        fn serialize_bool(self, v: bool) -> R {
            self.out.put(&[1, v as u8]);
            Ok(())
        }
        fn serialize_i8(self, v: i8) -> R {
            self.serialize_i64(v as i64)
        }
        fn serialize_i16(self, v: i16) -> R {
            self.serialize_i64(v as i64)
        }
        fn serialize_i32(self, v: i32) -> R {
            self.serialize_i64(v as i64)
        }
        fn serialize_i64(self, v: i64) -> R {
            self.tagged_u64(2, v as u64);
            Ok(())
        }
        fn serialize_u8(self, v: u8) -> R {
            self.out.put(&[17, v]);
            Ok(())
        }
        fn serialize_u16(self, v: u16) -> R {
            self.serialize_u64(v as u64)
        }
        fn serialize_u32(self, v: u32) -> R {
            self.serialize_u64(v as u64)
        }
        fn serialize_u64(self, v: u64) -> R {
            self.tagged_u64(3, v);
            Ok(())
        }
        fn serialize_f32(self, v: f32) -> R {
            self.serialize_f64(v as f64)
        }
        fn serialize_f64(self, v: f64) -> R {
            self.tagged_u64(4, v.to_bits());
            Ok(())
        }
        fn serialize_char(self, v: char) -> R {
            self.serialize_u64(v as u64)
        }
        fn serialize_str(self, v: &str) -> R {
            self.serialize_bytes(v.as_bytes())
        }
        fn serialize_bytes(self, v: &[u8]) -> R {
            self.tagged_u64(5, v.len() as u64);
            self.out.put(v);
            Ok(())
        }
        fn serialize_none(self) -> R {
            self.tag(6);
            Ok(())
        }
        fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> R {
            self.tag(7);
            value.serialize(self)
        }
        fn serialize_unit(self) -> R {
            self.tag(8);
            Ok(())
        }
        fn serialize_unit_struct(self, _name: &'static str) -> R {
            self.serialize_unit()
        }
        fn serialize_unit_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
        ) -> R {
            self.tagged_u64(9, variant_index as u64);
            Ok(())
        }
        fn serialize_newtype_struct<T: ?Sized + Serialize>(
            self,
            _name: &'static str,
            value: &T,
        ) -> R {
            value.serialize(self)
        }
        fn serialize_newtype_variant<T: ?Sized + Serialize>(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            value: &T,
        ) -> R {
            self.tagged_u64(10, variant_index as u64);
            value.serialize(self)
        }
        fn serialize_seq(self, len: Option<usize>) -> Result<Self, NoErr> {
            self.tagged_u64(11, len.unwrap_or(0) as u64);
            Ok(self)
        }
        fn serialize_tuple(self, _len: usize) -> Result<Self, NoErr> {
            self.tag(12);
            Ok(self)
        }
        fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, NoErr> {
            self.tag(12);
            Ok(self)
        }
        fn serialize_tuple_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            _len: usize,
        ) -> Result<Self, NoErr> {
            self.tagged_u64(13, variant_index as u64);
            Ok(self)
        }
        fn serialize_map(self, len: Option<usize>) -> Result<Self, NoErr> {
            self.tagged_u64(14, len.unwrap_or(0) as u64);
            Ok(self)
        }
        fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, NoErr> {
            self.tag(15);
            Ok(self)
        }
        fn serialize_struct_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            _len: usize,
        ) -> Result<Self, NoErr> {
            self.tagged_u64(16, variant_index as u64);
            Ok(self)
        }
    }

    macro_rules! impl_compound {
        ($trait:ident, $method:ident) => {
            impl<'a, S: Sink> ser::$trait for &'a mut ByteEncoder<S> {
                type Ok = ();
                type Error = NoErr;
                fn $method<T: ?Sized + Serialize>(&mut self, value: &T) -> R {
                    value.serialize(&mut **self)
                }
                fn end(self) -> R {
                    Ok(())
                }
            }
        };
    }
    impl_compound!(SerializeSeq, serialize_element);
    impl_compound!(SerializeTuple, serialize_element);
    impl_compound!(SerializeTupleStruct, serialize_field);
    impl_compound!(SerializeTupleVariant, serialize_field);

    impl<S: Sink> ser::SerializeMap for &mut ByteEncoder<S> {
        type Ok = ();
        type Error = NoErr;
        fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> R {
            key.serialize(&mut **self)
        }
        fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> R {
            value.serialize(&mut **self)
        }
        fn end(self) -> R {
            Ok(())
        }
    }

    impl<S: Sink> ser::SerializeStruct for &mut ByteEncoder<S> {
        type Ok = ();
        type Error = NoErr;
        fn serialize_field<T: ?Sized + Serialize>(&mut self, _key: &'static str, value: &T) -> R {
            value.serialize(&mut **self)
        }
        fn end(self) -> R {
            Ok(())
        }
    }

    impl<S: Sink> ser::SerializeStructVariant for &mut ByteEncoder<S> {
        type Ok = ();
        type Error = NoErr;
        fn serialize_field<T: ?Sized + Serialize>(&mut self, _key: &'static str, value: &T) -> R {
            value.serialize(&mut **self)
        }
        fn end(self) -> R {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Demo {
        a: u64,
        b: Vec<u8>,
        c: Option<bool>,
    }

    #[test]
    fn digest_is_deterministic() {
        let d1 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(true),
        });
        let d2 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(true),
        });
        assert_eq!(d1, d2);
    }

    #[test]
    fn digest_distinguishes_values() {
        let d1 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(true),
        });
        let d2 = digest_of(&Demo {
            a: 1,
            b: vec![1, 2],
            c: Some(false),
        });
        let d3 = digest_of(&Demo {
            a: 2,
            b: vec![1, 2],
            c: Some(true),
        });
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn digest_distinguishes_none_from_some() {
        let d1 = digest_of(&Demo {
            a: 1,
            b: vec![],
            c: None,
        });
        let d2 = digest_of(&Demo {
            a: 1,
            b: vec![],
            c: Some(false),
        });
        assert_ne!(d1, d2);
    }

    #[test]
    fn the_streamed_digest_hashes_the_stable_bytes() {
        let demo = Demo {
            a: u64::MAX,
            b: (0..=255).collect(),
            c: Some(true),
        };
        assert_eq!(digest_of(&demo), Digest(sha256(&stable_bytes(&demo))));
        assert_eq!(digest_of(&()), Digest(sha256(&[8])));
    }

    #[test]
    fn a_u8_is_its_own_tag_and_one_byte() {
        assert_eq!(stable_bytes(&7u8), [17, 7]);
        assert_eq!(stable_bytes(&[0u8; 32]).len(), 1 + 32 * 2);
        // a u8 never reads as the u64 of the same value, nor as a bool
        assert_ne!(digest_of(&1u8), digest_of(&1u64));
        assert_ne!(digest_of(&1u8), digest_of(&true));
    }

    #[test]
    fn length_prefix_prevents_concat_ambiguity() {
        #[derive(Serialize)]
        struct P(Vec<u8>, Vec<u8>);
        let d1 = digest_of(&P(vec![1, 2], vec![3]));
        let d2 = digest_of(&P(vec![1], vec![2, 3]));
        assert_ne!(d1, d2);
    }
}
