//! Code signing for PAD mobile-code modules (paper §3.5).
//!
//! The paper's second security mechanism is code-signing: "the client
//! manages a list of entities that it trusts. When a PAD is received, the
//! client verifies that it was signed by an entity on this list."
//!
//! This module implements that contract with HMAC-SHA1:
//!
//! * a [`Signer`] holds a secret signing key and produces a [`Signature`]
//!   (= key id + HMAC over the signed bytes);
//! * a [`TrustStore`] on the client holds verification keys for the signer
//!   ids it trusts and checks signatures in constant time;
//! * a [`SignerRegistry`] models the signing authority that provisions
//!   signers and exports trust anchors.
//!
//! **Substitution note (see DESIGN.md):** the paper assumes PKI-style
//! asymmetric signatures. HMAC with a per-authority shared verification key
//! preserves the two behaviours the framework exercises — integrity binding
//! and trust-list membership — without dragging a bignum stack into the
//! reproduction. The API is shaped so an asymmetric scheme could be dropped
//! in behind the same types.

use std::collections::HashMap;

use crate::digest::Digest;
use crate::hmac::{hmac_sha1, verify_equal};
use crate::wire::Cursor;

/// Identifies a signing entity (e.g. an application-server operator).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct KeyId(pub u32);

impl core::fmt::Display for KeyId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// A detached signature over a byte string.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Which entity produced the signature.
    pub key_id: KeyId,
    /// HMAC-SHA1 over the signed bytes.
    pub mac: Digest,
}

impl Signature {
    /// Serialized size in bytes (4-byte key id + 20-byte MAC).
    pub const WIRE_LEN: usize = 24;

    /// Serializes to the on-wire form used inside module containers.
    pub fn to_wire(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..4].copy_from_slice(&self.key_id.0.to_be_bytes());
        out[4..].copy_from_slice(self.mac.as_bytes());
        out
    }

    /// Parses the on-wire form.
    #[deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    pub fn from_wire(bytes: &[u8]) -> Option<Signature> {
        let mut c = Cursor::new(bytes);
        let key_id = KeyId(u32::from_be_bytes(c.array().ok()?));
        let mac = Digest(c.array().ok()?);
        c.done().then_some(Signature { key_id, mac })
    }
}

/// A signing entity holding a secret key.
#[derive(Clone)]
pub struct Signer {
    id: KeyId,
    key: Vec<u8>,
}

impl core::fmt::Debug for Signer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Signer").field("id", &self.id).finish()
    }
}

impl Signer {
    /// Creates a signer from explicit key material.
    pub fn new(id: KeyId, key: impl Into<Vec<u8>>) -> Self {
        Signer { id, key: key.into() }
    }

    /// This signer's identity.
    pub fn id(&self) -> KeyId {
        self.id
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature { key_id: self.id, mac: hmac_sha1(&self.key, message) }
    }
}

/// The client-side list of trusted entities (paper §3.5).
#[derive(Clone, Debug, Default)]
pub struct TrustStore {
    keys: HashMap<KeyId, Vec<u8>>,
}

impl TrustStore {
    /// An empty trust store (trusts nobody).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trust anchor for `id`.
    pub fn trust(&mut self, id: KeyId, key: impl Into<Vec<u8>>) {
        self.keys.insert(id, key.into());
    }

    /// Removes trust in `id`. Returns whether it was present.
    pub fn revoke(&mut self, id: KeyId) -> bool {
        self.keys.remove(&id).is_some()
    }

    /// Whether `id` is on the trust list at all.
    pub fn trusts(&self, id: KeyId) -> bool {
        self.keys.contains_key(&id)
    }

    /// Number of trusted entities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no entity is trusted.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies that `sig` is a valid signature over `message` by an entity
    /// on the trust list.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), VerifyError> {
        let key = self.keys.get(&sig.key_id).ok_or(VerifyError::UntrustedSigner(sig.key_id))?;
        let expect = hmac_sha1(key, message);
        if verify_equal(&expect, &sig.mac) {
            Ok(())
        } else {
            Err(VerifyError::BadSignature(sig.key_id))
        }
    }
}

/// Why signature verification failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// The signer is not on the client's trust list.
    UntrustedSigner(KeyId),
    /// The signer is trusted but the MAC does not match (tampered bytes or
    /// wrong key).
    BadSignature(KeyId),
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyError::UntrustedSigner(id) => write!(f, "signer {id} is not trusted"),
            VerifyError::BadSignature(id) => write!(f, "signature by {id} does not verify"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The signing authority: provisions signers with deterministic keys and
/// exports the matching trust anchors. In a deployment this would be the
/// application-server operator's key management.
#[derive(Clone, Debug, Default)]
pub struct SignerRegistry {
    next_id: u32,
    issued: HashMap<KeyId, Vec<u8>>,
}

impl SignerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions a new signer whose key is derived deterministically from
    /// `seed_label` (so experiments are reproducible).
    pub fn provision(&mut self, seed_label: &str) -> Signer {
        let id = KeyId(self.next_id);
        self.next_id += 1;
        // Derive key = HMAC(label, id): deterministic but label-dependent.
        let key = hmac_sha1(seed_label.as_bytes(), &id.0.to_be_bytes()).0.to_vec();
        self.issued.insert(id, key.clone());
        Signer::new(id, key)
    }

    /// Installs all issued keys into a client trust store (models "client
    /// pre-configured with the operator's trust anchors").
    pub fn export_trust(&self, store: &mut TrustStore) {
        for (id, key) in &self.issued {
            store.trust(*id, key.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Signer, TrustStore) {
        let mut reg = SignerRegistry::new();
        let signer = reg.provision("test-authority");
        let mut store = TrustStore::new();
        reg.export_trust(&mut store);
        (signer, store)
    }

    #[test]
    fn sign_and_verify() {
        let (signer, store) = setup();
        let msg = b"PAD module bytes";
        let sig = signer.sign(msg);
        assert!(store.verify(msg, &sig).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let (signer, store) = setup();
        let sig = signer.sign(b"original");
        assert_eq!(store.verify(b"tampered", &sig), Err(VerifyError::BadSignature(signer.id())));
    }

    #[test]
    fn untrusted_signer_rejected() {
        let (_, store) = setup();
        let rogue = Signer::new(KeyId(999), b"rogue-key".to_vec());
        let msg = b"malicious PAD";
        let sig = rogue.sign(msg);
        assert_eq!(store.verify(msg, &sig), Err(VerifyError::UntrustedSigner(KeyId(999))));
    }

    #[test]
    fn wrong_key_same_id_rejected() {
        let (signer, store) = setup();
        // An attacker who knows a trusted KeyId but not the key.
        let imposter = Signer::new(signer.id(), b"guessed-key".to_vec());
        let msg = b"PAD";
        let sig = imposter.sign(msg);
        assert_eq!(store.verify(msg, &sig), Err(VerifyError::BadSignature(signer.id())));
    }

    #[test]
    fn revocation() {
        let (signer, mut store) = setup();
        let msg = b"PAD";
        let sig = signer.sign(msg);
        assert!(store.verify(msg, &sig).is_ok());
        assert!(store.revoke(signer.id()));
        assert_eq!(store.verify(msg, &sig), Err(VerifyError::UntrustedSigner(signer.id())));
        assert!(!store.revoke(signer.id()), "double revoke is a no-op");
    }

    #[test]
    fn signature_wire_round_trip() {
        let (signer, _) = setup();
        let sig = signer.sign(b"bytes");
        let wire = sig.to_wire();
        assert_eq!(Signature::from_wire(&wire), Some(sig));
        assert_eq!(Signature::from_wire(&wire[..10]), None);
    }

    #[test]
    fn provisioning_is_deterministic() {
        let mut r1 = SignerRegistry::new();
        let mut r2 = SignerRegistry::new();
        let s1 = r1.provision("label");
        let s2 = r2.provision("label");
        assert_eq!(s1.sign(b"m"), s2.sign(b"m"));
        // Different labels give different keys.
        let mut r3 = SignerRegistry::new();
        let s3 = r3.provision("other");
        assert_ne!(s1.sign(b"m").mac, s3.sign(b"m").mac);
    }

    #[test]
    fn distinct_signers_distinct_ids() {
        let mut reg = SignerRegistry::new();
        let a = reg.provision("x");
        let b = reg.provision("x");
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn trust_store_bookkeeping() {
        let mut store = TrustStore::new();
        assert!(store.is_empty());
        store.trust(KeyId(1), b"k".to_vec());
        assert_eq!(store.len(), 1);
        assert!(store.trusts(KeyId(1)));
        assert!(!store.trusts(KeyId(2)));
    }
}
