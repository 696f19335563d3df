//! `bolted-crypto` — from-scratch cryptographic substrate for Bolted.
//!
//! Everything the Bolted reproduction signs, hashes, encrypts or derives
//! goes through this crate: SHA-256 (PCRs, IMA, build ids), HMAC/HKDF
//! (AEAD tags, key bootstrap), ChaCha20 (LUKS and IPsec data paths), RSA
//! over a home-grown bignum (TPM EK/AIK quotes and credential
//! activation), a LUKS-style encrypted block device, and calibrated
//! cipher *cost models* that the simulator charges virtual time with.
//!
//! None of this is audited cryptography — it exists so the reproduction
//! has real measured-boot, attestation and encryption code paths without
//! external dependencies. The algorithms themselves (SHA-256, HMAC,
//! HKDF, ChaCha20) are implemented to their RFCs and tested against the
//! official vectors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod bignum;
pub mod chacha20;
pub mod cost;
pub mod ct;
pub mod hmac;
pub mod luks;
mod montgomery;
pub mod prime;
pub mod rsa;
pub mod secret;
pub mod sha256;

pub use aead::{Aead, AeadError};
pub use bignum::BigUint;
pub use chacha20::{ChaCha20, Key};
pub use cost::{CipherCost, CipherSuite};
pub use hmac::{hkdf, hmac_sha256, hmac_verify};
pub use luks::{BlockDevice, BlockError, LuksDevice, RamDisk, SectorCipher, SECTOR_SIZE};
pub use prime::{RandomSource, XorShiftSource};
pub use rsa::{generate_keypair, keypair_from_seed, KeyPair, PrivateKey, PublicKey, RsaError};
pub use secret::{Secret, Zeroize};
pub use sha256::{sha256, sha256_concat, Digest, Sha256};
