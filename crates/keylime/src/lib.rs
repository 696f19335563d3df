//! `bolted-keylime` — remote attestation and key management.
//!
//! A from-scratch reimplementation of the Keylime architecture the paper
//! deploys (§5): a **Registrar** that certifies TPM Attestation Identity
//! Keys via credential activation, a **Cloud Verifier** that polls
//! agents for quotes, replays boot/IMA event logs against tenant
//! whitelists, and broadcasts revocations, an **Agent** that runs on the
//! node being attested, and the **U/V key split** that lets the tenant
//! bootstrap disk- and network-encryption keys onto a node only after it
//! proves itself clean — without the registrar or verifier ever holding
//! the whole key.
//!
//! Everything here is deployable by the *tenant* (the Charlie use case):
//! nothing requires provider privilege.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod ima;
pub mod payload;
pub mod registrar;
pub mod verifier;

pub use agent::{
    agent_binary_digest, Agent, AttestationEvidence, LogOffsets, RegisterError, AGENT_BINARY,
};
pub use ima::{ImaEntry, ImaLog, ImaViolation, ImaWhitelist};
pub use payload::{combine_key, split_key, KeyShare, TenantPayload};
pub use registrar::{Registrar, RegistrarError};
pub use verifier::{AttestOutcome, RevocationEvent, Verifier, VerifierConfig};
