//! `bolted-tpm` — a software Trusted Platform Module.
//!
//! Provides the hardware root of trust the Bolted architecture assumes on
//! every server (§2: "all servers in the cloud are equipped with a TPM"):
//! SHA-256 PCR banks with extend-only semantics, a TCG-style event log,
//! AIK-signed quotes over verifier nonces, EK-bound credential activation,
//! NVRAM, and an access-latency model calibrated to the paper's testbed.
//!
//! The paper's own evaluation cluster used IBM's software TPM with
//! emulated latency; this crate is the same substitution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub mod eventlog;
pub mod pcr;
pub mod seal;

pub use device::{make_credential, CredentialBlob, Quote, Tpm, TpmError, TpmTimings};
pub use eventlog::{extend_bank, EventLog, MeasuredEvent};
pub use pcr::{index, PcrBank, NUM_PCRS};
pub use seal::SealedBlob;
