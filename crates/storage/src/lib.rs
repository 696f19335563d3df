//! `bolted-storage` — the network storage substrate.
//!
//! A Ceph-like replicated object cluster with per-spindle queueing, an
//! image store with snapshots and copy-on-write clones, and an iSCSI
//! gateway with read-ahead caching — the pieces behind the paper's BMI
//! diskless provisioning (TGT + Ceph, §5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod image;
pub mod iscsi;

pub use cluster::{Backing, Cluster, ImageId, ObjectKey, OBJECT_SIZE};
pub use image::{ImageError, ImageStore};
pub use iscsi::{
    Gateway, IscsiTarget, RunStopped, Transport, DEFAULT_READ_AHEAD, TGT_VM_BANDWIDTH_BPS,
    TUNED_READ_AHEAD,
};
