//! `bolted-core` — the Bolted architecture itself.
//!
//! Ties the substrates together exactly as the paper's user-controlled
//! scripts do: HIL for isolation, LinuxBoot machines for measured boot,
//! Keylime for attestation and key bootstrap, BMI for diskless
//! provisioning — orchestrated through the Figure 1 life cycle
//! (Free → Airlock → Allocated/Rejected), with Alice/Bob/Charlie
//! security profiles, per-phase provisioning reports (Figure 4), the
//! Foreman stateful baseline, and the enclave runtime with continuous
//! attestation and revocation (§7.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod cloud;
pub mod enclave;
pub mod fleet;
pub mod foreman;
pub mod lifecycle;
pub mod profile;
pub mod provision;
pub mod reconcile;
pub mod scenario;
pub mod services;

pub use cloud::{
    heads_runtime_digest, ipxe_digest, linuxboot_source, uefi_source, Cloud, CloudConfig,
};
pub use enclave::{revocation_experiment, Enclave, RevocationReport};
pub use fleet::{provision_fleet_parallel, run_sharded, FleetRunReport, FleetSpec, ShardOutcome};
pub use foreman::{foreman_provision, foreman_release_with_scrub};
pub use lifecycle::{InvalidTransition, Lifecycle, NodeState};
pub use profile::{AttestationMode, SecurityProfile};
pub use provision::{
    FleetFailure, FleetReport, ProvisionError, ProvisionReport, ProvisionedNode, Tenant,
};
pub use reconcile::{
    diff, reconcile_fleet_parallel, DesiredState, ObservedState, OpBudget, QueueStats,
    ReconcileFleetSpec, ReconcileOp, ReconcileRunReport, ReconcilerConfig, ShardReconcileOutcome,
    TenantReconciler, TickReport,
};
pub use scenario::{
    airlock_starvation, noisy_neighbor_storage, paper_scenarios, quote_storm, reconciler_recovery,
    runbook_replay, vlan_exhaustion, ScenarioScale,
};
pub use services::{
    AttestationService, BootService, BoxFuture, IsolationService, KeylimeAttestation,
    ProvisioningService, Services, TenantEnv,
};
