//! §2/§6 threat-model integration tests: every attack the paper defends
//! against, executed against the full stack.

use std::sync::Arc;

use bolted::core::{
    revocation_experiment, Cloud, CloudConfig, Enclave, KeylimeAttestation, ProvisionError,
    SecurityProfile, Services, Tenant, TenantEnv,
};
use bolted::firmware::{FirmwareKind, KernelImage};
use bolted::keylime::verifier::{VerifierConfig, BOOT_SELECTION};
use bolted::keylime::{ImaWhitelist, LogOffsets};
use bolted::sim::{Sim, SimDuration};
use bolted::storage::ImageId;

fn build(nodes: usize) -> (Sim, Cloud, ImageId) {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes,
            firmware: FirmwareKind::LinuxBoot,
            ..CloudConfig::default()
        },
    );
    let kernel = KernelImage::from_bytes("fedora28", b"vmlinuz");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .expect("golden");
    (sim, cloud, golden)
}

fn is_rejected(r: Result<bolted::core::ProvisionedNode, ProvisionError>) -> bool {
    matches!(r, Err(ProvisionError::Rejected(_)))
}

// -- prior to occupancy ------------------------------------------------------

#[test]
fn prior_occupancy_firmware_implant_rejected() {
    let (sim, cloud, golden) = build(1);
    let node = cloud.nodes()[0];
    let m = cloud.machine(node);
    m.reflash(m.flash().tampered(b"previous tenant's bootkit"));
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let r = sim.block_on(async move {
        tenant
            .provision(node, &SecurityProfile::charlie(), golden)
            .await
    });
    assert!(is_rejected(r));
    assert_eq!(cloud.rejected_pool(), vec![node]);
}

#[test]
fn prior_occupancy_downgraded_firmware_version_rejected() {
    // Even a *genuine but outdated* firmware build fails attestation:
    // the whitelist pins the tenant's expected build, giving "time-of-use
    // proof that the provider has kept the firmware up to date" (§3).
    let (sim, cloud, golden) = build(1);
    let node = cloud.nodes()[0];
    let old = bolted::firmware::FirmwareSource::from_tree(
        FirmwareKind::LinuxBoot,
        "heads-0.1.0-with-known-cve",
        b"older source tree",
    )
    .build();
    cloud.machine(node).reflash(old);
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let r = sim.block_on(async move {
        tenant
            .provision(node, &SecurityProfile::charlie(), golden)
            .await
    });
    assert!(is_rejected(r));
}

#[test]
fn rejected_node_returns_to_service_after_remediation() {
    let (sim, cloud, golden) = build(1);
    let node = cloud.nodes()[0];
    let m = cloud.machine(node);
    let good_flash = m.flash();
    m.reflash(good_flash.tampered(b"implant"));
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let r = sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
        }
    });
    assert!(is_rejected(r));
    // Provider remediates: reflash with the canonical build.
    m.reflash(good_flash);
    let r2 = sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
        }
    });
    assert!(r2.is_ok(), "remediated node attests clean: {:?}", r2.err());
}

#[test]
fn server_spoofing_detected_via_ek_binding() {
    // HIL publishes each node's EK; the tenant cross-checks the EK the
    // agent registered with. A different physical machine answering for
    // the reserved one has a different EK.
    let (sim, cloud, golden) = build(2);
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let nodes = cloud.nodes();
    sim.block_on({
        let tenant = tenant.clone();
        let nodes = nodes.clone();
        async move {
            tenant
                .provision(nodes[0], &SecurityProfile::charlie(), golden)
                .await
                .expect("provisions");
        }
    });
    // The agent on m620-01 registered with m620-01's EK:
    assert!(tenant.verify_node_identity(nodes[0], "m620-01"));
    // ...but its identity does NOT validate against node 2's published EK.
    assert!(!tenant.verify_node_identity(nodes[1], "m620-01"));
}

// -- during occupancy --------------------------------------------------------

#[test]
fn during_occupancy_cross_tenant_frames_dropped() {
    let (sim, cloud, golden) = build(2);
    let t1 = Tenant::new(&cloud, "charlie").expect("tenant");
    let t2 = Tenant::new(&cloud, "mallory").expect("tenant");
    let nodes = cloud.nodes();
    sim.block_on({
        let (t1, t2) = (t1.clone(), t2.clone());
        let nodes = nodes.clone();
        async move {
            t1.provision(nodes[0], &SecurityProfile::charlie(), golden)
                .await
                .expect("t1");
            t2.provision(nodes[1], &SecurityProfile::alice(), golden)
                .await
                .expect("t2");
        }
    });
    let h0 = cloud.hil.node_host(nodes[0]).expect("host");
    let h1 = cloud.hil.node_host(nodes[1]).expect("host");
    let before = cloud.fabric.isolation_violations();
    let r = sim.block_on({
        let fabric = cloud.fabric.clone();
        async move {
            fabric
                .transfer(h1, h0, 4096, bolted::net::TransferSpec::plain())
                .await
        }
    });
    assert!(r.is_err(), "mallory cannot reach charlie's enclave");
    assert_eq!(cloud.fabric.isolation_violations(), before + 1);
}

#[test]
fn during_occupancy_eavesdropper_sees_only_ciphertext() {
    let (sim, cloud, golden) = build(2);
    cloud.fabric.enable_taps();
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let nodes = cloud.nodes();
    let enclave = sim.block_on({
        let (tenant, cloud) = (tenant.clone(), cloud.clone());
        async move {
            let mut members = Vec::new();
            for n in nodes {
                members.push(
                    tenant
                        .provision(n, &SecurityProfile::charlie(), golden)
                        .await
                        .expect("provisions"),
                );
            }
            Enclave::form(&cloud, members)
        }
    });
    // Application data crosses the mesh sealed; the provider's tap on the
    // enclave VLAN captures no plaintext.
    let secret = b"patient records batch 7";
    let opened = enclave.tunnel_send(0, 1, secret).expect("delivers");
    assert_eq!(opened, secret);
    let vlan = cloud
        .fabric
        .host_vlan(enclave.host(0))
        .expect("enclave vlan");
    for frame in cloud.fabric.tapped(vlan) {
        assert!(
            !frame.windows(7).any(|w| w == b"patient"),
            "plaintext leaked to the wire"
        );
    }
}

#[test]
fn during_occupancy_runtime_compromise_detected_and_banned() {
    let (sim, cloud, golden) = build(3);
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let mut wl = ImaWhitelist::new();
    wl.allow_content("/usr/bin/approved", b"fine");
    tenant.set_ima_whitelist(wl);
    let (report, banned, innocent_ok) = sim.block_on({
        let (tenant, cloud) = (tenant.clone(), cloud.clone());
        async move {
            let mut members = Vec::new();
            for n in cloud.nodes() {
                members.push(
                    tenant
                        .provision(n, &SecurityProfile::charlie(), golden)
                        .await
                        .expect("provisions"),
                );
            }
            let enclave = Enclave::form(&cloud, members);
            let report =
                revocation_experiment(&cloud, &tenant, &enclave, 1, SimDuration::from_secs(25))
                    .await;
            (
                report,
                enclave.tunnel_send(0, 1, b"x").is_err(),
                enclave.tunnel_send(0, 2, b"y").is_ok(),
            )
        }
    });
    assert!(report.detection_latency().as_secs_f64() < 4.0);
    assert!(report.total_latency().as_secs_f64() < 6.5, "paper: ≈3 s");
    assert!(banned, "victim cryptographically banned");
    assert!(innocent_ok, "bystanders unaffected");
}

// -- after occupancy ---------------------------------------------------------

#[test]
fn after_occupancy_ram_scrubbed_before_next_tenant() {
    let (sim, cloud, golden) = build(1);
    let node = cloud.nodes()[0];
    let charlie = Tenant::new(&cloud, "charlie").expect("tenant");
    let machine = cloud.machine(node);
    sim.block_on({
        let charlie = charlie.clone();
        let machine = machine.clone();
        async move {
            let mut p = charlie
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
                .expect("provisions");
            machine.write_secret_to_ram("charlie", b"luks master key");
            charlie.release(&mut p, false).await.expect("releases");
        }
    });
    // Residue persists through power-off (cold boot threat)...
    assert!(machine.ram_residue().is_some());
    // ...until the next occupant's LinuxBoot runs and scrubs.
    let eve = Tenant::new(&cloud, "eve").expect("tenant");
    sim.block_on({
        let eve = eve.clone();
        async move {
            // Power-cycle + firmware run happen inside provision; check
            // the residue right after POST by provisioning fully.
            eve.provision(node, &SecurityProfile::alice(), golden)
                .await
                .expect("provisions");
        }
    });
    if let Some(r) = machine.ram_residue() {
        assert_ne!(r.tenant, "charlie", "charlie's data must be gone");
    }
}

#[test]
fn after_occupancy_released_volume_deleted_from_storage() {
    let (sim, cloud, golden) = build(1);
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let node = cloud.nodes()[0];
    sim.block_on({
        let tenant = tenant.clone();
        async move {
            let mut p = tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
                .expect("provisions");
            tenant.release(&mut p, false).await.expect("releases");
        }
    });
    assert!(
        cloud.store.lookup("m620-01-root").is_none(),
        "no persistent state survives release"
    );
}

#[test]
fn quote_replay_across_nodes_fails() {
    // A compromised node cannot present a clean sibling's quote: the AIK
    // is bound to each TPM via credential activation, and the verifier
    // checks a node's quote against the AIK the registrar certified for
    // that node.
    let (sim, cloud, golden) = build(2);
    let attestation = KeylimeAttestation::new(&cloud, VerifierConfig::default());
    let registrar = attestation.registrar().clone();
    let verifier = attestation.verifier().clone();
    let tenant = Tenant::with_backend(
        "charlie",
        TenantEnv::of_cloud(&cloud),
        Services::of_cloud(&cloud, Arc::new(attestation)),
        verifier,
    )
    .expect("tenant");
    let nodes = cloud.nodes();
    let (clean, clean_id, sibling_id) = sim.block_on(async move {
        let mut agents = Vec::new();
        for node in nodes {
            let p = tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
                .expect("provisions");
            agents.push(p.agent.expect("agent"));
        }
        let ev = agents[0]
            .attest(&tenant.sim(), [9; 32], &BOOT_SELECTION, &LogOffsets::START)
            .await
            .expect("attests");
        (ev, agents[0].id().to_string(), agents[1].id().to_string())
    });
    let own = registrar.certified_aik(&clean_id).expect("certified");
    assert!(
        clean.quote.verify(&own),
        "the quote verifies for its own node"
    );
    // Presented for the sibling's id, it meets the sibling's AIK.
    let sibling = registrar.certified_aik(&sibling_id).expect("certified");
    assert!(
        !clean.quote.verify(&sibling),
        "{clean_id}'s quote verified under {sibling_id}'s AIK"
    );
}

// -- key-release ordering (span-driven) --------------------------------------

#[test]
fn v_share_only_leaves_the_verifier_after_quote_verification_closes() {
    // The bootstrap key's V share is what actually unlocks the tenant
    // payload (LUKS passphrase, IPsec PSK). The span layer totally
    // orders every boundary it records, so the threat-model claim
    // "no key material moves before the quote verdict" is checkable
    // structurally: the `v-release` event's sequence number must be
    // strictly greater than the close of the `quote-verify` span.
    let (sim, cloud, golden) = build(1);
    let node = cloud.nodes()[0];
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
        }
    })
    .expect("provisions");

    let qv = cloud
        .spans
        .find("quote-verify", "m620-01")
        .expect("quote-verify span");
    assert_eq!(qv.attr("outcome"), Some("trusted"));
    let qv_closed = qv.end_seq.expect("verdict landed");
    let v = cloud
        .spans
        .find("v-release", "m620-01")
        .expect("v-release event");
    assert!(
        v.seq > qv_closed,
        "V share released (seq {}) before quote verification closed (seq {qv_closed})",
        v.seq
    );
    // The U share alone reveals nothing (one-time-pad split), so it is
    // allowed — and needed — *before* attestation: it ships with the
    // sealed payload the agent holds while waiting for the verdict.
    let u = cloud
        .spans
        .find("u-share", "m620-01")
        .expect("u-share event");
    assert!(u.seq < qv.seq, "U ships before the quote round starts");
}

#[test]
fn rejected_node_never_sees_a_v_release_event() {
    let (sim, cloud, golden) = build(1);
    let node = cloud.nodes()[0];
    let m = cloud.machine(node);
    m.reflash(m.flash().tampered(b"bootkit"));
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let r = sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
        }
    });
    assert!(is_rejected(r));
    let qv = cloud
        .spans
        .find("quote-verify", "m620-01")
        .expect("quote-verify span");
    assert_eq!(qv.attr("outcome"), Some("failed"));
    assert!(
        cloud.spans.find("v-release", "m620-01").is_none(),
        "no key material may move to a rejected node"
    );
    let root = cloud.spans.find("provision", "m620-01").expect("root");
    assert_eq!(root.attr("outcome"), Some("rejected"));
}
