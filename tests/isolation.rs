//! Isolation invariants across the full stack: VLAN separation, airlock
//! behaviour, and HIL's authority boundaries.

use bolted::core::{Cloud, CloudConfig, SecurityProfile, Tenant};
use bolted::firmware::KernelImage;
use bolted::net::TransferSpec;
use bolted::sim::{join_all, Sim};
use bolted::storage::ImageId;

fn build(nodes: usize) -> (Sim, Cloud, ImageId) {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes,
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

#[test]
fn no_frame_ever_crosses_tenant_boundaries() {
    // Provision three tenants, two nodes each, then try every cross-tenant
    // pair in both directions: all must be dropped; all intra-tenant
    // pairs must work.
    let (sim, cloud, golden) = build(6);
    let tenants: Vec<Tenant> = ["t-red", "t-green", "t-blue"]
        .iter()
        .map(|p| Tenant::new(&cloud, p).expect("tenant"))
        .collect();
    let nodes = cloud.nodes();
    sim.block_on({
        let tenants = tenants.clone();
        let nodes = nodes.clone();
        async move {
            for (i, t) in tenants.iter().enumerate() {
                for j in 0..2 {
                    t.provision(nodes[i * 2 + j], &SecurityProfile::alice(), golden)
                        .await
                        .expect("provisions");
                }
            }
        }
    });
    let host = |i: usize| cloud.hil.node_host(nodes[i]).expect("host");
    for a in 0..6 {
        for b in 0..6 {
            if a == b {
                continue;
            }
            let same_tenant = a / 2 == b / 2;
            let ok = sim
                .block_on({
                    let fabric = cloud.fabric.clone();
                    let (ha, hb) = (host(a), host(b));
                    async move { fabric.transfer(ha, hb, 1024, TransferSpec::plain()).await }
                })
                .is_ok();
            assert_eq!(
                ok,
                same_tenant,
                "path {a}->{b} (same tenant: {same_tenant}) must be {}",
                if same_tenant { "open" } else { "closed" }
            );
        }
    }
}

#[test]
fn airlock_nodes_cannot_reach_tenant_enclave() {
    // While a node sits in the airlock being attested, it must not be
    // able to reach already-trusted enclave members.
    let (sim, cloud, golden) = build(2);
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let nodes = cloud.nodes();
    sim.block_on({
        let (tenant, cloud) = (tenant.clone(), cloud.clone());
        let nodes = nodes.clone();
        async move {
            // First node fully provisioned into the enclave.
            tenant
                .provision(nodes[0], &SecurityProfile::charlie(), golden)
                .await
                .expect("first node");
            // Second node starts provisioning; capture reachability while
            // it is mid-airlock by probing from a parallel task.
            let h0 = cloud.hil.node_host(nodes[0]).expect("host");
            let h1 = cloud.hil.node_host(nodes[1]).expect("host");
            let fabric = cloud.fabric.clone();
            let sim2 = cloud.sim.clone();
            let probe = cloud.sim.spawn(async move {
                // Probe every second; record when the path first opens.
                for _ in 0..600 {
                    sim2.sleep(bolted::sim::SimDuration::from_secs(1)).await;
                    if fabric.path(h1, h0).is_ok() {
                        return Some(sim2.now());
                    }
                }
                None
            });
            let p2 = tenant
                .provision(nodes[1], &SecurityProfile::charlie(), golden)
                .await
                .expect("second node");
            let first_reachable = probe.await.expect("eventually joins the enclave");
            // The node may only become reachable once it left the airlock,
            // i.e. at/after the start of its network-move phase (which
            // follows attestation).
            let network_move = p2.report.phase("network-move").expect("phase");
            let kernel_boot = p2.report.phase("kernel-boot").expect("phase");
            let attest_done = p2.report.finished - kernel_boot - network_move;
            assert!(
                first_reachable >= attest_done,
                "enclave reachable at {first_reachable}, before attestation finished at {attest_done}"
            );
            // After provisioning both are in the enclave and can talk.
            assert!(cloud.fabric.path(h1, h0).is_ok());
        }
    });
}

#[test]
fn concurrent_multi_tenant_provisioning_stays_isolated() {
    let (sim, cloud, golden) = build(8);
    let t1 = Tenant::new(&cloud, "org-a").expect("tenant");
    let t2 = Tenant::new(&cloud, "org-b").expect("tenant");
    let nodes = cloud.nodes();
    sim.block_on({
        let (t1, t2, cloud) = (t1.clone(), t2.clone(), cloud.clone());
        let nodes = nodes.clone();
        async move {
            let mut handles = Vec::new();
            for (i, &node) in nodes.iter().enumerate() {
                let t = if i % 2 == 0 { t1.clone() } else { t2.clone() };
                handles.push(cloud.sim.spawn(async move {
                    t.provision(node, &SecurityProfile::bob(), golden)
                        .await
                        .expect("provisions")
                }));
            }
            join_all(handles).await;
        }
    });
    // Interleaved provisioning must still produce two disjoint enclaves.
    let host = |i: usize| cloud.hil.node_host(nodes[i]).expect("host");
    assert!(
        cloud.fabric.path(host(0), host(2)).is_ok(),
        "org-a internal"
    );
    assert!(
        cloud.fabric.path(host(1), host(3)).is_ok(),
        "org-b internal"
    );
    assert!(cloud.fabric.path(host(0), host(1)).is_err(), "cross-org");
    assert_eq!(
        cloud.fabric.isolation_violations(),
        0,
        "no leaks during boot"
    );
}

#[test]
fn hil_authority_is_scoped_to_owners() {
    let (sim, cloud, golden) = build(2);
    let owner = Tenant::new(&cloud, "owner").expect("tenant");
    let node = cloud.nodes()[0];
    sim.block_on({
        let owner = owner.clone();
        async move {
            owner
                .provision(node, &SecurityProfile::alice(), golden)
                .await
                .expect("provisions");
        }
    });
    // Another project cannot manipulate the node through HIL.
    assert!(cloud.hil.power_cycle("intruder", node).is_err());
    assert!(cloud.hil.detach_node("intruder", node).is_err());
    assert!(cloud.hil.free_node("intruder", node).is_err());
    // But HIL metadata reads are public by design (EK distribution).
    assert!(cloud.hil.node_metadata(node).is_ok());
}

#[test]
fn audit_log_covers_every_privileged_operation() {
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
    let log = cloud.hil.audit_log();
    for needle in [
        "register node m620-01",
        "allocate m620-01 -> charlie",
        "create network charlie-enclave",
        "connect m620-01",
        "power-cycle node 0",
        "free m620-01 (was charlie)",
    ] {
        assert!(
            log.iter().any(|l| l.contains(needle)),
            "audit log missing {needle:?}; log: {log:#?}"
        );
    }
}
