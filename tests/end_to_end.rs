//! Cross-crate integration tests: full provisioning flows through the
//! entire stack (sim → crypto → tpm → net → storage → hil → firmware →
//! bmi → keylime → core).

use bolted::core::{
    foreman_provision, foreman_release_with_scrub, Cloud, CloudConfig, NodeState, SecurityProfile,
    Tenant,
};
use bolted::firmware::{FirmwareKind, KernelImage};
use bolted::sim::{join_all, Sim};
use bolted::storage::ImageId;

fn build(nodes: usize, firmware: FirmwareKind) -> (Sim, Cloud, ImageId) {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes,
            firmware,
            ..CloudConfig::default()
        },
    );
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .expect("golden");
    (sim, cloud, golden)
}

#[test]
fn paper_headline_under_three_minutes_unattested() {
    let (sim, cloud, golden) = build(1, FirmwareKind::LinuxBoot);
    let tenant = Tenant::new(&cloud, "alice").expect("tenant");
    let node = cloud.nodes()[0];
    let p = sim
        .block_on(async move {
            tenant
                .provision(node, &SecurityProfile::alice(), golden)
                .await
        })
        .expect("provisions");
    assert!(
        p.report.total().as_secs_f64() < 180.0,
        "paper: ~3 minutes to allocate and provision; got {}",
        p.report.total()
    );
}

#[test]
fn paper_headline_attestation_costs_about_a_quarter() {
    let (sim, cloud, golden) = build(2, FirmwareKind::LinuxBoot);
    let alice = Tenant::new(&cloud, "alice").expect("tenant");
    let bob = Tenant::new(&cloud, "bob").expect("tenant");
    let nodes = cloud.nodes();
    let (a, b) = sim.block_on(async move {
        let a = alice
            .provision(nodes[0], &SecurityProfile::alice(), golden)
            .await
            .expect("alice");
        let b = bob
            .provision(nodes[1], &SecurityProfile::bob(), golden)
            .await
            .expect("bob");
        (
            a.report.total().as_secs_f64(),
            b.report.total().as_secs_f64(),
        )
    });
    let overhead = b / a - 1.0;
    assert!(
        (0.10..0.40).contains(&overhead),
        "paper: attestation ≈ +25%; got +{:.0}% ({a:.0}s vs {b:.0}s)",
        overhead * 100.0
    );
}

#[test]
fn full_cluster_provisioning_and_release_cycle() {
    let (sim, cloud, golden) = build(8, FirmwareKind::LinuxBoot);
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    sim.block_on({
        let (tenant, cloud) = (tenant.clone(), cloud.clone());
        async move {
            let handles: Vec<_> = cloud
                .nodes()
                .into_iter()
                .map(|node| {
                    let tenant = tenant.clone();
                    cloud.sim.spawn(async move {
                        tenant
                            .provision(node, &SecurityProfile::charlie(), golden)
                            .await
                            .expect("provisions")
                    })
                })
                .collect();
            let provisioned = join_all(handles).await;
            assert_eq!(provisioned.len(), 8);
            for p in &provisioned {
                assert_eq!(p.lifecycle.state(), NodeState::Allocated);
                assert!(p.agent.is_some());
            }
            // Release everything.
            for mut p in provisioned {
                tenant.release(&mut p, false).await.expect("releases");
            }
        }
    });
    assert_eq!(cloud.hil.free_nodes().len(), 8, "all nodes returned");
    // Released volumes are gone from the image store.
    for i in 1..=8 {
        assert!(cloud.store.lookup(&format!("m620-{i:02}-root")).is_none());
    }
}

#[test]
fn restart_volume_on_a_different_node() {
    // The elasticity property Foreman can't give: shut down, keep the
    // volume, restart the image on any compatible node.
    let (sim, cloud, golden) = build(2, FirmwareKind::LinuxBoot);
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let nodes = cloud.nodes();
    sim.block_on({
        let (tenant, cloud) = (tenant.clone(), cloud.clone());
        async move {
            let mut p = tenant
                .provision(nodes[0], &SecurityProfile::bob(), golden)
                .await
                .expect("provisions");
            let volume = p.image;
            tenant
                .release(&mut p, true)
                .await
                .expect("keeps the volume");
            // The volume persisted and can back another node's target.
            assert!(cloud.store.lookup("m620-01-root").is_some());
            let target = cloud.bmi.boot_target(
                volume,
                bolted::storage::Transport::plain_10g(),
                bolted::storage::TUNED_READ_AHEAD,
            );
            target.read_timed(0, 1 << 20).await.expect("readable");
        }
    });
}

#[test]
fn foreman_baseline_slower_and_stateful() {
    let (sim, cloud, golden) = build(2, FirmwareKind::Uefi);
    let tenant = Tenant::new(&cloud, "t").expect("tenant");
    let nodes = cloud.nodes();
    let (bolted_total, foreman_total, scrub) = sim.block_on({
        let cloud = cloud.clone();
        async move {
            let p = tenant
                .provision(nodes[0], &SecurityProfile::charlie().on_uefi(), golden)
                .await
                .expect("bolted");
            let f = foreman_provision(&cloud, "lab", nodes[1])
                .await
                .expect("foreman");
            let scrub = foreman_release_with_scrub(&cloud, "lab", nodes[1])
                .await
                .expect("scrubbed");
            (p.report.total(), f.total(), scrub)
        }
    });
    assert!(
        foreman_total.as_secs_f64() > 1.5 * bolted_total.as_secs_f64(),
        "paper: Bolted full-security still 1.6x faster than Foreman: {bolted_total} vs {foreman_total}"
    );
    assert!(
        scrub.as_secs_f64() > 3600.0,
        "stateful release needs hours of scrubbing: {scrub}"
    );
}

#[test]
fn uefi_and_linuxboot_full_stack_totals_match_figure_4() {
    for (fw, profile, lo, hi) in [
        (
            FirmwareKind::LinuxBoot,
            SecurityProfile::alice(),
            60.0,
            180.0,
        ),
        (FirmwareKind::LinuxBoot, SecurityProfile::bob(), 90.0, 240.0),
        (
            FirmwareKind::Uefi,
            SecurityProfile::charlie().on_uefi(),
            300.0,
            480.0,
        ),
    ] {
        let (sim, cloud, golden) = build(1, fw);
        let tenant = Tenant::new(&cloud, "t").expect("tenant");
        let node = cloud.nodes()[0];
        let name = profile.name.clone();
        let p = sim
            .block_on(async move { tenant.provision(node, &profile, golden).await })
            .expect("provisions");
        let t = p.report.total().as_secs_f64();
        assert!(
            (lo..hi).contains(&t),
            "{name}: expected {lo}-{hi}s, got {t}"
        );
    }
}

#[test]
fn provisioning_is_deterministic() {
    fn one_run() -> Vec<(String, u64)> {
        let (sim, cloud, golden) = build(4, FirmwareKind::LinuxBoot);
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        sim.block_on({
            let cloud = cloud.clone();
            async move {
                let handles: Vec<_> = cloud
                    .nodes()
                    .into_iter()
                    .map(|node| {
                        let tenant = tenant.clone();
                        cloud.sim.spawn(async move {
                            let p = tenant
                                .provision(node, &SecurityProfile::charlie(), golden)
                                .await
                                .expect("provisions");
                            (p.report.node.clone(), p.report.total().as_nanos())
                        })
                    })
                    .collect();
                join_all(handles).await
            }
        })
    }
    assert_eq!(one_run(), one_run(), "bit-identical timings across runs");
}
