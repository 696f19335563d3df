//! Figure 5: concurrently provisioning 1–16 servers, attested vs not.
//!
//! The contention sources are emergent: the Ceph spindle queues, the
//! shared iSCSI gateway, and (attested case) the prototype's single
//! airlock, which serialises attestation.

use bolted_bench::{banner, f, print_table};
use bolted_core::{Cloud, CloudConfig, SecurityProfile, Tenant};
use bolted_crypto::CipherSuite;
use bolted_firmware::{FirmwareKind, KernelImage};
use bolted_sim::{join_all, Sim};

fn run(n: usize, attested: bool, airlocks: usize) -> (f64, f64) {
    let profile = if attested {
        SecurityProfile::bob().on_uefi()
    } else {
        SecurityProfile::alice().on_uefi()
    };
    run_profile(n, profile, airlocks)
}

fn run_profile(n: usize, profile: SecurityProfile, airlocks: usize) -> (f64, f64) {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: n,
            firmware: FirmwareKind::Uefi, // the paper's Figure 5 uses UEFI
            airlocks,
            ..CloudConfig::default()
        },
    );
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .expect("golden");
    let tenant = Tenant::new(&cloud, "tenant").expect("tenant");
    let totals = sim.block_on({
        let (tenant, cloud) = (tenant.clone(), cloud.clone());
        async move {
            let handles: Vec<_> = cloud
                .nodes()
                .into_iter()
                .map(|node| {
                    let tenant = tenant.clone();
                    let profile = profile.clone();
                    cloud.sim.spawn(async move {
                        tenant
                            .provision(node, &profile, golden)
                            .await
                            .expect("provisions")
                            .report
                            .total()
                            .as_secs_f64()
                    })
                })
                .collect();
            join_all(handles).await
        }
    });
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    let max = totals.iter().cloned().fold(0.0, f64::max);
    (mean, max)
}

fn main() {
    banner(
        "Concurrent provisioning (UEFI firmware)",
        "Figure 5 (paper: flat to 8 nodes, degradation at 16 — Ceph + serialized airlock)",
    );
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let (un_mean, _) = run(n, false, 1);
        let (at_mean, _) = run(n, true, 1);
        rows.push(vec![n.to_string(), f(un_mean, 1), f(at_mean, 1)]);
    }
    print_table(
        &["servers", "unattested mean (s)", "attested mean (s)"],
        &rows,
    );

    println!("--- ablation: multiple airlocks (the paper's proposed fix) ---");
    let mut rows = Vec::new();
    for airlocks in [1usize, 2, 4, 16] {
        let (mean, max) = run(16, true, airlocks);
        rows.push(vec![airlocks.to_string(), f(mean, 1), f(max, 1)]);
    }
    print_table(&["airlocks", "attested mean (s)", "slowest (s)"], &rows);
    println!("paper: \"we only support a single airlock at a time; attestation for");
    println!("provisioning is currently serialized ... we intend to address it\".");

    println!();
    println!("--- encrypted boot storm: single-stream vs wide ChaCha20 data plane ---");
    let mut rows = Vec::new();
    for n in [1usize, 4, 8, 16] {
        let (scalar_mean, _) = run_profile(
            n,
            SecurityProfile::bob()
                .on_uefi()
                .with_cipher(CipherSuite::ChaCha20Scalar),
            1,
        );
        let (wide_mean, _) = run_profile(
            n,
            SecurityProfile::bob()
                .on_uefi()
                .with_cipher(CipherSuite::ChaCha20Wide),
            1,
        );
        rows.push(vec![n.to_string(), f(scalar_mean, 1), f(wide_mean, 1)]);
    }
    print_table(
        &["servers", "chacha-scalar mean (s)", "chacha-wide mean (s)"],
        &rows,
    );
    println!("cipher cost models are frozen measurements of this repo's");
    println!("single-stream and 16-lane ChaCha20 sector kernels, kept as model");
    println!("constants (history in EXPERIMENTS.md). The wide rate lifts the");
    println!("secure channel past the NIC (1.35 vs 1.15 GB/s), so encryption");
    println!("stops being the wire bottleneck; what remains of the boot storm is");
    println!("attestation serialization and Ceph contention.");
}
