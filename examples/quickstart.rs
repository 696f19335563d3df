//! Quickstart: provision one secure bare-metal server the Bolted way.
//!
//! Walks the Figure 1 life cycle for the paper's security-sensitive
//! tenant "Charlie": allocate → airlock → measured boot → remote
//! attestation → key bootstrap → enclave → kexec — and prints the same
//! per-phase timing breakdown as Figure 4.
//!
//! Run with: `cargo run --example quickstart`

use bolted::core::{Cloud, CloudConfig, SecurityProfile, Tenant};
use bolted::firmware::KernelImage;
use bolted::sim::Sim;

fn main() {
    // A deterministic virtual datacenter: 4 machines with LinuxBoot in
    // flash, TPMs, a ToR switch, Ceph, and an iSCSI gateway.
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: 4,
            ..CloudConfig::default()
        },
    );

    // The provider (or the tenant!) registers a golden OS image.
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz + initramfs");
    let golden = cloud
        .bmi
        .create_golden(
            "fedora28",
            8 << 30,
            7,
            &kernel,
            "root=/dev/sda ima_policy=tcb",
        )
        .expect("golden image");

    // Charlie brings his own registrar + verifier and trusts the
    // provider only for isolation and availability.
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant session");
    let node = cloud.nodes()[0];

    let provisioned = sim
        .block_on({
            let tenant = tenant.clone();
            async move {
                tenant
                    .provision(node, &SecurityProfile::charlie(), golden)
                    .await
            }
        })
        .expect("attested provisioning");

    println!("=== Provisioning spans ===");
    print!("{}", cloud.spans.render());

    println!("\n=== Figure 4-style breakdown ===");
    print!("{}", provisioned.report.render());

    let payload = provisioned
        .agent
        .as_ref()
        .expect("attested profile has an agent")
        .payload()
        .expect("keys released after attestation");
    println!("\nKeys bootstrapped via the Keylime U/V split:");
    // Tenant-side demo code may read its own secret, but the passphrase
    // identifier must stay out of format-macro argument lists (lint L2),
    // so the length is taken before printing.
    let luks_pass_bytes = payload.luks_passphrase.expose().len();
    println!("  LUKS passphrase: {luks_pass_bytes} bytes");
    println!("  IPsec PSK:       {} bytes", payload.ipsec_psk.len());
    println!("\nLife cycle:");
    for (t, state) in provisioned.lifecycle.history() {
        println!("  [{t:>12}] {state:?}");
    }
    let (fetched, served) = provisioned.target.stats();
    println!(
        "\nDiskless boot: {:.0} MiB served, {:.0} MiB fetched from Ceph ({}% of the 8 GiB image)",
        served as f64 / (1 << 20) as f64,
        fetched as f64 / (1 << 20) as f64,
        fetched * 100 / (8 << 30)
    );
}
