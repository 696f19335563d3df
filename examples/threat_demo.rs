//! Walks the §2 threat model phase by phase and shows each defence
//! firing — and what happens to a tenant who opted out.
//!
//! Run with: `cargo run --example threat_demo`

use bolted::core::{Cloud, CloudConfig, ProvisionError, SecurityProfile, Tenant};
use bolted::firmware::KernelImage;
use bolted::net::TransferSpec;
use bolted::sim::Sim;

fn main() {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: 3,
            ..CloudConfig::default()
        },
    );
    cloud.fabric.enable_taps();
    let kernel = KernelImage::from_bytes("fedora28", b"vmlinuz");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .expect("golden");
    let nodes = cloud.nodes();

    println!("=== Threat 1 (prior to occupancy): infected firmware ===");
    let victim_node = nodes[0];
    let m = cloud.machine(victim_node);
    m.reflash(m.flash().tampered(b"SPI bootkit from the previous tenant"));
    let charlie = Tenant::new(&cloud, "charlie").expect("tenant");
    let result = sim.block_on({
        let charlie = charlie.clone();
        async move {
            charlie
                .provision(victim_node, &SecurityProfile::charlie(), golden)
                .await
        }
    });
    match result {
        Err(ProvisionError::Rejected(reason)) => {
            println!("  attestation REJECTED the node: {reason}");
            println!(
                "  node moved to the rejected pool: {:?}",
                cloud.rejected_pool()
            );
        }
        _ => unreachable!("tampered firmware must never pass attestation"),
    }

    println!();
    println!("=== Threat 2 (during occupancy): eavesdropping on enclave traffic ===");
    let mut p1 = sim
        .block_on({
            let charlie = charlie.clone();
            let node = nodes[1];
            async move {
                charlie
                    .provision(node, &SecurityProfile::charlie(), golden)
                    .await
            }
        })
        .expect("clean node provisions");
    let vlan = cloud
        .fabric
        .host_vlan(cloud.hil.node_host(p1.node).expect("host"))
        .expect("on the enclave VLAN");
    // Charlie's nodes encrypt before anything hits the wire.
    let (mut tx, _rx) = bolted::net::tunnel_pair(&p1.psk, bolted::crypto::CipherSuite::AesNi);
    let sealed = tx.seal(b"quarterly trading strategy").expect("seals");
    let host = cloud.hil.node_host(p1.node).expect("host");
    sim.block_on({
        let fabric = cloud.fabric.clone();
        let sealed = sealed.clone();
        async move {
            // Loop traffic to ourselves just to put bytes on the VLAN.
            fabric
                .send_msg(host, host, sealed, TransferSpec::plain())
                .await
                .ok();
        }
    });
    let tapped = cloud.fabric.tapped(vlan);
    let leaked = tapped
        .iter()
        .any(|frame| frame.windows(7).any(|w| w == b"trading"));
    println!(
        "  provider's tap captured {} frame(s); plaintext visible: {leaked}",
        tapped.len()
    );
    assert!(!leaked, "IPsec must hide tenant data from the wire");

    println!();
    println!("=== Threat 3 (after occupancy): RAM residue for the next tenant ===");
    // Charlie's node wrote key material to RAM. Release it and hand the
    // machine to another tenant.
    let machine = p1.machine.clone();
    machine.write_secret_to_ram("charlie", b"LUKS master key material");
    sim.block_on({
        let charlie = charlie.clone();
        async move { charlie.release(&mut p1, false).await.expect("released") }
    });
    let eve = Tenant::new(&cloud, "eve").expect("tenant");
    let p2 = sim
        .block_on({
            let eve = eve.clone();
            let node = nodes[1];
            async move { eve.provision(node, &SecurityProfile::alice(), golden).await }
        })
        .expect("eve gets the same machine");
    match machine.ram_residue() {
        // After Eve's own kexec, RAM may hold *Eve's* fresh state — what
        // matters is that nothing of Charlie's survived the scrub.
        Some(r) if r.tenant == "charlie" => panic!("RAM residue leaked Charlie's secrets"),
        residue => {
            // lint: allow(L2-format: RamResidue.secret is the simulated leak
            // probe the demo exists to inspect, not live tenant key material)
            assert!(residue.as_ref().is_none_or(|r| r.secret.is_empty()));
            println!("  LinuxBoot scrubbed RAM before Eve's code ran: nothing to steal.");
        }
    }
    drop(p2);

    println!();
    println!("=== Contrast: what the same attack does to an unattested tenant ===");
    let m3 = cloud.machine(nodes[2]);
    m3.reflash(m3.flash().tampered(b"bootkit"));
    let alice = Tenant::new(&cloud, "alice").expect("tenant");
    let p3 = sim
        .block_on({
            let alice = alice.clone();
            let node = nodes[2];
            async move {
                alice
                    .provision(node, &SecurityProfile::alice(), golden)
                    .await
            }
        })
        .expect("alice boots right through it");
    println!(
        "  Alice's unattested node {} booted on TAMPERED firmware without noticing —",
        p3.report.node
    );
    println!("  exactly the residual risk she accepted in exchange for speed.");
}
