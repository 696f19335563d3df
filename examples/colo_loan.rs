//! The co-location use case (§4.3): two organisations in one facility
//! loan each other machines. The *lender* runs the isolation service;
//! the *borrower* brings its own attestation and provisioning, so it
//! never has to trust the lender with its software or data — "this use
//! case is, in fact, the primary one for which Bolted is going into
//! production".
//!
//! Run with: `cargo run --example colo_loan`

use bolted::core::{Cloud, CloudConfig, SecurityProfile, Tenant};
use bolted::firmware::KernelImage;
use bolted::sim::Sim;

fn main() {
    let sim = Sim::new();
    // The lender's datacenter: an IaaS cloud with spare capacity.
    let lender_cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: 4,
            ..CloudConfig::default()
        },
    );

    // The borrower (an HPC shop with a demand spike) registers its OWN
    // golden image with its OWN provisioning service — here expressed as
    // its own BMI instance over its own storage handles. Nothing about
    // the image or kernel is shared with the lender.
    let hpc_kernel = KernelImage::from_bytes("hpc-el8-lustre", b"borrower kernel + initrd");
    let hpc_golden = lender_cloud
        .bmi
        .create_golden("hpc-el8", 16 << 30, 99, &hpc_kernel, "hugepages=64G")
        .expect("borrower golden image");

    // The borrower acts as a tenant of the lender's HIL, attesting each
    // loaned machine against its own whitelist before trusting it.
    let borrower = Tenant::new(&lender_cloud, "hpc-org").expect("tenant session");
    println!("HPC org borrowing 2 machines from the IaaS org's free pool...");
    let nodes = lender_cloud.nodes();
    let loaned = sim.block_on({
        let borrower = borrower.clone();
        let nodes = nodes.clone();
        async move {
            let mut out = Vec::new();
            for &node in &nodes[..2] {
                out.push(
                    borrower
                        .provision(node, &SecurityProfile::charlie(), hpc_golden)
                        .await
                        .expect("attested loan"),
                );
            }
            out
        }
    });
    for p in &loaned {
        println!(
            "  loaned {} in {:.1}s — firmware attested against the borrower's own build",
            p.report.node,
            p.report.total().as_secs_f64()
        );
    }

    // The lender's own workloads keep running on the rest of the pool,
    // in a different enclave the borrower cannot reach.
    let lender_tenant = Tenant::new(&lender_cloud, "iaas-internal").expect("tenant");
    let internal_kernel = KernelImage::from_bytes("iaas-hypervisor", b"kvm stack");
    let internal_golden = lender_cloud
        .bmi
        .create_golden("iaas-node", 8 << 30, 7, &internal_kernel, "")
        .expect("golden");
    let internal = sim
        .block_on({
            let lender_tenant = lender_tenant.clone();
            let node = nodes[2];
            async move {
                lender_tenant
                    .provision(node, &SecurityProfile::bob(), internal_golden)
                    .await
            }
        })
        .expect("internal provisioning");
    println!(
        "  lender's own node {} provisioned alongside ({:.1}s)",
        internal.report.node,
        internal.report.total().as_secs_f64()
    );

    // Demand spike over: the loan is returned. Diskless provisioning
    // means there is nothing to scrub — release is instantaneous.
    let t0 = sim.now();
    sim.block_on({
        let borrower = borrower.clone();
        async move {
            for mut p in loaned {
                borrower.release(&mut p, false).await.expect("released");
            }
        }
    });
    println!(
        "loan returned in {} (no disk scrubbing: state never touched local media)",
        sim.now().since(t0)
    );
    assert_eq!(lender_cloud.hil.free_nodes().len(), 3);

    // The borrower's traffic never shared a VLAN with the lender's.
    let borrowed_host = lender_cloud.hil.node_host(nodes[0]).expect("host");
    let lender_host = lender_cloud.hil.node_host(nodes[2]).expect("host");
    assert!(lender_cloud
        .fabric
        .path(borrowed_host, lender_host)
        .is_err());
    println!("verified: borrower and lender enclaves never shared a network.");
}
