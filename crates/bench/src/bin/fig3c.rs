//! Figure 3c: network-mounted storage (`dd` over iSCSI ← Ceph).

use bolted_bench::{banner, f, print_table};
use bolted_crypto::CipherSuite;
use bolted_sim::{OpGate, Sim};
use bolted_storage::{
    Backing, Cluster, Gateway, ImageStore, IscsiTarget, Transport, DEFAULT_READ_AHEAD,
    TGT_VM_BANDWIDTH_BPS, TUNED_READ_AHEAD,
};
use bolted_workloads::{dd_iscsi, DdOp, LuksCost};

fn run(luks: Option<LuksCost>, ipsec: bool, read_ahead: u64, op: DdOp) -> f64 {
    let sim = Sim::new();
    let cluster = Cluster::paper_default(&sim);
    let store = ImageStore::new(&cluster);
    let img = store
        .create("dd-volume", 8 << 30, Backing::Zero)
        .expect("image");
    let gateway = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, &OpGate::disabled());
    let transport = if ipsec {
        Transport::ipsec_10g(CipherSuite::AesNi.default_cost())
    } else {
        Transport::plain_10g()
    };
    let target = IscsiTarget::new(&sim, &store, img, &gateway, transport, read_ahead);
    sim.block_on({
        let sim2 = sim.clone();
        async move { dd_iscsi(&sim2, &target, luks, op, 2 << 30, 1 << 20).await }
    })
    .mbps
}

fn main() {
    banner(
        "Network-mounted storage performance (dd over iSCSI + Ceph)",
        "Figure 3c (paper: 8 MiB read-ahead critical; LUKS small write cost; IPsec major)",
    );
    println!("--- main comparison (read-ahead = 8 MiB, the paper's tuning) ---");
    let mut rows = Vec::new();
    for (label, luks, ipsec) in [
        ("plain", None, false),
        ("luks", Some(LuksCost::aes_xts()), false),
        ("ipsec", None, true),
        ("luks+ipsec", Some(LuksCost::aes_xts()), true),
    ] {
        let read = run(luks, ipsec, TUNED_READ_AHEAD, DdOp::Read);
        let write = run(luks, ipsec, TUNED_READ_AHEAD, DdOp::Write);
        rows.push(vec![label.to_string(), f(read, 0), f(write, 0)]);
    }
    print_table(&["config", "read MB/s", "write MB/s"], &rows);

    println!("--- read-ahead ablation (plain reads) ---");
    let mut rows = Vec::new();
    for ra in [
        DEFAULT_READ_AHEAD,
        512 * 1024,
        2 << 20,
        4 << 20,
        TUNED_READ_AHEAD,
        16 << 20,
    ] {
        let read = run(None, false, ra, DdOp::Read);
        rows.push(vec![format!("{} KiB", ra / 1024), f(read, 0)]);
    }
    print_table(&["read-ahead", "read MB/s"], &rows);
    println!("paper shape: \"increasing the read ahead buffer size on Linux to 8MB");
    println!("was critical for performance\" (Ceph serves 4 MiB objects).");
}
