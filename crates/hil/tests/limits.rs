//! HIL resource-limit and lifecycle-edge tests.

use bolted_hil::{Hil, HilError};
use bolted_net::{Fabric, LinkModel};
use bolted_sim::{Metrics, OpGate, Sim};

#[test]
fn vlan_pool_exhaustion_and_recycling() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let hil = Hil::new(&fabric, &Metrics::disabled());
    // Drain the whole pool (1000 VLANs).
    let mut nets = Vec::new();
    for i in 0..1000 {
        nets.push(
            hil.create_network("p", format!("net-{i}"))
                .expect("allocates"),
        );
    }
    assert_eq!(
        hil.create_network("p", "one-too-many").unwrap_err(),
        HilError::NoFreeVlans
    );
    // Deleting any network frees a VLAN for reuse.
    hil.delete_network("p", nets[500]).expect("deletes");
    assert!(hil.create_network("p", "recycled").is_ok());
}

#[test]
fn double_free_and_foreign_ops_rejected() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let sw = fabric.add_switch("tor", 4);
    let hil = Hil::new(&fabric, &Metrics::disabled());
    let h = fabric.add_host("n1", LinkModel::ten_gbe());
    fabric.attach(h, sw, 0).expect("attach");
    let node = hil.register_node("n1", h, sw, 0, None);
    hil.allocate_node("p", node).expect("allocates");
    hil.free_node("p", node).expect("frees");
    assert_eq!(hil.free_node("p", node).unwrap_err(), HilError::NotOwner);
    assert_eq!(
        hil.delete_network("p", bolted_hil::NetworkId(99))
            .unwrap_err(),
        HilError::NoSuchNetwork
    );
    assert_eq!(
        hil.node_metadata(bolted_hil::NodeId(99)).err(),
        Some(HilError::NoSuchNode)
    );
}

#[test]
fn network_delete_while_nodes_attached_keeps_ports_consistent() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let sw = fabric.add_switch("tor", 4);
    let hil = Hil::new(&fabric, &Metrics::disabled());
    let h = fabric.add_host("n1", LinkModel::ten_gbe());
    fabric.attach(h, sw, 0).expect("attach");
    let node = hil.register_node("n1", h, sw, 0, None);
    hil.allocate_node("p", node).expect("allocates");
    let net = hil.create_network("p", "e").expect("creates");
    hil.connect_node("p", node, net).expect("connects");
    let vlan = hil.network_vlan("p", net).expect("vlan");
    assert_eq!(fabric.host_vlan(h), Some(vlan));
    // Deleting the network returns the VLAN to the pool; the port keeps
    // its tag until the node is detached (operator responsibility, as
    // with real switches) — detach must still work.
    hil.delete_network("p", net).expect("deletes");
    hil.detach_node("p", node).expect("detaches");
    assert_eq!(fabric.host_vlan(h), None);
}
