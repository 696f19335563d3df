//! Multi-switch topology tests: trunk chains, rings, and partitions.

use bolted_net::{Fabric, LinkModel, TransferSpec};
use bolted_sim::{OpGate, Sim};

fn host_on(
    fabric: &Fabric,
    sw: bolted_net::SwitchId,
    port: usize,
    vlan: u16,
) -> bolted_net::HostId {
    let h = fabric.add_host(format!("h-{}-{port}", sw.0), LinkModel::ten_gbe());
    fabric.attach(h, sw, port).expect("attach");
    fabric.set_host_vlan(h, Some(vlan)).expect("vlan");
    h
}

#[test]
fn long_trunk_chain_routes() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let switches: Vec<_> = (0..6)
        .map(|i| fabric.add_switch(format!("sw{i}"), 4))
        .collect();
    for w in switches.windows(2) {
        fabric.trunk(w[0], w[1]);
    }
    let a = host_on(&fabric, switches[0], 0, 42);
    let b = host_on(&fabric, switches[5], 0, 42);
    assert_eq!(fabric.path(a, b), Ok(42));
    let d = sim
        .block_on({
            let f = fabric.clone();
            async move { f.transfer(a, b, 1 << 20, TransferSpec::plain()).await }
        })
        .expect("routes across 6 switches");
    assert!(d.as_secs_f64() > 0.0);
}

#[test]
fn trunk_ring_does_not_loop_forever() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let switches: Vec<_> = (0..4)
        .map(|i| fabric.add_switch(format!("sw{i}"), 4))
        .collect();
    for i in 0..4 {
        fabric.trunk(switches[i], switches[(i + 1) % 4]);
    }
    let a = host_on(&fabric, switches[0], 0, 7);
    let b = host_on(&fabric, switches[2], 0, 7);
    // BFS over the ring must terminate and find the path.
    assert_eq!(fabric.path(a, b), Ok(7));
}

#[test]
fn partitioned_fabric_has_no_route() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let s1 = fabric.add_switch("island-1", 4);
    let s2 = fabric.add_switch("island-2", 4);
    // No trunk between them.
    let a = host_on(&fabric, s1, 0, 9);
    let b = host_on(&fabric, s2, 0, 9);
    assert_eq!(fabric.path(a, b), Err(bolted_net::NetError::NoRoute));
}

#[test]
fn same_switch_different_vlans_still_isolated() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let sw = fabric.add_switch("tor", 8);
    let a = host_on(&fabric, sw, 0, 1);
    let b = host_on(&fabric, sw, 1, 2);
    assert_eq!(
        fabric.path(a, b),
        Err(bolted_net::NetError::IsolationViolation)
    );
}

#[test]
fn vlan_change_takes_effect_immediately() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let sw = fabric.add_switch("tor", 8);
    let a = host_on(&fabric, sw, 0, 1);
    let b = host_on(&fabric, sw, 1, 2);
    assert!(fabric.path(a, b).is_err());
    fabric.set_host_vlan(b, Some(1)).expect("move b");
    assert_eq!(fabric.path(a, b), Ok(1));
    fabric.set_host_vlan(a, None).expect("strip a");
    assert!(fabric.path(a, b).is_err());
}

#[test]
fn bidirectional_flows_do_not_deadlock() {
    // A->B and B->A simultaneously: full-duplex tx/rx resources must not
    // produce a lock cycle.
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let sw = fabric.add_switch("tor", 4);
    let a = host_on(&fabric, sw, 0, 5);
    let b = host_on(&fabric, sw, 1, 5);
    for (from, to) in [(a, b), (b, a)] {
        let f = fabric.clone();
        sim.spawn(async move {
            f.transfer(from, to, 64 << 20, TransferSpec::plain())
                .await
                .expect("transfers");
        });
    }
    assert_eq!(sim.run(), 0, "no deadlock, all tasks completed");
    // Full duplex: both directions finish in roughly single-flow time.
    assert!(sim.now().as_secs_f64() < 0.12, "{}", sim.now());
}
