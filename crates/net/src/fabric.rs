//! The datacenter network fabric: switches, VLAN-isolated ports, hosts,
//! and timed data transfers.
//!
//! This is the substrate HIL drives: HIL's only privileges are assigning
//! switch ports to VLANs and powering nodes. Frame delivery is enforced
//! *here* — two hosts can exchange traffic only when their access ports
//! carry the same VLAN and their switches are trunk-connected — which is
//! exactly the isolation property tenants rely on (§5, "HIL controls the
//! network switches ... and provides VLAN-based network isolation").

// lint: allow-file(L1-index: switches, hosts and ports live in Vecs
// indexed by ids this module mints and never recycles; an id cannot
// outlive the fabric that created it, so indexing is total)

use bolted_sim::lock;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use bolted_crypto::cost::CipherCost;
use bolted_sim::fault::ops;
use bolted_sim::{OpGate, Resource, Sim, SimDuration};

use crate::link::{LinkModel, ESP_OVERHEAD_BYTES};

/// VLAN identifier (802.1Q tag).
pub type VlanId = u16;

/// Handle to a host attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Handle to a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(pub usize);

/// Errors from fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Host is not attached to any switch port.
    NotAttached,
    /// Port exists on no switch / port index out of range.
    NoSuchPort,
    /// Port already has a host attached.
    PortBusy,
    /// The two endpoints are not on a common VLAN: traffic is dropped.
    IsolationViolation,
    /// Same VLAN but no trunk path between the switches.
    NoRoute,
    /// The switch's management plane did not answer (transient; injected
    /// by the fault plan). Retry the operation.
    SwitchUnreachable,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NotAttached => write!(f, "host not attached to a switch port"),
            NetError::NoSuchPort => write!(f, "no such switch port"),
            NetError::PortBusy => write!(f, "switch port already occupied"),
            NetError::IsolationViolation => write!(f, "VLAN isolation violation"),
            NetError::NoRoute => write!(f, "no trunk path between switches"),
            NetError::SwitchUnreachable => write!(f, "switch management plane unreachable"),
        }
    }
}

impl std::error::Error for NetError {}

/// Chunk size for interleaving concurrent flows on a link, bytes.
const CHUNK_BYTES: u64 = 1 << 20;

/// Parameters of a timed transfer.
#[derive(Debug, Clone, Copy)]
pub struct TransferSpec {
    /// Whether ESP encapsulation overhead applies.
    pub esp: bool,
    /// CPU cost model for encryption (use [`CipherCost::FREE`] for none).
    pub cipher: CipherCost,
    /// Traffic shaping: pad every message up to a multiple of this many
    /// bytes (`None` = no shaping).
    pub pad_to: Option<u64>,
}

impl TransferSpec {
    /// Plain, unencrypted transfer.
    pub fn plain() -> Self {
        TransferSpec {
            esp: false,
            cipher: CipherCost::FREE,
            pad_to: None,
        }
    }

    /// IPsec transfer with the given cipher cost model.
    pub fn ipsec(cipher: CipherCost) -> Self {
        TransferSpec {
            esp: true,
            cipher,
            pad_to: None,
        }
    }

    /// Adds traffic shaping: every message is padded up to a multiple of
    /// `bucket` bytes, so an observer cannot distinguish payload sizes
    /// (§6: tenants can "shape their traffic to resist traffic analysis
    /// from the provider"). Costs bandwidth proportional to the padding.
    pub fn shaped(mut self, bucket: u64) -> Self {
        self.pad_to = Some(bucket.max(1));
        self
    }

    /// Bytes that actually cross the wire for a `len`-byte payload.
    pub fn padded_len(&self, len: u64) -> u64 {
        match self.pad_to {
            Some(bucket) => len.div_ceil(bucket).max(1) * bucket,
            None => len,
        }
    }
}

struct Port {
    vlan: Option<VlanId>,
    host: Option<usize>,
}

struct Switch {
    #[allow(dead_code)]
    name: String,
    ports: Vec<Port>,
}

struct HostState {
    name: String,
    link: LinkModel,
    attached: Option<(usize, usize)>,
    bytes_sent: u64,
    bytes_received: u64,
}

struct FabricInner {
    switches: Vec<Switch>,
    hosts: Vec<HostState>,
    trunks: Vec<(usize, usize)>,
    taps: BTreeMap<VlanId, Vec<Vec<u8>>>,
    tap_enabled: bool,
    violations: u64,
}

/// The shared network fabric.
#[derive(Clone)]
pub struct Fabric {
    sim: Sim,
    /// Counts VLAN programming as `switch_vlan_sets{target=<attached
    /// host>}` and consults the fault plan before each one.
    gate: OpGate,
    inner: Arc<Mutex<FabricInner>>,
    tx_locks: Arc<Mutex<Vec<Resource>>>,
    rx_locks: Arc<Mutex<Vec<Resource>>>,
}

impl Fabric {
    /// Creates an empty fabric on the given simulation whose switch
    /// management plane is instrumented by `gate`.
    pub fn new(sim: &Sim, gate: &OpGate) -> Self {
        Fabric {
            sim: sim.clone(),
            gate: gate.clone(),
            inner: Arc::new(Mutex::new(FabricInner {
                switches: Vec::new(),
                hosts: Vec::new(),
                trunks: Vec::new(),
                taps: BTreeMap::new(),
                tap_enabled: false,
                violations: 0,
            })),
            tx_locks: Arc::new(Mutex::new(Vec::new())),
            rx_locks: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Adds a switch with `ports` access ports.
    pub fn add_switch(&self, name: impl Into<String>, ports: usize) -> SwitchId {
        let mut inner = lock(&self.inner);
        let id = inner.switches.len();
        inner.switches.push(Switch {
            name: name.into(),
            ports: (0..ports)
                .map(|_| Port {
                    vlan: None,
                    host: None,
                })
                .collect(),
        });
        SwitchId(id)
    }

    /// Trunks two switches together (all VLANs carried).
    pub fn trunk(&self, a: SwitchId, b: SwitchId) {
        lock(&self.inner).trunks.push((a.0, b.0));
    }

    /// Registers a host NIC (not yet attached to any port).
    pub fn add_host(&self, name: impl Into<String>, link: LinkModel) -> HostId {
        let mut inner = lock(&self.inner);
        let id = inner.hosts.len();
        inner.hosts.push(HostState {
            name: name.into(),
            link,
            attached: None,
            bytes_sent: 0,
            bytes_received: 0,
        });
        lock(&self.tx_locks).push(Resource::new(&self.sim, 1));
        lock(&self.rx_locks).push(Resource::new(&self.sim, 1));
        HostId(id)
    }

    /// Cables a host NIC into a switch port.
    pub fn attach(&self, host: HostId, switch: SwitchId, port: usize) -> Result<(), NetError> {
        let mut inner = lock(&self.inner);
        let sw = inner.switches.get(switch.0).ok_or(NetError::NoSuchPort)?;
        let p = sw.ports.get(port).ok_or(NetError::NoSuchPort)?;
        if p.host.is_some() {
            return Err(NetError::PortBusy);
        }
        inner.switches[switch.0].ports[port].host = Some(host.0);
        inner.hosts[host.0].attached = Some((switch.0, port));
        Ok(())
    }

    /// Uncables a host.
    pub fn detach(&self, host: HostId) {
        let mut inner = lock(&self.inner);
        if let Some((sw, port)) = inner.hosts[host.0].attached.take() {
            inner.switches[sw].ports[port].host = None;
        }
    }

    /// Sets (or clears) the access VLAN of a switch port.
    /// This is HIL's core privileged operation.
    pub fn set_port_vlan(
        &self,
        switch: SwitchId,
        port: usize,
        vlan: Option<VlanId>,
    ) -> Result<(), NetError> {
        let mut inner = lock(&self.inner);
        // Key the fault stream by the attached host's name so chaos plans
        // can target "that node's switch port" symbolically.
        let target = inner
            .switches
            .get(switch.0)
            .and_then(|sw| sw.ports.get(port))
            .and_then(|p| p.host)
            .map(|h| inner.hosts[h].name.clone())
            .unwrap_or_else(|| format!("sw{}:p{}", switch.0, port));
        self.gate
            .tap(
                "switch_vlan_sets",
                &[("target", &target)],
                ops::SWITCH_SET_VLAN,
                &target,
            )
            .map_err(|_| NetError::SwitchUnreachable)?;
        let sw = inner
            .switches
            .get_mut(switch.0)
            .ok_or(NetError::NoSuchPort)?;
        let p = sw.ports.get_mut(port).ok_or(NetError::NoSuchPort)?;
        p.vlan = vlan;
        Ok(())
    }

    /// Convenience: sets the VLAN of the port a host is attached to.
    pub fn set_host_vlan(&self, host: HostId, vlan: Option<VlanId>) -> Result<(), NetError> {
        let (sw, port) = lock(&self.inner)
            .hosts
            .get(host.0)
            .and_then(|h| h.attached)
            .ok_or(NetError::NotAttached)?;
        self.set_port_vlan(SwitchId(sw), port, vlan)
    }

    /// The VLAN a host currently sits on.
    pub fn host_vlan(&self, host: HostId) -> Option<VlanId> {
        let inner = lock(&self.inner);
        let (sw, port) = inner.hosts.get(host.0)?.attached?;
        inner.switches[sw].ports[port].vlan
    }

    /// Bytes sent / received by a host so far.
    pub fn host_traffic(&self, host: HostId) -> (u64, u64) {
        let h = &lock(&self.inner).hosts[host.0];
        (h.bytes_sent, h.bytes_received)
    }

    /// Number of delivery attempts dropped by VLAN isolation.
    pub fn isolation_violations(&self) -> u64 {
        lock(&self.inner).violations
    }

    /// Enables wire taps: every payload crossing each VLAN is recorded
    /// (models an eavesdropping provider or tenant).
    pub fn enable_taps(&self) {
        lock(&self.inner).tap_enabled = true;
    }

    /// Returns all payloads observed on `vlan` since taps were enabled.
    pub fn tapped(&self, vlan: VlanId) -> Vec<Vec<u8>> {
        lock(&self.inner)
            .taps
            .get(&vlan)
            .cloned()
            .unwrap_or_default()
    }

    /// Checks L2 reachability: both attached, same (non-None) VLAN, and a
    /// trunk path between their switches. Returns the common VLAN.
    pub fn path(&self, from: HostId, to: HostId) -> Result<VlanId, NetError> {
        let inner = lock(&self.inner);
        let (sw_a, p_a) = inner
            .hosts
            .get(from.0)
            .and_then(|h| h.attached)
            .ok_or(NetError::NotAttached)?;
        let (sw_b, p_b) = inner
            .hosts
            .get(to.0)
            .and_then(|h| h.attached)
            .ok_or(NetError::NotAttached)?;
        let vlan_a = inner.switches[sw_a].ports[p_a].vlan;
        let vlan_b = inner.switches[sw_b].ports[p_b].vlan;
        match (vlan_a, vlan_b) {
            (Some(a), Some(b)) if a == b => {
                if Self::reachable(&inner, sw_a, sw_b) {
                    Ok(a)
                } else {
                    Err(NetError::NoRoute)
                }
            }
            _ => Err(NetError::IsolationViolation),
        }
    }

    fn reachable(inner: &FabricInner, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let n = inner.switches.len();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([a]);
        seen[a] = true;
        while let Some(cur) = queue.pop_front() {
            for &(x, y) in &inner.trunks {
                let next = if x == cur {
                    y
                } else if y == cur {
                    x
                } else {
                    continue;
                };
                if next == b {
                    return true;
                }
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
        }
        false
    }

    /// Transfers `bytes` of payload from `from` to `to`, charging virtual
    /// time for serialisation, encryption, and propagation. Returns the
    /// total elapsed duration.
    pub async fn transfer(
        &self,
        from: HostId,
        to: HostId,
        bytes: u64,
        spec: TransferSpec,
    ) -> Result<SimDuration, NetError> {
        let start = self.sim.now();
        if let Err(e) = self.path(from, to) {
            if matches!(e, NetError::IsolationViolation) {
                lock(&self.inner).violations += 1;
            }
            return Err(e);
        }
        let (link, latency) = {
            let inner = lock(&self.inner);
            let la = inner.hosts[from.0].link;
            let lb = inner.hosts[to.0].link;
            // Bottleneck link governs serialisation; worst latency applies.
            let link = if la.bandwidth_bps <= lb.bandwidth_bps {
                la
            } else {
                lb
            };
            (link, la.latency.max(lb.latency))
        };
        let overhead = if spec.esp { ESP_OVERHEAD_BYTES } else { 0 };
        let tx = lock(&self.tx_locks)[from.0].clone();
        let rx = lock(&self.rx_locks)[to.0].clone();
        let wire_payload = spec.padded_len(bytes);
        let mut remaining = wire_payload;
        loop {
            let chunk = remaining.min(CHUNK_BYTES);
            let wire = link.serialize_time(chunk, overhead);
            let pkts = link.packets_for(chunk, overhead);
            let cipher_ns =
                spec.cipher.per_op_ns * pkts as f64 + spec.cipher.per_byte_ns * chunk as f64;
            let service = wire.max(SimDuration::from_secs_f64(cipher_ns / 1e9));
            let _tx_permit = tx.acquire().await;
            let _rx_permit = rx.acquire().await;
            self.sim.sleep(service).await;
            if remaining <= chunk {
                break;
            }
            remaining -= chunk;
        }
        self.sim.sleep(latency).await;
        {
            let mut inner = lock(&self.inner);
            inner.hosts[from.0].bytes_sent += wire_payload;
            inner.hosts[to.0].bytes_received += wire_payload;
        }
        Ok(self.sim.now().since(start))
    }

    /// Sends a concrete payload: charges transfer time, then records the
    /// frame on the VLAN tap (when taps are enabled) exactly as sent —
    /// callers that want confidentiality must seal it (e.g. with
    /// [`crate::IpsecTunnel`]) before calling.
    pub async fn send_msg(
        &self,
        from: HostId,
        to: HostId,
        payload: Vec<u8>,
        spec: TransferSpec,
    ) -> Result<(), NetError> {
        let vlan = self.path(from, to)?;
        self.transfer(from, to, payload.len() as u64, spec).await?;
        let mut inner = lock(&self.inner);
        if inner.tap_enabled {
            // The tap sees the padded wire frame, not the logical payload.
            let mut frame = payload;
            frame.resize(spec.padded_len(frame.len() as u64) as usize, 0);
            inner.taps.entry(vlan).or_default().push(frame);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Sim, Fabric, HostId, HostId) {
        setup_gated(&OpGate::disabled())
    }

    fn setup_gated(gate: &OpGate) -> (Sim, Fabric, HostId, HostId) {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, gate);
        let sw = fabric.add_switch("tor-1", 48);
        let a = fabric.add_host("node-a", LinkModel::ten_gbe());
        let b = fabric.add_host("node-b", LinkModel::ten_gbe());
        fabric.attach(a, sw, 0).expect("attach a");
        fabric.attach(b, sw, 1).expect("attach b");
        (sim, fabric, a, b)
    }

    #[test]
    fn same_vlan_hosts_can_talk() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(100)).expect("vlan");
        fabric.set_host_vlan(b, Some(100)).expect("vlan");
        let d = sim.block_on({
            let f = fabric.clone();
            async move { f.transfer(a, b, 1_000_000, TransferSpec::plain()).await }
        });
        let d = d.expect("same vlan transfers");
        assert!(d > SimDuration::ZERO);
        assert_eq!(fabric.host_traffic(a).0, 1_000_000);
        assert_eq!(fabric.host_traffic(b).1, 1_000_000);
    }

    #[test]
    fn cross_vlan_traffic_dropped() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(100)).expect("vlan");
        fabric.set_host_vlan(b, Some(200)).expect("vlan");
        let r = sim.block_on({
            let f = fabric.clone();
            async move { f.transfer(a, b, 1000, TransferSpec::plain()).await }
        });
        assert_eq!(r, Err(NetError::IsolationViolation));
        assert_eq!(fabric.isolation_violations(), 1);
    }

    #[test]
    fn unassigned_vlan_is_isolated() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(100)).expect("vlan");
        // b has no VLAN at all.
        let r = sim.block_on({
            let f = fabric.clone();
            async move { f.transfer(a, b, 1000, TransferSpec::plain()).await }
        });
        assert_eq!(r, Err(NetError::IsolationViolation));
    }

    #[test]
    fn detached_host_unreachable() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(1)).expect("vlan");
        fabric.set_host_vlan(b, Some(1)).expect("vlan");
        fabric.detach(b);
        let r = sim.block_on({
            let f = fabric.clone();
            async move { f.transfer(a, b, 1000, TransferSpec::plain()).await }
        });
        assert_eq!(r, Err(NetError::NotAttached));
    }

    #[test]
    fn trunked_switches_route_same_vlan() {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, &OpGate::disabled());
        let s1 = fabric.add_switch("tor-1", 4);
        let s2 = fabric.add_switch("tor-2", 4);
        let s3 = fabric.add_switch("spine", 4);
        fabric.trunk(s1, s3);
        fabric.trunk(s3, s2);
        let a = fabric.add_host("a", LinkModel::ten_gbe());
        let b = fabric.add_host("b", LinkModel::ten_gbe());
        fabric.attach(a, s1, 0).expect("attach");
        fabric.attach(b, s2, 0).expect("attach");
        fabric.set_host_vlan(a, Some(7)).expect("vlan");
        fabric.set_host_vlan(b, Some(7)).expect("vlan");
        assert_eq!(fabric.path(a, b), Ok(7));
        // Remove trunks: no route.
        let fabric2 = Fabric::new(&sim, &OpGate::disabled());
        let s1 = fabric2.add_switch("tor-1", 4);
        let s2 = fabric2.add_switch("tor-2", 4);
        let a = fabric2.add_host("a", LinkModel::ten_gbe());
        let b = fabric2.add_host("b", LinkModel::ten_gbe());
        fabric2.attach(a, s1, 0).expect("attach");
        fabric2.attach(b, s2, 0).expect("attach");
        fabric2.set_host_vlan(a, Some(7)).expect("vlan");
        fabric2.set_host_vlan(b, Some(7)).expect("vlan");
        assert_eq!(fabric2.path(a, b), Err(NetError::NoRoute));
    }

    #[test]
    fn vlan_programming_respects_fault_plan() {
        use bolted_sim::fault::{FaultPlan, FaultSpec, Faults};
        use bolted_sim::Metrics;
        let metrics = Metrics::new();
        let faults = Faults::new(
            FaultPlan::seeded(1).with_target(ops::SWITCH_SET_VLAN, "node-a", FaultSpec::flaky(2)),
            &metrics,
        );
        let (_sim, fabric, a, b) = setup_gated(&OpGate::new(&faults, &metrics));
        // node-a's port flaps twice, then recovers.
        assert_eq!(
            fabric.set_host_vlan(a, Some(100)),
            Err(NetError::SwitchUnreachable)
        );
        assert_eq!(
            fabric.set_host_vlan(a, Some(100)),
            Err(NetError::SwitchUnreachable)
        );
        assert_eq!(fabric.set_host_vlan(a, Some(100)), Ok(()));
        // Untargeted ports are unaffected throughout.
        assert_eq!(fabric.set_host_vlan(b, Some(100)), Ok(()));
        assert_eq!(
            metrics.counter(
                "faults_injected",
                &[("op", ops::SWITCH_SET_VLAN), ("target", "node-a")]
            ),
            2
        );
    }

    #[test]
    fn port_conflicts_rejected() {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, &OpGate::disabled());
        let sw = fabric.add_switch("tor", 1);
        let a = fabric.add_host("a", LinkModel::ten_gbe());
        let b = fabric.add_host("b", LinkModel::ten_gbe());
        fabric.attach(a, sw, 0).expect("attach");
        assert_eq!(fabric.attach(b, sw, 0), Err(NetError::PortBusy));
        assert_eq!(fabric.attach(b, sw, 5), Err(NetError::NoSuchPort));
    }

    #[test]
    fn transfer_time_matches_line_rate() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(1)).expect("vlan");
        fabric.set_host_vlan(b, Some(1)).expect("vlan");
        let bytes = 1_000_000_000u64; // 1 GB
        let d = sim
            .block_on({
                let f = fabric.clone();
                async move { f.transfer(a, b, bytes, TransferSpec::plain()).await }
            })
            .expect("transfers");
        // 1 GB over ~9.4 Gbit/s goodput ≈ 0.85 s.
        let secs = d.as_secs_f64();
        assert!((0.8..0.95).contains(&secs), "took {secs}s");
    }

    #[test]
    fn ipsec_transfer_slower_than_plain() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(1)).expect("vlan");
        fabric.set_host_vlan(b, Some(1)).expect("vlan");
        let bytes = 100_000_000u64;
        let f2 = fabric.clone();
        let plain = sim
            .block_on(async move { f2.transfer(a, b, bytes, TransferSpec::plain()).await })
            .expect("plain");
        let f3 = fabric.clone();
        let enc = sim
            .block_on(async move {
                f3.transfer(
                    a,
                    b,
                    bytes,
                    TransferSpec::ipsec(bolted_crypto::CipherSuite::AesNi.default_cost()),
                )
                .await
            })
            .expect("ipsec");
        assert!(
            enc.as_secs_f64() > 1.5 * plain.as_secs_f64(),
            "ipsec {} vs plain {}",
            enc,
            plain
        );
    }

    #[test]
    fn concurrent_flows_share_nic() {
        let (sim, fabric, a, b) = setup();
        let sw = SwitchId(0);
        let c = fabric.add_host("node-c", LinkModel::ten_gbe());
        fabric.attach(c, sw, 2).expect("attach");
        for h in [a, b, c] {
            fabric.set_host_vlan(h, Some(1)).expect("vlan");
        }
        // Two flows into b: each alone would take ~0.085s; sharing b's rx
        // they must take ~2x.
        let bytes = 100_000_000u64;
        let f1 = fabric.clone();
        let h1 = sim.spawn(async move { f1.transfer(a, b, bytes, TransferSpec::plain()).await });
        let f2 = fabric.clone();
        let h2 = sim.spawn(async move { f2.transfer(c, b, bytes, TransferSpec::plain()).await });
        sim.run();
        let d1 = h1.try_take().expect("done").expect("ok");
        let d2 = h2.try_take().expect("done").expect("ok");
        let slowest = d1.max(d2).as_secs_f64();
        assert!(slowest > 0.14, "sharing should slow the flows: {slowest}");
    }

    #[test]
    fn mailbox_delivery_and_taps() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(1)).expect("vlan");
        fabric.set_host_vlan(b, Some(1)).expect("vlan");
        fabric.enable_taps();
        let f = fabric.clone();
        sim.block_on(async move {
            f.send_msg(a, b, b"hello enclave".to_vec(), TransferSpec::plain())
                .await
                .expect("sends");
        });
        let taps = fabric.tapped(1);
        assert_eq!(taps.len(), 1);
        assert_eq!(taps[0], b"hello enclave");
    }

    #[test]
    fn sealed_messages_are_opaque_on_the_tap() {
        let (sim, fabric, a, b) = setup();
        fabric.set_host_vlan(a, Some(1)).expect("vlan");
        fabric.set_host_vlan(b, Some(1)).expect("vlan");
        fabric.enable_taps();
        let (mut ta, mut tb) = crate::ipsec::tunnel_pair(b"psk", bolted_crypto::CipherSuite::AesNi);
        let sealed = ta.seal(b"the secret plan").expect("seals");
        let f = fabric.clone();
        sim.block_on(async move {
            f.send_msg(a, b, sealed, TransferSpec::ipsec(CipherCost::FREE))
                .await
                .expect("sends");
        });
        let taps = fabric.tapped(1);
        assert_eq!(taps.len(), 1);
        assert!(!taps[0].windows(6).any(|w| w == b"secret"));
        // But the legitimate receiver opens the frame it carried.
        assert_eq!(tb.open(&taps[0]).expect("opens"), b"the secret plan");
    }
}

#[cfg(test)]
mod shaping_tests {
    use super::*;

    fn setup() -> (Sim, Fabric, HostId, HostId) {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, &OpGate::disabled());
        let sw = fabric.add_switch("tor", 4);
        let a = fabric.add_host("a", crate::link::LinkModel::ten_gbe());
        let b = fabric.add_host("b", crate::link::LinkModel::ten_gbe());
        fabric.attach(a, sw, 0).expect("attach");
        fabric.attach(b, sw, 1).expect("attach");
        fabric.set_host_vlan(a, Some(1)).expect("vlan");
        fabric.set_host_vlan(b, Some(1)).expect("vlan");
        (sim, fabric, a, b)
    }

    #[test]
    fn padded_len_rounds_up_to_bucket() {
        let spec = TransferSpec::plain().shaped(4096);
        assert_eq!(spec.padded_len(1), 4096);
        assert_eq!(spec.padded_len(4096), 4096);
        assert_eq!(spec.padded_len(4097), 8192);
        assert_eq!(spec.padded_len(0), 4096, "even empty sends emit a bucket");
        assert_eq!(TransferSpec::plain().padded_len(77), 77);
    }

    #[test]
    fn shaping_hides_message_sizes_from_taps() {
        let (sim, fabric, a, b) = setup();
        fabric.enable_taps();
        let spec = TransferSpec::plain().shaped(8192);
        sim.block_on({
            let fabric = fabric.clone();
            async move {
                for msg in [b"hi".to_vec(), vec![7u8; 5000], vec![9u8; 100]] {
                    fabric.send_msg(a, b, msg, spec).await.expect("sends");
                }
            }
        });
        let frames = fabric.tapped(1);
        assert_eq!(frames.len(), 3);
        assert!(
            frames.iter().all(|f| f.len() == 8192),
            "all frames identical on the wire: {:?}",
            frames.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shaping_costs_bandwidth() {
        let (sim, fabric, a, b) = setup();
        let plain = sim
            .block_on({
                let f = fabric.clone();
                async move { f.transfer(a, b, 100, TransferSpec::plain()).await }
            })
            .expect("plain");
        let sim2 = Sim::new();
        let (sim2, fabric2, a2, b2) = {
            let _ = sim2;
            setup()
        };
        let shaped = sim2
            .block_on({
                let f = fabric2.clone();
                async move {
                    f.transfer(a2, b2, 100, TransferSpec::plain().shaped(1 << 20))
                        .await
                }
            })
            .expect("shaped");
        assert!(
            shaped.as_secs_f64() > 2.0 * plain.as_secs_f64(),
            "padding to 1 MiB must cost real time: {plain} vs {shaped}"
        );
    }
}
