//! Shared communication engine for distributed workloads.
//!
//! Models the detail that drives Figure 7's spread: the NIC is
//! full-duplex, but IPsec encryption funnels *both* directions through
//! the node's crypto path. Each node gets a half-duplex "crypto engine"
//! resource; plain traffic bypasses it entirely.

use bolted_crypto::cost::CipherCost;
use bolted_net::{Fabric, HostId, NetError, TransferSpec};
use bolted_sim::{join_all, OpGate, Resource, Sim, SimDuration};

/// A group of workload nodes on the fabric, with optional IPsec.
pub struct CommGroup {
    sim: Sim,
    fabric: Fabric,
    hosts: Vec<HostId>,
    /// Per-node crypto engine; `None` when traffic is plaintext.
    engines: Option<Vec<Resource>>,
    cipher: CipherCost,
}

impl CommGroup {
    /// Builds a group; `cipher = Some(cost)` enables IPsec semantics.
    pub fn new(sim: &Sim, fabric: &Fabric, hosts: Vec<HostId>, cipher: Option<CipherCost>) -> Self {
        let engines = cipher
            .as_ref()
            .map(|_| hosts.iter().map(|_| Resource::new(sim, 1)).collect());
        CommGroup {
            sim: sim.clone(),
            fabric: fabric.clone(),
            hosts,
            engines,
            cipher: cipher.unwrap_or(CipherCost::FREE),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True if the group is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Whether traffic is encrypted.
    pub fn encrypted(&self) -> bool {
        self.engines.is_some()
    }

    fn crypto_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.cipher.op_ns(bytes) / 1e9)
    }

    /// One message from node `from` to node `to`: seal on the sender's
    /// crypto engine, move the bytes, open on the receiver's engine.
    pub async fn send(&self, from: usize, to: usize, bytes: u64) -> Result<(), NetError> {
        if let Some(engines) = &self.engines {
            engines[from].visit(self.crypto_time(bytes)).await;
        }
        let spec = if self.encrypted() {
            // Wire overhead only; CPU is charged on the engines.
            TransferSpec::ipsec(CipherCost::FREE)
        } else {
            TransferSpec::plain()
        };
        self.fabric
            .transfer(self.hosts[from], self.hosts[to], bytes, spec)
            .await?;
        if let Some(engines) = &self.engines {
            engines[to].visit(self.crypto_time(bytes)).await;
        }
        Ok(())
    }

    /// All-to-all personalised exchange: every node sends `bytes` to
    /// every other node, concurrently.
    pub async fn all_to_all(&self, bytes: u64) -> Result<(), NetError> {
        let n = self.len();
        let mut handles = Vec::with_capacity(n * (n - 1));
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let this = self.clone_ref();
                handles.push(self.sim.spawn(async move { this.send(i, j, bytes).await }));
            }
        }
        for r in join_all(handles).await {
            r?;
        }
        Ok(())
    }

    /// Tree all-reduce of `bytes` per node: reduce up to node 0, result
    /// broadcast back down (2 × (n-1) messages, log-depth chains).
    pub async fn all_reduce(&self, bytes: u64) -> Result<(), NetError> {
        let n = self.len();
        // Reduce: pairwise tree.
        let mut stride = 1;
        while stride < n {
            let mut handles = Vec::new();
            for i in (0..n).step_by(stride * 2) {
                let src = i + stride;
                if src < n {
                    let this = self.clone_ref();
                    handles.push(
                        self.sim
                            .spawn(async move { this.send(src, i, bytes).await }),
                    );
                }
            }
            for r in join_all(handles).await {
                r?;
            }
            stride *= 2;
        }
        // Broadcast back down the same tree.
        let mut stride = n.next_power_of_two() / 2;
        while stride >= 1 {
            let mut handles = Vec::new();
            for i in (0..n).step_by(stride * 2) {
                let dst = i + stride;
                if dst < n {
                    let this = self.clone_ref();
                    handles.push(
                        self.sim
                            .spawn(async move { this.send(i, dst, bytes).await }),
                    );
                }
            }
            for r in join_all(handles).await {
                r?;
            }
            if stride == 1 {
                break;
            }
            stride /= 2;
        }
        Ok(())
    }

    /// Ring neighbour exchange: node i sends `bytes` to node (i+1) % n,
    /// all concurrently (halo exchange).
    pub async fn neighbor_exchange(&self, bytes: u64) -> Result<(), NetError> {
        let n = self.len();
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let this = self.clone_ref();
            handles.push(
                self.sim
                    .spawn(async move { this.send(i, (i + 1) % n, bytes).await }),
            );
        }
        for r in join_all(handles).await {
            r?;
        }
        Ok(())
    }

    fn clone_ref(&self) -> CommGroup {
        CommGroup {
            sim: self.sim.clone(),
            fabric: self.fabric.clone(),
            hosts: self.hosts.clone(),
            engines: self.engines.clone(),
            cipher: self.cipher,
        }
    }
}

/// Builds a standalone test/bench fabric with `n` hosts on one VLAN.
pub fn standalone_group(sim: &Sim, n: usize, cipher: Option<CipherCost>) -> (Fabric, CommGroup) {
    let fabric = Fabric::new(sim, &OpGate::disabled());
    let sw = fabric.add_switch("wl", n);
    let hosts: Vec<HostId> = (0..n)
        .map(|i| {
            let h = fabric.add_host(format!("wl-{i}"), bolted_net::LinkModel::ten_gbe_jumbo());
            fabric.attach(h, sw, i).expect("attach");
            fabric.set_host_vlan(h, Some(1)).expect("vlan");
            h
        })
        .collect();
    let group = CommGroup::new(sim, &fabric, hosts, cipher);
    (fabric, group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_crypto::CipherSuite;

    fn timed<F, Fut>(n: usize, cipher: Option<CipherCost>, f: F) -> f64
    where
        F: FnOnce(CommGroup) -> Fut + Send + 'static,
        Fut: std::future::Future<Output = ()> + Send + 'static,
    {
        let sim = Sim::new();
        let (_fabric, group) = standalone_group(&sim, n, cipher);
        sim.block_on(async move { f(group).await });
        sim.now().as_secs_f64()
    }

    #[test]
    fn all_to_all_completes_and_charges_time() {
        let t = timed(4, None, |g| async move {
            g.all_to_all(10 << 20).await.expect("a2a");
        });
        assert!(t > 0.0);
    }

    #[test]
    fn ipsec_all_to_all_much_slower_than_plain() {
        // Bidirectional traffic through a half-duplex crypto engine: the
        // mechanism behind CG's blow-up in Figure 7.
        let plain = timed(8, None, |g| async move {
            g.all_to_all(8 << 20).await.expect("a2a");
        });
        let enc = timed(8, Some(CipherSuite::AesNi.default_cost()), |g| async move {
            g.all_to_all(8 << 20).await.expect("a2a");
        });
        let ratio = enc / plain;
        assert!(
            (2.5..6.0).contains(&ratio),
            "expected 3-4x comm blow-up, got {ratio:.1} ({plain:.2}s vs {enc:.2}s)"
        );
    }

    #[test]
    fn all_reduce_scales_with_log_depth() {
        let t4 = timed(4, None, |g| async move {
            g.all_reduce(1 << 20).await.expect("ar");
        });
        let t16 = timed(16, None, |g| async move {
            g.all_reduce(1 << 20).await.expect("ar");
        });
        assert!(t16 > t4, "deeper tree costs more");
        assert!(t16 < 4.0 * t4, "but logarithmically, not linearly");
    }

    #[test]
    fn neighbor_exchange_is_parallel() {
        let t4 = timed(4, None, |g| async move {
            g.neighbor_exchange(32 << 20).await.expect("ring");
        });
        let t16 = timed(16, None, |g| async move {
            g.neighbor_exchange(32 << 20).await.expect("ring");
        });
        // Same per-node volume: ring time roughly flat in n.
        assert!(t16 < 1.6 * t4, "t4={t4:.3} t16={t16:.3}");
    }
}
