//! Enclave runtime: the mesh of provisioned nodes, their IPsec tunnels,
//! and the continuous-attestation / revocation flow (§7.4).

// lint: allow-file(L1-index: member indices are the enclave's public
// addressing scheme — callers pass 0..len(), and hosts/banned/tunnels are
// all sized at formation; an out-of-range member index is a caller bug the
// same way an out-of-range Vec index is)

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use bolted_keylime::verifier;
use bolted_net::{HostId, IpsecError, IpsecTunnel, NetError, TransferSpec};
use bolted_sim::{join_all, lock, SimDuration, SimTime};

use crate::calib;
use crate::cloud::Cloud;
use crate::provision::{ProvisionedNode, Tenant};

/// Both endpoints of one member pair's IPsec tunnel.
type TunnelPair = Arc<Mutex<(IpsecTunnel, IpsecTunnel)>>;

/// A formed enclave of provisioned nodes.
pub struct Enclave {
    cloud: Cloud,
    /// Member nodes, in formation order.
    pub members: Vec<ProvisionedNode>,
    hosts: Vec<HostId>,
    /// Whether enclave traffic is IPsec-protected.
    pub encrypted: bool,
    /// Paired tunnel endpoints per (i, j) with i < j.
    tunnels: Mutex<BTreeMap<(usize, usize), TunnelPair>>,
    banned: Mutex<Vec<bool>>,
}

impl Enclave {
    /// Forms an enclave from provisioned members; when `encrypted`, a
    /// full IPsec mesh is keyed from the Keylime-delivered PSK.
    pub fn form(cloud: &Cloud, members: Vec<ProvisionedNode>) -> Enclave {
        let hosts: Vec<HostId> = members
            .iter()
            // lint: allow(L1-panic: members are ProvisionedNodes, whose
            // node ids were registered by the same Cloud at build time)
            .map(|m| cloud.hil.node_host(m.node).expect("member registered"))
            .collect();
        let encrypted = members.first().is_some_and(|m| !m.psk.is_empty());
        let tunnels = Mutex::new(BTreeMap::new());
        if encrypted {
            let mut map = lock(&tunnels);
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    let psk = &members[i].psk;
                    let suite = bolted_crypto::CipherSuite::AesNi;
                    map.insert(
                        (i, j),
                        Arc::new(Mutex::new(bolted_net::tunnel_pair(psk, suite))),
                    );
                }
            }
        }
        let n = members.len();
        Enclave {
            cloud: cloud.clone(),
            members,
            hosts,
            encrypted,
            tunnels,
            banned: Mutex::new(vec![false; n]),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the enclave has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The fabric host of member `i`.
    pub fn host(&self, i: usize) -> HostId {
        self.hosts[i]
    }

    /// The transfer spec implied by the enclave's encryption choice.
    pub fn transfer_spec(&self) -> TransferSpec {
        if self.encrypted {
            TransferSpec::ipsec(bolted_crypto::CipherSuite::AesNi.default_cost())
        } else {
            TransferSpec::plain()
        }
    }

    /// Timed bulk transfer between members (used by the workloads).
    pub async fn transfer(
        &self,
        from: usize,
        to: usize,
        bytes: u64,
    ) -> Result<SimDuration, NetError> {
        // One lock for both reads: std's Mutex is not reentrant, so two
        // lock() temporaries in one expression would self-deadlock.
        {
            let banned = lock(&self.banned);
            if banned[from] || banned[to] {
                return Err(NetError::IsolationViolation);
            }
        }
        self.cloud
            .fabric
            .transfer(
                self.hosts[from],
                self.hosts[to],
                bytes,
                self.transfer_spec(),
            )
            .await
    }

    /// Data-path message through the pair's tunnel (real encryption);
    /// errors once either end is revoked.
    pub fn tunnel_send(
        &self,
        from: usize,
        to: usize,
        payload: &[u8],
    ) -> Result<Vec<u8>, IpsecError> {
        let key = (from.min(to), from.max(to));
        let tunnels = lock(&self.tunnels);
        let pair = tunnels.get(&key).ok_or(IpsecError::Revoked)?;
        let mut pair = lock(pair);
        let packet = if from < to {
            pair.0.seal(payload)?
        } else {
            pair.1.seal(payload)?
        };
        if from < to {
            pair.1.open(&packet)
        } else {
            pair.0.open(&packet)
        }
    }

    /// Cryptographically bans a member: every tunnel touching it is
    /// revoked on both ends.
    pub fn ban(&self, victim: usize) {
        lock(&self.banned)[victim] = true;
        for ((i, j), pair) in lock(&self.tunnels).iter() {
            if *i == victim || *j == victim {
                let mut pair = lock(pair);
                pair.0.revoke();
                pair.1.revoke();
            }
        }
    }

    /// True if the member has been banned.
    pub fn is_banned(&self, i: usize) -> bool {
        lock(&self.banned)[i]
    }
}

/// Outcome of the §7.4 revocation experiment.
#[derive(Debug, Clone)]
pub struct RevocationReport {
    /// When the unauthorised binary executed.
    pub violation_at: SimTime,
    /// When the verifier detected it.
    pub detected_at: SimTime,
    /// When the last enclave member finished tearing down its SAs.
    pub banned_at: SimTime,
}

impl RevocationReport {
    /// Violation → detection.
    pub fn detection_latency(&self) -> SimDuration {
        self.detected_at.saturating_since(self.violation_at)
    }

    /// Violation → fully banned.
    pub fn total_latency(&self) -> SimDuration {
        self.banned_at.saturating_since(self.violation_at)
    }
}

/// Runs the paper's policy-violation experiment: continuous attestation
/// on every member, an unwhitelisted binary executed on `victim` at
/// `misbehave_at`, then measures detection and full cryptographic ban.
pub async fn revocation_experiment(
    cloud: &Cloud,
    tenant: &Tenant,
    enclave: &Enclave,
    victim: usize,
    misbehave_at: SimDuration,
) -> RevocationReport {
    let sim = cloud.sim.clone();
    // Start continuous attestation for every attested member.
    for m in &enclave.members {
        if let Some(agent) = &m.agent {
            tenant.verifier.spawn_continuous(agent.id());
        }
    }
    let rx = tenant.verifier.subscribe_revocations();
    // Schedule the violation.
    let violation_at = sim.now() + misbehave_at;
    {
        let sim2 = sim.clone();
        // lint: allow(L1-panic: the revocation experiment is only
        // meaningful over attested members; a drill against an unattested
        // profile is a harness misconfiguration)
        let agent = enclave.members[victim]
            .agent
            .clone()
            .expect("victim must be attested");
        sim.spawn(async move {
            sim2.sleep(misbehave_at).await;
            agent.ima_measure("/tmp/not-on-the-whitelist", b"unauthorized binary");
        });
    }
    // Wait for the verifier to notice.
    // lint: allow(L1-panic: the verifier end of the revocation channel
    // lives for the whole experiment; a closed channel is a harness bug)
    let event = rx.recv().await.expect("revocation broadcast");
    let detected_at = event.detected_at;
    // Every other member applies the revocation in parallel.
    let handles: Vec<_> = (0..enclave.len())
        .filter(|&i| i != victim)
        .map(|_| {
            let sim2 = sim.clone();
            sim.spawn(async move {
                sim2.sleep(verifier::RTT + calib::REVOCATION_APPLY).await;
            })
        })
        .collect();
    join_all(handles).await;
    enclave.ban(victim);
    // Stop the loops so the simulation drains.
    for m in &enclave.members {
        if let Some(agent) = &m.agent {
            tenant.verifier.stop(agent.id());
        }
    }
    RevocationReport {
        violation_at,
        detected_at,
        banned_at: sim.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudConfig;
    use crate::profile::SecurityProfile;
    use bolted_firmware::{FirmwareKind, KernelImage};
    use bolted_keylime::ImaWhitelist;
    use bolted_sim::Sim;

    fn setup(n: usize) -> (Sim, Cloud, Tenant, bolted_storage::ImageId) {
        let sim = Sim::new();
        let cloud = Cloud::build(
            &sim,
            CloudConfig {
                nodes: n,
                firmware: FirmwareKind::LinuxBoot,
                ..CloudConfig::default()
            },
        );
        let kernel = KernelImage::from_bytes("fedora28", b"vmlinuz");
        let golden = cloud
            .bmi
            .create_golden("fedora28", 8 << 30, 7, &kernel, "")
            .expect("golden");
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        let mut wl = ImaWhitelist::new();
        wl.allow_content("/usr/bin/approved", b"fine");
        tenant.set_ima_whitelist(wl);
        (sim, cloud, tenant, golden)
    }

    async fn form_enclave(
        cloud: &Cloud,
        tenant: &Tenant,
        golden: bolted_storage::ImageId,
        n: usize,
    ) -> Enclave {
        let nodes: Vec<_> = cloud.nodes().into_iter().take(n).collect();
        let report = tenant
            .provision_fleet_report(&nodes, &SecurityProfile::charlie(), golden)
            .await;
        assert!(report.failed.is_empty(), "provisions: {:?}", report.failed);
        Enclave::form(cloud, report.succeeded)
    }

    #[test]
    fn enclave_members_can_talk_encrypted() {
        let (sim, cloud, tenant, golden) = setup(2);
        let ok = sim.block_on({
            let (cloud, tenant) = (cloud.clone(), tenant.clone());
            async move {
                let enclave = form_enclave(&cloud, &tenant, golden, 2).await;
                assert!(enclave.encrypted);
                let d = enclave.transfer(0, 1, 1 << 20).await.expect("transfers");
                assert!(d > SimDuration::ZERO);
                let echoed = enclave.tunnel_send(0, 1, b"hello").expect("tunnel");
                echoed == b"hello"
            }
        });
        assert!(ok);
    }

    #[test]
    fn revocation_detects_and_bans_in_seconds() {
        let (sim, cloud, tenant, golden) = setup(3);
        let report = sim.block_on({
            let (cloud, tenant) = (cloud.clone(), tenant.clone());
            async move {
                let enclave = form_enclave(&cloud, &tenant, golden, 3).await;
                // Run some approved activity first.
                enclave.members[1]
                    .agent
                    .as_ref()
                    .expect("agent")
                    .ima_measure("/usr/bin/approved", b"fine");
                let report =
                    revocation_experiment(&cloud, &tenant, &enclave, 1, SimDuration::from_secs(20))
                        .await;
                assert!(enclave.is_banned(1));
                assert!(
                    enclave.tunnel_send(0, 1, b"post-ban").is_err(),
                    "banned node is cryptographically cut off"
                );
                assert!(
                    enclave.tunnel_send(0, 2, b"innocent").is_ok(),
                    "unaffected pair keeps working"
                );
                report
            }
        });
        let detect = report.detection_latency().as_secs_f64();
        let total = report.total_latency().as_secs_f64();
        // Paper §7.4: detection within one polling period (+ <1 s of
        // verification); ban of the whole enclave ≈ 3 s.
        assert!(detect < 4.0, "detection took {detect}s");
        assert!(total < 6.5, "full revocation took {total}s");
        assert!(total > detect);
    }

    #[test]
    fn banned_member_cannot_bulk_transfer() {
        let (sim, cloud, tenant, golden) = setup(2);
        sim.block_on({
            let (cloud, tenant) = (cloud.clone(), tenant.clone());
            async move {
                let enclave = form_enclave(&cloud, &tenant, golden, 2).await;
                enclave.ban(1);
                assert!(enclave.transfer(0, 1, 1024).await.is_err());
            }
        });
    }
}

#[cfg(test)]
mod plain_enclave_tests {
    use super::*;
    use crate::cloud::CloudConfig;
    use crate::profile::SecurityProfile;
    use bolted_firmware::KernelImage;
    use bolted_sim::Sim;

    #[test]
    fn unencrypted_enclave_has_no_tunnels() {
        let sim = Sim::new();
        let cloud = Cloud::build(
            &sim,
            CloudConfig {
                nodes: 2,
                ..CloudConfig::default()
            },
        );
        let kernel = KernelImage::from_bytes("k", b"vmlinuz");
        let golden = cloud
            .bmi
            .create_golden("fedora", 8 << 30, 7, &kernel, "")
            .expect("golden");
        let tenant = Tenant::new(&cloud, "bob").expect("tenant");
        let enclave = sim.block_on({
            let (tenant, cloud) = (tenant.clone(), cloud.clone());
            async move {
                let nodes = cloud.nodes();
                let report = tenant
                    .provision_fleet_report(&nodes, &SecurityProfile::bob(), golden)
                    .await;
                assert!(report.failed.is_empty(), "provisions: {:?}", report.failed);
                Enclave::form(&cloud, report.succeeded)
            }
        });
        assert!(!enclave.encrypted, "bob's psk is empty");
        assert!(
            enclave.tunnel_send(0, 1, b"x").is_err(),
            "no IPsec mesh to use"
        );
        assert!(!enclave.transfer_spec().esp);
        // But bulk transfers work in the clear.
        let ok = sim.block_on({
            let e = std::sync::Arc::new(enclave);
            let e2 = std::sync::Arc::clone(&e);
            async move { e2.transfer(0, 1, 1024).await.is_ok() }
        });
        assert!(ok);
    }
}
