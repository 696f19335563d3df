//! An iSCSI-style block gateway (the paper's TGT server).
//!
//! Booting servers mount their root disks through this gateway: the
//! client issues block reads; the gateway fetches read-ahead windows
//! from Ceph, pipelines prefetches for sequential streams, and streams
//! data to the client. Two paper results fall out of this model rather
//! than being baked in:
//!
//! * **Read-ahead is critical** (§7.2): with the Linux default of
//!   128 KiB, every request pays a spindle seek; at 8 MiB the seek
//!   amortises and whole 4 MiB Ceph objects are fetched in parallel.
//! * **IPsec devastates iSCSI throughput** (Figure 3c): the secure
//!   channel adds per-byte CPU cost *and* defeats the zero-copy prefetch
//!   pipeline (modelled as pipeline depth 1), so fetch and serve phases
//!   serialise.
//!
//! The gateway itself (one TGT VM in the paper) is a shared bottleneck,
//! which contributes to Figure 5's concurrency knee.

use bolted_sim::lock;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use bolted_crypto::cost::CipherCost;
use bolted_sim::fault::{ops, FaultDecision};
use bolted_sim::{JoinHandle, OpGate, Resource, Sim, SimDuration};

use crate::cluster::ImageId;
use crate::image::{range_end, ImageError, ImageStore};

/// Default Linux read-ahead (128 KiB).
pub const DEFAULT_READ_AHEAD: u64 = 128 * 1024;

/// The paper's tuned read-ahead (8 MiB).
pub const TUNED_READ_AHEAD: u64 = 8 * 1024 * 1024;

/// Sustained iSCSI payload throughput of the paper's TGT VM (8 vCPUs,
/// 10 Gbit network), bytes per second.
pub const TGT_VM_BANDWIDTH_BPS: f64 = 420e6;

/// The shared iSCSI gateway server (the TGT VM).
#[derive(Clone)]
pub struct Gateway {
    /// Serialises gateway CPU/NIC work across all targets.
    service: Resource,
    /// Gateway processing + NIC throughput, bytes per second.
    bandwidth_bps: f64,
    /// Fault + metrics gate consulted on every read path of every target
    /// opened from this gateway: reads count
    /// `storage_read_ops`/`storage_read_bytes` per image and consult the
    /// fault plan, including a plan installed after the target opened.
    gate: OpGate,
}

impl Gateway {
    /// Creates a gateway serving `bandwidth_bps` of payload
    /// ([`TGT_VM_BANDWIDTH_BPS`] for the paper's), instrumented by `gate`.
    pub fn new(sim: &Sim, bandwidth_bps: f64, gate: &OpGate) -> Self {
        Gateway {
            service: Resource::new(sim, 1),
            bandwidth_bps,
            gate: gate.clone(),
        }
    }

    async fn charge(&self, bytes: u64) {
        let t = SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps);
        self.service.visit(t).await;
    }

    /// Mean queueing delay observed at the gateway (diagnostics).
    pub fn mean_wait(&self) -> SimDuration {
        self.service.mean_wait()
    }
}

/// Per-client transport parameters between initiator and gateway.
#[derive(Debug, Clone, Copy)]
pub struct Transport {
    /// Client NIC throughput, bytes per second.
    pub client_bps: f64,
    /// Round-trip request latency.
    pub rtt: SimDuration,
    /// CPU cost of the secure channel (IPsec between client and gateway);
    /// [`CipherCost::FREE`] when the tenant trusts the provider network.
    pub cipher: CipherCost,
    /// Number of read-ahead windows kept in flight. Plain iSCSI
    /// pipelines aggressively; the IPsec path effectively does not.
    pub pipeline_depth: usize,
}

impl Transport {
    /// Plain 10 GbE transport.
    pub fn plain_10g() -> Self {
        Transport {
            client_bps: 1.15e9,
            rtt: SimDuration::from_micros(200),
            cipher: CipherCost::FREE,
            pipeline_depth: 4,
        }
    }

    /// IPsec-protected transport with the given cipher cost.
    pub fn ipsec_10g(cipher: CipherCost) -> Self {
        Transport {
            cipher,
            pipeline_depth: 1,
            ..Self::plain_10g()
        }
    }

    fn wire_time(&self, bytes: u64) -> SimDuration {
        let net = bytes as f64 / self.client_bps;
        let enc = self.cipher.op_ns(bytes) / 1e9;
        // Encryption pipelines with the NIC: the slower stage dominates.
        SimDuration::from_secs_f64(net.max(enc)) + self.rtt
    }
}

/// Where an [`IscsiTarget::read_run`] stopped short.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStopped {
    /// Offset of the request that failed; every request before it was
    /// served.
    pub at: u64,
    /// Why it failed.
    pub error: ImageError,
}

struct TargetState {
    /// Cached window [start, end) currently held at the gateway.
    window: Option<(u64, u64)>,
    /// In-flight prefetches, in ascending range order.
    prefetch: VecDeque<(u64, u64, JoinHandle<()>)>,
    bytes_from_cluster: u64,
    bytes_to_client: u64,
    wasted_prefetch: u64,
}

/// One iSCSI target: a client's session onto one image.
#[derive(Clone)]
pub struct IscsiTarget {
    sim: Sim,
    store: ImageStore,
    image: ImageId,
    /// Image name, resolved once; the fault-plan key for this target.
    fault_key: String,
    gateway: Gateway,
    transport: Transport,
    read_ahead: u64,
    state: Arc<Mutex<TargetState>>,
}

impl IscsiTarget {
    /// Opens a target for `image` through `gateway`.
    pub fn new(
        sim: &Sim,
        store: &ImageStore,
        image: ImageId,
        gateway: &Gateway,
        transport: Transport,
        read_ahead: u64,
    ) -> Self {
        IscsiTarget {
            sim: sim.clone(),
            store: store.clone(),
            image,
            fault_key: store.name(image).unwrap_or_default(),
            gateway: gateway.clone(),
            transport,
            read_ahead: read_ahead.max(512),
            state: Arc::new(Mutex::new(TargetState {
                window: None,
                prefetch: VecDeque::new(),
                bytes_from_cluster: 0,
                bytes_to_client: 0,
                wasted_prefetch: 0,
            })),
        }
    }

    /// The image this target serves.
    pub fn image(&self) -> ImageId {
        self.image
    }

    /// `(bytes fetched from the cluster, bytes served to the client)` —
    /// the gap between them is the fetch-on-demand win BMI reports
    /// ("less than 1% of the image is typically used").
    pub fn stats(&self) -> (u64, u64) {
        let s = lock(&self.state);
        (s.bytes_from_cluster, s.bytes_to_client)
    }

    /// Bytes prefetched but discarded (non-sequential access).
    pub fn wasted_prefetch(&self) -> u64 {
        lock(&self.state).wasted_prefetch
    }

    /// Spawns the fetch of window [start, end): parallel per-object
    /// cluster reads, then the gateway's copy.
    fn spawn_fetch(&self, start: u64, end: u64) -> JoinHandle<()> {
        let store = self.store.clone();
        let gateway = self.gateway.clone();
        let image = self.image;
        let sim = self.sim.clone();
        self.sim.spawn(async move {
            let osize = store.cluster().object_size();
            let mut handles = Vec::new();
            let mut pos = start;
            while pos < end {
                let within = pos % osize;
                let take = (osize - within).min(end - pos);
                let store2 = store.clone();
                handles.push(sim.spawn(async move {
                    store2.charge_read_range(image, pos, take).await;
                }));
                pos += take;
            }
            bolted_sim::join_all(handles).await;
            gateway.charge(end - start).await;
        })
    }

    fn window_bounds(&self, pos: u64, image_size: u64) -> (u64, u64) {
        let start = pos / self.read_ahead * self.read_ahead;
        (start, (start + self.read_ahead).min(image_size))
    }

    /// Sleeps out the wire time a run owes, in one piece.
    async fn pay(&self, owed: &mut SimDuration) {
        self.sim.sleep(std::mem::take(owed)).await;
    }

    /// Ensures [offset, offset+len) is resident at the gateway, consuming
    /// prefetches and topping the pipeline back up behind the resident
    /// window (an empty request with nothing resident reads nothing
    /// ahead). The `owed` wire time is paid before a fetch is spawned or
    /// awaited, the first moments this path observes the clock.
    async fn ensure(
        &self,
        offset: u64,
        len: u64,
        owed: &mut SimDuration,
    ) -> Result<(), ImageError> {
        let image_size = self.store.size(self.image)?;
        let end = range_end(offset, len, image_size)?;
        let mut pos = offset;
        while pos < end {
            // Already in the current window?
            let window_end = {
                let st = lock(&self.state);
                match st.window {
                    Some((s, e)) if pos >= s && pos < e => Some(e),
                    _ => None,
                }
            };
            if let Some(we) = window_end {
                if we >= end {
                    break;
                }
                pos = we;
                continue;
            }
            self.pay(owed).await;
            // Does a prefetch cover it?
            let pre = {
                let mut st = lock(&self.state);
                let covers = matches!(st.prefetch.front(), Some(&(s, e, _)) if pos >= s && pos < e);
                if covers {
                    st.prefetch.pop_front()
                } else {
                    if !st.prefetch.is_empty() {
                        // Stream went elsewhere: discard stale prefetches
                        // (their I/O still completes in the background —
                        // genuinely wasted work, which we count).
                        let wasted: u64 = st.prefetch.iter().map(|(s, e, _)| e - s).sum();
                        st.wasted_prefetch += wasted;
                        st.prefetch.clear();
                    }
                    None
                }
            };
            match pre {
                Some((s, e, handle)) => {
                    handle.await;
                    let mut st = lock(&self.state);
                    st.window = Some((s, e));
                    st.bytes_from_cluster += e - s;
                }
                None => {
                    let (s, e) = self.window_bounds(pos, image_size);
                    let handle = self.spawn_fetch(s, e);
                    handle.await;
                    let mut st = lock(&self.state);
                    st.window = Some((s, e));
                    st.bytes_from_cluster += e - s;
                }
            }
        }
        // Top up the prefetch pipeline behind the current window.
        if self.transport.pipeline_depth > 1 {
            loop {
                let next_start = {
                    let st = lock(&self.state);
                    if st.prefetch.len() + 1 >= self.transport.pipeline_depth {
                        break;
                    }
                    let last_end = st
                        .prefetch
                        .back()
                        .map(|&(_, e, _)| e)
                        .or(st.window.map(|(_, e)| e));
                    match last_end {
                        Some(e) if e < image_size => e,
                        _ => break,
                    }
                };
                self.pay(owed).await;
                let (s, e) = self.window_bounds(next_start, image_size);
                let handle = self.spawn_fetch(s, e);
                lock(&self.state).prefetch.push_back((s, e, handle));
            }
        }
        Ok(())
    }

    /// Accounts one successful client read against this target's image.
    fn count_read(&self, len: u64) {
        let metrics = self.gateway.gate.metrics();
        metrics.inc("storage_read_ops", &[("target", &self.fault_key)]);
        metrics.add("storage_read_bytes", &[("target", &self.fault_key)], len);
    }

    /// One client request of a run: the `storage.read` fault decision
    /// (a spike is owed, a failure is [`ImageError::Transient`]), the
    /// range check and residency, the served-byte and op counts, and the
    /// request's wire time, owed.
    async fn serve(&self, offset: u64, len: u64, owed: &mut SimDuration) -> Result<(), ImageError> {
        match self
            .gateway
            .gate
            .faults()
            .decide(ops::STORAGE_READ, &self.fault_key)
        {
            FaultDecision::Allow => {}
            FaultDecision::Delay(spike) => *owed += spike,
            FaultDecision::Fail => return Err(ImageError::Transient),
        }
        self.ensure(offset, len, owed).await?;
        lock(&self.state).bytes_to_client += len;
        self.count_read(len);
        *owed += self.transport.wire_time(len);
        Ok(())
    }

    /// Timing-only read of `total` bytes at `offset` as back-to-back
    /// client requests of `unit` bytes (the last may be shorter; an empty
    /// run is one empty request). Each request costs what a lone
    /// [`IscsiTarget::read_timed`] of it costs, but its wire time and any
    /// injected spike are owed and slept in one piece before the run next
    /// observes the clock: a window fetch or prefetch top-up, a failed
    /// request, or the end of the run. So every instant the run can be
    /// seen at is the one a loop of single reads reaches, with one timer
    /// per stretch of resident requests instead of one per request.
    ///
    /// A failed request ends the run at that request, with the time owed
    /// before it paid; the requests before it were served.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero and `total` is not.
    pub async fn read_run(&self, offset: u64, total: u64, unit: u64) -> Result<(), RunStopped> {
        // lint: allow(L1-panic: a zero request size with bytes to read
        // would never finish; documented caller contract)
        assert!(
            unit > 0 || total == 0,
            "a {total}-byte run of empty requests"
        );
        let mut owed = SimDuration::ZERO;
        let mut done = 0u64;
        loop {
            // A served request passed the range check, so `at` does not
            // overflow.
            let at = offset + done;
            let len = unit.min(total - done);
            if let Err(error) = self.serve(at, len, &mut owed).await {
                self.pay(&mut owed).await;
                return Err(RunStopped { at, error });
            }
            done += len;
            if done >= total {
                break;
            }
        }
        self.pay(&mut owed).await;
        Ok(())
    }

    /// Timing-only read (no data materialisation) for large workloads: a
    /// run of one request.
    pub async fn read_timed(&self, offset: u64, len: u64) -> Result<(), ImageError> {
        self.read_run(offset, len, len)
            .await
            .map_err(|stopped| stopped.error)
    }

    /// Reads `len` bytes at `offset` with the timing of
    /// [`IscsiTarget::read_timed`], returning the data.
    pub async fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>, ImageError> {
        self.read_timed(offset, len as u64).await?;
        self.store.read_at(self.image, offset, len, false).await
    }

    /// Writes data through to the image (write-through, replicated). A
    /// write to a frozen image or out of range is rejected before it
    /// costs any time or drops the read-ahead state.
    pub async fn write(&self, offset: u64, data: &[u8]) -> Result<(), ImageError> {
        self.store
            .check_write(self.image, offset, data.len() as u64)?;
        self.sim
            .sleep(self.transport.wire_time(data.len() as u64))
            .await;
        self.gateway.charge(data.len() as u64).await;
        // Invalidate cached/prefetched state on overlap (keep it simple:
        // writes drop the whole cache).
        {
            let mut st = lock(&self.state);
            st.window = None;
            st.prefetch.clear();
        }
        self.store.write_at(self.image, offset, data).await
    }

    /// Timing-only write for large workloads, rejected as
    /// [`IscsiTarget::write`] rejects.
    pub async fn write_timed(&self, offset: u64, len: u64) -> Result<(), ImageError> {
        self.store.check_write(self.image, offset, len)?;
        self.sim.sleep(self.transport.wire_time(len)).await;
        self.gateway.charge(len).await;
        self.store.charge_write_range(self.image, offset, len).await;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Backing, Cluster};
    use bolted_sim::fault::{FaultPlan, FaultSpec};
    use bolted_sim::{Faults, Metrics, SimTime};

    fn setup(read_ahead: u64) -> (Sim, ImageStore, IscsiTarget) {
        setup_gated(read_ahead, &OpGate::disabled())
    }

    fn setup_gated(read_ahead: u64, gate: &OpGate) -> (Sim, ImageStore, IscsiTarget) {
        let sim = Sim::new();
        let cluster = Cluster::paper_default(&sim);
        let store = ImageStore::new(&cluster);
        let img = store
            .create("root", 256 << 20, Backing::Pattern(9))
            .expect("creates");
        let gw = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, gate);
        let t = IscsiTarget::new(&sim, &store, img, &gw, Transport::plain_10g(), read_ahead);
        (sim, store, t)
    }

    fn seq_read_mbps(transport: Transport, read_ahead: u64, total: u64) -> f64 {
        let sim = Sim::new();
        let cluster = Cluster::paper_default(&sim);
        let store = ImageStore::new(&cluster);
        let img = store
            .create("root", total * 2, Backing::Zero)
            .expect("creates");
        let gw = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, &OpGate::disabled());
        let t = IscsiTarget::new(&sim, &store, img, &gw, transport, read_ahead);
        sim.block_on(async move {
            let mut off = 0u64;
            let req = 1 << 20;
            while off < total {
                t.read_timed(off, req.min(total - off))
                    .await
                    .expect("reads");
                off += req;
            }
        });
        total as f64 / sim.now().as_secs_f64() / 1e6
    }

    #[test]
    fn read_returns_image_data() {
        let (sim, store, t) = setup(DEFAULT_READ_AHEAD);
        let img = t.image();
        let (via_iscsi, direct) = sim.block_on({
            let store = store.clone();
            async move {
                let a = t.read(1000, 64).await.expect("reads");
                let b = store.read_at(img, 1000, 64, false).await.expect("reads");
                (a, b)
            }
        });
        assert_eq!(via_iscsi, direct);
    }

    #[test]
    fn big_read_ahead_much_faster_sequentially() {
        // The paper's headline storage tuning result (§7.2).
        let slow = seq_read_mbps(Transport::plain_10g(), DEFAULT_READ_AHEAD, 64 << 20);
        let fast = seq_read_mbps(Transport::plain_10g(), TUNED_READ_AHEAD, 64 << 20);
        assert!(
            fast > 3.0 * slow,
            "8 MiB RA ({fast:.0} MB/s) should beat 128 KiB RA ({slow:.0} MB/s)"
        );
    }

    #[test]
    fn tuned_read_reaches_hundreds_of_mbps() {
        let fast = seq_read_mbps(Transport::plain_10g(), TUNED_READ_AHEAD, 128 << 20);
        assert!(
            (250.0..600.0).contains(&fast),
            "expected a few hundred MB/s, got {fast:.0}"
        );
    }

    #[test]
    fn ipsec_transport_slows_reads() {
        let plain = seq_read_mbps(Transport::plain_10g(), TUNED_READ_AHEAD, 512 << 20);
        let ipsec = seq_read_mbps(
            Transport::ipsec_10g(bolted_crypto::CipherSuite::AesNi.default_cost()),
            TUNED_READ_AHEAD,
            512 << 20,
        );
        assert!(
            plain > 2.0 * ipsec,
            "plain {plain:.0} MB/s vs ipsec {ipsec:.0} MB/s — Figure 3c shape"
        );
    }

    #[test]
    fn sequential_reads_hit_cache_within_window() {
        let (sim, _store, t) = setup(TUNED_READ_AHEAD);
        sim.block_on(async move {
            t.read_timed(0, 128 * 1024).await.expect("reads");
            // Reads inside the first 8 MiB window cost no new window
            // fetch for the *current* window (prefetch continues ahead,
            // so compare serve counters instead of cluster bytes).
            let (_, served_1) = t.stats();
            t.read_timed(128 * 1024, 128 * 1024).await.expect("reads");
            let (_, served_2) = t.stats();
            assert_eq!(served_2 - served_1, 128 * 1024);
        });
    }

    #[test]
    fn random_access_wastes_prefetch() {
        let (sim, _store, t) = setup(TUNED_READ_AHEAD);
        sim.block_on(async move {
            t.read_timed(0, 1 << 20).await.expect("reads");
            // Jump far away: queued prefetches are useless.
            t.read_timed(128 << 20, 1 << 20).await.expect("reads");
            assert!(t.wasted_prefetch() > 0, "stale prefetches counted");
        });
    }

    #[test]
    fn write_then_read_back_through_gateway() {
        let (sim, _store, t) = setup(DEFAULT_READ_AHEAD);
        let got = sim.block_on(async move {
            t.write(5000, b"written through iscsi")
                .await
                .expect("writes");
            t.read(5000, 21).await.expect("reads")
        });
        assert_eq!(got, b"written through iscsi");
    }

    #[test]
    fn fetch_on_demand_reads_fraction_of_image() {
        let (sim, _store, t) = setup(TUNED_READ_AHEAD);
        sim.block_on(async move {
            // Touch ~2% of a 256 MiB image.
            t.read_timed(0, 4 << 20).await.expect("reads");
            let (from_cluster, _) = t.stats();
            assert!(
                from_cluster <= 48 << 20,
                "gateway fetched {from_cluster} bytes for a 4 MiB need"
            );
        });
    }

    #[test]
    fn out_of_bounds_rejected() {
        // Past the end, and an offset + len past u64::MAX, which must not
        // wrap to a small end that passes the check.
        let (sim, _store, t) = setup(DEFAULT_READ_AHEAD);
        let off = u64::MAX - 100;
        let r = sim.block_on(async move {
            [
                t.read_timed(256 << 20, 1).await,
                t.read_timed(off, 4096).await,
                t.read(off, 4096).await.map(drop),
                t.write_timed(off, 4096).await,
                t.write(off, &[0u8; 4096]).await,
            ]
        });
        assert_eq!(r, [const { Err(ImageError::OutOfBounds) }; 5]);
        assert_eq!(sim.now().as_secs_f64(), 0.0, "rejections cost no time");
    }

    #[test]
    fn out_of_bounds_write_rejected_before_it_charges() {
        let (sim, _store, t) = setup(TUNED_READ_AHEAD);
        let (r, before, after) = sim.block_on({
            let sim = sim.clone();
            async move {
                t.read_timed(0, 4096).await.expect("reads");
                let before = (sim.now(), t.stats());
                let r = t.write(256 << 20, b"past the end").await;
                // The read-ahead window survives: re-reading it fetches
                // nothing more from the cluster.
                t.read_timed(0, 4096).await.expect("reads");
                (r, before, (sim.now(), t.stats()))
            }
        });
        assert_eq!(r, Err(ImageError::OutOfBounds));
        assert_eq!(before.1 .0, after.1 .0, "window was not dropped");
        let wire = Transport::plain_10g().wire_time(4096);
        assert_eq!(after.0.since(before.0), wire, "write cost no time");
    }

    #[test]
    fn frozen_write_rejected_before_it_charges() {
        let (sim, store, t) = setup(TUNED_READ_AHEAD);
        store.snapshot(t.image()).expect("freezes");
        let (r, warm, rejected, reread) = sim.block_on({
            let sim = sim.clone();
            async move {
                t.read_timed(0, 4096).await.expect("reads");
                let warm = (sim.now(), t.stats());
                let r = [
                    t.write(0, b"into a snapshot").await,
                    t.write_timed(0, 4096).await,
                ];
                let rejected = sim.now();
                // The read-ahead window survives: re-reading it fetches
                // nothing more from the cluster.
                t.read_timed(0, 4096).await.expect("reads");
                (r, warm, rejected, t.stats())
            }
        });
        assert_eq!(r, [const { Err(ImageError::Frozen) }; 2]);
        assert_eq!(rejected, warm.0, "rejected writes cost no time");
        assert_eq!(warm.1 .0, reread.0, "window was not dropped");
    }

    #[test]
    fn reads_respect_fault_plan() {
        // Installed after the target opened: the gate holds the shared
        // handle, so the swapped-in plan still reaches the read path.
        let metrics = Metrics::new();
        let faults = Faults::new(FaultPlan::none(), &metrics);
        let gate = OpGate::new(&faults, &metrics);
        let (sim, _store, t) = setup_gated(DEFAULT_READ_AHEAD, &gate);
        faults.install(
            FaultPlan::seeded(4)
                .with_target(ops::STORAGE_READ, "root", FaultSpec::flaky(1))
                .with_target(
                    ops::STORAGE_READ,
                    "other",
                    FaultSpec::none().with_spike(1.0, SimDuration::from_secs(1)),
                ),
        );
        sim.block_on({
            let t = t.clone();
            async move {
                assert_eq!(t.read_timed(0, 4096).await, Err(ImageError::Transient));
                assert_eq!(t.read_timed(0, 4096).await, Ok(()), "flap recovered");
            }
        });
        assert_eq!(
            metrics.counter(
                "faults_injected",
                &[("op", ops::STORAGE_READ), ("target", "root")]
            ),
            1
        );
    }

    #[test]
    fn fault_spikes_stretch_read_time() {
        let elapsed = |spiked: bool| {
            let plan = if spiked {
                FaultPlan::seeded(4).with(
                    ops::STORAGE_READ,
                    FaultSpec::none().with_spike(1.0, SimDuration::from_secs(1)),
                )
            } else {
                FaultPlan::none()
            };
            let faults = Faults::new(plan, &Metrics::disabled());
            let gate = OpGate::new(&faults, &Metrics::disabled());
            let (sim, _store, t) = setup_gated(DEFAULT_READ_AHEAD, &gate);
            sim.block_on({
                let t = t.clone();
                async move { t.read_timed(0, 4096).await.expect("reads") }
            });
            sim.now().as_secs_f64()
        };
        let base = elapsed(false);
        let slow = elapsed(true);
        assert!(
            (slow - base - 1.0).abs() < 1e-6,
            "spike should add exactly 1s: {base} vs {slow}"
        );
    }

    /// One world of [`read_runs_match_single_reads`]: a 256 MiB image
    /// behind a gate whose plan fails and spikes `storage.read`.
    fn faulted_world(transport: Transport) -> (Sim, IscsiTarget, Metrics) {
        let metrics = Metrics::new();
        let plan = FaultPlan::seeded(23).with(
            ops::STORAGE_READ,
            FaultSpec::transient(0.1).with_spike(0.2, SimDuration::from_millis(3)),
        );
        let gate = OpGate::new(&Faults::new(plan, &metrics), &metrics);
        let sim = Sim::new();
        let store = ImageStore::new(&Cluster::paper_default(&sim));
        let img = store
            .create("root", 256 << 20, Backing::Zero)
            .expect("creates");
        let gw = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, &gate);
        let t = IscsiTarget::new(&sim, &store, img, &gw, transport, 1 << 20);
        (sim, t, metrics)
    }

    /// What a world observed: each failure's offset and time, the end
    /// time, the target's byte counts and the metrics registry.
    type Seen = (Vec<(u64, SimTime)>, SimTime, (u64, u64), u64, String);

    /// Reads `count` requests of `unit` bytes at each of `starts`, as
    /// read runs (`runs`) or one `read_timed` at a time, skipping each
    /// request that fails.
    fn read_streams(
        transport: Transport,
        starts: &[u64],
        count: u64,
        unit: u64,
        runs: bool,
    ) -> Seen {
        let (sim, t, metrics) = faulted_world(transport);
        let failures = sim.block_on({
            let sim = sim.clone();
            let t = t.clone();
            let starts = starts.to_vec();
            async move {
                let mut failures = Vec::new();
                for start in starts {
                    let end = start + count * unit;
                    let mut off = start;
                    while off < end {
                        let failed = if runs {
                            t.read_run(off, end - off, unit).await.err()
                        } else {
                            t.read_timed(off, unit)
                                .await
                                .err()
                                .map(|error| RunStopped { at: off, error })
                        };
                        off = match failed {
                            Some(stopped) => {
                                assert_eq!(stopped.error, ImageError::Transient);
                                failures.push((stopped.at, sim.now()));
                                stopped.at + unit
                            }
                            None if runs => end,
                            None => off + unit,
                        };
                    }
                }
                failures
            }
        });
        (
            failures,
            sim.now(),
            t.stats(),
            t.wasted_prefetch(),
            metrics.to_json(),
        )
    }

    #[test]
    fn read_runs_match_single_reads() {
        // Two streams of 512 KiB requests over 1 MiB windows, the second
        // far from the first (so plain iSCSI discards its prefetches),
        // under injected failures and spikes: a run must reach every
        // instant, count and byte that one read at a time reaches.
        let ipsec = Transport::ipsec_10g(bolted_crypto::CipherSuite::AesNi.default_cost());
        for transport in [ipsec, Transport::plain_10g()] {
            let starts = [0, 128 << 20];
            let run = read_streams(transport, &starts, 48, 512 << 10, true);
            let single = read_streams(transport, &starts, 48, 512 << 10, false);
            assert!(
                run.0.len() >= 4,
                "the plan fails some requests: {:?}",
                run.0
            );
            assert_eq!(run, single, "pipeline depth {}", transport.pipeline_depth);
        }
    }

    #[test]
    fn an_empty_read_is_one_gated_counted_request() {
        let metrics = Metrics::new();
        let faults = Faults::new(
            FaultPlan::seeded(4).with(ops::STORAGE_READ, FaultSpec::flaky(1)),
            &metrics,
        );
        let (sim, _store, t) = setup_gated(DEFAULT_READ_AHEAD, &OpGate::new(&faults, &metrics));
        let (r, times) = sim.block_on({
            let sim = sim.clone();
            let t = t.clone();
            async move {
                let mut r = Vec::new();
                let mut times = Vec::new();
                r.push(t.read_timed(0, 0).await);
                times.push(sim.now());
                r.push(t.read_timed(0, 0).await);
                times.push(sim.now());
                r.push(t.read_timed((256 << 20) + 1, 0).await);
                times.push(sim.now());
                r.push(t.read_run(256 << 20, 0, 0).await.map_err(|s| s.error));
                times.push(sim.now());
                (r, times)
            }
        });
        assert_eq!(
            r,
            [
                Err(ImageError::Transient),
                Ok(()),
                Err(ImageError::OutOfBounds),
                Ok(())
            ]
        );
        // Gated first: the injected failure and the range rejection cost
        // no time, and each served empty request sleeps one RTT.
        let one = SimTime::ZERO + Transport::plain_10g().rtt;
        let two = one + Transport::plain_10g().rtt;
        assert_eq!(times, [SimTime::ZERO, one, one, two]);
        assert_eq!(
            metrics.counter("storage_read_ops", &[("target", "root")]),
            2
        );
        assert_eq!(
            metrics.counter("storage_read_bytes", &[("target", "root")]),
            0
        );
        assert_eq!(t.stats().1, 0);
    }

    #[test]
    fn an_empty_read_on_a_cold_target_reads_nothing_ahead() {
        let (sim, store, t) = setup_gated(DEFAULT_READ_AHEAD, &OpGate::disabled());
        sim.block_on(async move { t.read_timed(200 << 20, 0).await.expect("reads") });
        // One RTT and no cluster I/O, even once every task has run.
        assert_eq!(sim.now(), SimTime::ZERO + Transport::plain_10g().rtt);
        assert_eq!(store.cluster().io_stats(), (0, 0, 0));
    }

    #[test]
    fn a_spike_delays_the_prefetches_its_request_starts() {
        // A read that moves into a prefetched window tops the plain
        // pipeline up behind it. A spike on that read must be slept
        // before the new prefetch starts, so a later read that waits on
        // that prefetch ends exactly one spike later.
        let ra = DEFAULT_READ_AHEAD;
        let end = |spike: bool| {
            let metrics = Metrics::new();
            let faults = Faults::new(FaultPlan::none(), &metrics);
            let (sim, _store, t) = setup_gated(ra, &OpGate::new(&faults, &metrics));
            sim.block_on({
                let sim = sim.clone();
                async move {
                    // Window 0 resident, windows 1..=3 prefetched and landed.
                    t.read_timed(0, 4096).await.expect("reads");
                    sim.sleep(SimDuration::from_secs(1)).await;
                    if spike {
                        let spec = FaultSpec::none().with_spike(1.0, SimDuration::from_secs(1));
                        faults.install(FaultPlan::seeded(4).with(ops::STORAGE_READ, spec));
                    }
                    // Moves into window 1 and starts the prefetch of window 4.
                    t.read_timed(ra, 4096).await.expect("reads");
                    faults.install(FaultPlan::none());
                    for w in 2..=4 {
                        t.read_timed(w * ra, 4096).await.expect("reads");
                    }
                    sim.now()
                }
            })
        };
        assert_eq!(end(true), end(false) + SimDuration::from_secs(1));
    }

    #[test]
    fn gateway_is_shared_bottleneck() {
        // Several concurrent sequential streams saturate the gateway.
        let sim = Sim::new();
        let cluster = Cluster::paper_default(&sim);
        let store = ImageStore::new(&cluster);
        let gw = Gateway::new(&sim, 200e6, &OpGate::disabled()); // slow gateway
        for i in 0..4 {
            let img = store
                .create(format!("root-{i}"), 64 << 20, Backing::Zero)
                .expect("creates");
            let t = IscsiTarget::new(
                &sim,
                &store,
                img,
                &gw,
                Transport::plain_10g(),
                TUNED_READ_AHEAD,
            );
            sim.spawn(async move {
                let mut off = 0u64;
                while off < 32 << 20 {
                    t.read_timed(off, 1 << 20).await.expect("reads");
                    off += 1 << 20;
                }
            });
        }
        sim.run();
        // 4 × 32 MiB (plus prefetch) through 200 MB/s ≥ ~0.67 s.
        assert!(
            sim.now().as_secs_f64() > 0.6,
            "gateway contention should dominate: {}s",
            sim.now().as_secs_f64()
        );
        assert!(gw.mean_wait() > SimDuration::ZERO);
    }
}
