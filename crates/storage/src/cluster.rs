//! A Ceph-like replicated object store.
//!
//! The paper's storage backend (§7.1) is the one geometry, fixed as
//! constants: 3 OSD hosts, 27 spindles total, 4 MiB objects, 3×
//! replication, 7200 rpm nearline spindles. Reads hit the primary
//! replica's spindle; writes fan out to every replica in parallel.
//! Contention — the source of Figure 5's knee at 16 concurrent boots on
//! "the small scale Ceph deployment (with only 27 disks)" — emerges from
//! the per-spindle FIFO queues, not from any baked-in constant.

// lint: allow-file(L1-index: object content generation and placement
// slice buffers whose bounds are min()-clamped against object_size at
// every call site; indices derive from digests reduced modulo pool size)

use bolted_sim::lock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use bolted_crypto::sha256::{sha256, sha256_concat, Digest};
use bolted_sim::{join_all, Resource, Sim, SimDuration};

/// Object size: Ceph's 4 MiB.
pub const OBJECT_SIZE: u64 = 4 * 1024 * 1024;
/// OSD hosts in the paper's cluster.
const OSD_COUNT: usize = 3;
/// Spindles per OSD host: 27 disks in all.
const SPINDLES_PER_OSD: usize = 9;
/// Copies of each object (Ceph's 3× replication).
const REPLICAS: usize = 3;
const _: () = assert!(REPLICAS >= 1 && REPLICAS <= OSD_COUNT);
/// Average positioning time per request of a 7200 rpm nearline SAS
/// spindle, as in the paper's OSD hosts.
const SEEK: SimDuration = SimDuration::from_millis(4);
/// Sustained transfer rate of one spindle, bytes per second.
const SPINDLE_BPS: f64 = 180e6;

/// Identifies a logical image/volume in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId(pub u64);

/// Identifies one object (a stripe of an image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectKey {
    /// Owning image.
    pub image: ImageId,
    /// Stripe index within the image.
    pub index: u64,
}

/// One spindle's service time for a request of `len` bytes.
fn service_time(len: u64) -> SimDuration {
    SEEK + SimDuration::from_secs_f64(len as f64 / SPINDLE_BPS)
}

/// How an object's baseline content is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Reads return zeros.
    Zero,
    /// Reads return a deterministic pseudo-random pattern (lets multi-GiB
    /// golden images exist without resident memory).
    Pattern(u64),
}

struct StoredObject {
    backing: Backing,
    /// Materialised bytes; present once the object has been written.
    data: Option<Vec<u8>>,
    /// Checksum of `data`, maintained on every write (Ceph keeps per-
    /// object checksums for exactly this purpose).
    checksum: Option<bolted_crypto::sha256::Digest>,
}

/// Each object's rendezvous ranking of every OSD and its spindle index
/// within an OSD. Both are pure functions of the key, so they are hashed
/// once per key and never invalidated; failed OSDs are filtered out when
/// a ranking is read.
#[derive(Default)]
struct Placements {
    /// Key → (start of its ranking in `ranks`, spindle index).
    index: BTreeMap<ObjectKey, (usize, usize)>,
    /// Every ranking back to back, `OSD_COUNT` OSD ids each, best first.
    ranks: Vec<usize>,
}

impl Placements {
    fn get(&mut self, key: ObjectKey) -> (&[usize], usize) {
        let ranks = &mut self.ranks;
        let &mut (start, spindle) = self.index.entry(key).or_insert_with(|| {
            let hash = |tail: &[u8]| {
                sha256_concat(&[&key.image.0.to_le_bytes(), &key.index.to_le_bytes(), tail])
            };
            let mut scored: Vec<(u64, usize)> = (0..OSD_COUNT)
                .map(|osd| {
                    let d = hash(&(osd as u64).to_le_bytes());
                    let mut s = [0u8; 8];
                    s.copy_from_slice(&d.as_bytes()[..8]);
                    (u64::from_le_bytes(s), osd)
                })
                .collect();
            scored.sort_unstable_by(|a, b| b.cmp(a));
            let start = ranks.len();
            ranks.extend(scored.into_iter().map(|(_, osd)| osd));
            let spindle = (hash(b"spindle").as_bytes()[0] as usize) % SPINDLES_PER_OSD;
            (start, spindle)
        });
        (&self.ranks[start..start + OSD_COUNT], spindle)
    }
}

struct ClusterInner {
    objects: BTreeMap<ObjectKey, StoredObject>,
    failed_osds: BTreeSet<usize>,
    placements: Placements,
    bytes_read: u64,
    bytes_written: u64,
    requests: u64,
    degraded_writes: u64,
}

/// Handle to the object store.
#[derive(Clone)]
pub struct Cluster {
    sim: Sim,
    inner: Arc<Mutex<ClusterInner>>,
    /// One FIFO resource per spindle, grouped by OSD.
    spindles: Arc<Vec<Resource>>,
}

impl Cluster {
    /// Builds the paper's cluster: 3 OSDs × 9 spindles, 3× replication.
    pub fn paper_default(sim: &Sim) -> Self {
        let spindles = (0..OSD_COUNT * SPINDLES_PER_OSD)
            .map(|_| Resource::new(sim, 1))
            .collect();
        Cluster {
            sim: sim.clone(),
            inner: Arc::new(Mutex::new(ClusterInner {
                objects: BTreeMap::new(),
                failed_osds: BTreeSet::new(),
                placements: Placements::default(),
                bytes_read: 0,
                bytes_written: 0,
                requests: 0,
                degraded_writes: 0,
            })),
            spindles: Arc::new(spindles),
        }
    }

    /// Object size in bytes.
    pub fn object_size(&self) -> u64 {
        OBJECT_SIZE
    }

    /// `(bytes_read, bytes_written, requests)` served so far.
    pub fn io_stats(&self) -> (u64, u64, u64) {
        let inner = lock(&self.inner);
        (inner.bytes_read, inner.bytes_written, inner.requests)
    }

    /// Marks an OSD down: placement routes around it (Ceph's CRUSH
    /// remapping) until [`Cluster::recover_osd`].
    pub fn fail_osd(&self, osd: usize) {
        lock(&self.inner).failed_osds.insert(osd);
    }

    /// Brings a failed OSD back into the placement set.
    pub fn recover_osd(&self, osd: usize) {
        lock(&self.inner).failed_osds.remove(&osd);
    }

    /// True if at least one replica location of `key` is serviceable.
    pub fn is_available(&self, key: ObjectKey) -> bool {
        !self.placement(key).is_empty()
    }

    /// Writes that completed with fewer than three replicas because of
    /// failed OSDs.
    pub fn degraded_writes(&self) -> u64 {
        lock(&self.inner).degraded_writes
    }

    /// Rendezvous-hash placement: returns the live OSD ids holding `key`,
    /// with the primary first. Failed OSDs are skipped, so placement
    /// degrades gracefully (and may return fewer than three, or be
    /// empty when everything is down).
    pub fn placement(&self, key: ObjectKey) -> Vec<usize> {
        self.replicas_of(&mut lock(&self.inner), key).0
    }

    /// `key`'s live replica OSDs, primary first, and its spindle index
    /// within an OSD, read from the memoised ranking.
    fn replicas_of(&self, inner: &mut ClusterInner, key: ObjectKey) -> (Vec<usize>, usize) {
        let (ranking, spindle) = inner.placements.get(key);
        let live = ranking
            .iter()
            .copied()
            .filter(|osd| !inner.failed_osds.contains(osd))
            .take(REPLICAS)
            .collect();
        (live, spindle)
    }

    fn spindle(&self, osd: usize, index: usize) -> Resource {
        self.spindles[osd * SPINDLES_PER_OSD + index].clone()
    }

    /// Declares an object's baseline content (no timing cost; this is
    /// image creation metadata, not data-path I/O).
    pub fn set_backing(&self, key: ObjectKey, backing: Backing) {
        let mut inner = lock(&self.inner);
        let entry = inner.objects.entry(key).or_insert(StoredObject {
            backing,
            data: None,
            checksum: None,
        });
        entry.backing = backing;
    }

    /// Removes every object belonging to `image`.
    pub fn delete_image_objects(&self, image: ImageId) {
        lock(&self.inner).objects.retain(|k, _| k.image != image);
    }

    /// True if the object has been explicitly created (backing or data).
    pub fn exists(&self, key: ObjectKey) -> bool {
        lock(&self.inner).objects.contains_key(&key)
    }

    fn generate_into(&self, key: ObjectKey, backing: Backing, off: u64, buf: &mut [u8]) {
        match backing {
            Backing::Zero => buf.fill(0),
            Backing::Pattern(seed) => {
                let mut filled = 0usize;
                let mut i = off;
                while filled < buf.len() {
                    let word = sha256_concat(&[
                        &seed.to_le_bytes(),
                        &key.index.to_le_bytes(),
                        &(i / 32).to_le_bytes(),
                    ]);
                    let start = (i % 32) as usize;
                    let take = (buf.len() - filled).min(32 - start);
                    buf[filled..filled + take]
                        .copy_from_slice(&word.as_bytes()[start..start + take]);
                    filled += take;
                    i += take as u64;
                }
            }
        }
    }

    /// Reads `len` bytes at `off` within the object, charging primary
    /// spindle time. Returns the data (zeros/pattern when unmaterialised).
    pub async fn read_object(&self, key: ObjectKey, off: u64, len: usize) -> Vec<u8> {
        self.charge_read(key, len as u64).await;
        let mut out = vec![0u8; len];
        self.peek_into(key, off, &mut out);
        out
    }

    /// Fills `buf` from the object at `off` with **no** timing charge —
    /// a gateway serving from its read-ahead cache. Unmaterialised or
    /// absent ranges produce their backing bytes (zeros or pattern).
    pub(crate) fn peek_into(&self, key: ObjectKey, off: u64, buf: &mut [u8]) {
        enum Src {
            Done,
            Generate(Backing),
            Absent,
        }
        let src = {
            let inner = lock(&self.inner);
            match inner.objects.get(&key) {
                Some(obj) => match &obj.data {
                    Some(data) => {
                        let end = ((off as usize) + buf.len()).min(data.len());
                        let start = (off as usize).min(end);
                        let head = end - start;
                        buf[..head].copy_from_slice(&data[start..end]);
                        buf[head..].fill(0);
                        Src::Done
                    }
                    None => Src::Generate(obj.backing),
                },
                None => Src::Absent,
            }
        };
        match src {
            Src::Done => {}
            Src::Generate(backing) => self.generate_into(key, backing, off, buf),
            Src::Absent => buf.fill(0),
        }
    }

    /// Writes bytes at `off` within the object, charging all replica
    /// spindles in parallel; materialises the object on first write.
    pub async fn write_object(&self, key: ObjectKey, off: u64, data: &[u8]) {
        self.charge_write(key, data.len() as u64).await;
        let object_size = self.object_size() as usize;
        // Materialise the object (expanding its backing) on first write.
        let need_backing = {
            let mut inner = lock(&self.inner);
            let entry = inner.objects.entry(key).or_insert(StoredObject {
                backing: Backing::Zero,
                data: None,
                checksum: None,
            });
            if entry.data.is_none() {
                Some(entry.backing)
            } else {
                None
            }
        };
        if let Some(backing) = need_backing {
            let mut base = vec![0u8; object_size];
            self.generate_into(key, backing, 0, &mut base);
            // lint: allow(L1-panic: the entry was inserted by the
            // borrow-scoped block above; two borrows cannot interleave on
            // a single-threaded Arc<RefCell>)
            lock(&self.inner)
                .objects
                .get_mut(&key)
                .expect("inserted above")
                .data = Some(base);
        }
        let mut inner = lock(&self.inner);
        // lint: allow(L1-panic: same single-threaded insert-above invariant)
        let obj = inner.objects.get_mut(&key).expect("exists");
        // lint: allow(L1-panic: the need_backing arm above materialised it)
        let buf = obj.data.as_mut().expect("materialised above");
        let end = ((off as usize) + data.len()).min(object_size);
        let start = (off as usize).min(end);
        buf[start..end].copy_from_slice(&data[..end - start]);
        obj.checksum = Some(sha256(buf));
    }

    /// Test/fault-injection hook: flips a byte of a materialised object
    /// *without* updating its checksum, modelling silent media corruption.
    pub fn corrupt_object(&self, key: ObjectKey, offset: usize) -> bool {
        let mut inner = lock(&self.inner);
        match inner.objects.get_mut(&key).and_then(|o| o.data.as_mut()) {
            Some(data) if offset < data.len() => {
                data[offset] ^= 0xFF;
                true
            }
            _ => false,
        }
    }

    /// Ceph-style deep scrub: re-reads every materialised object (with
    /// timing) and verifies its checksum. Returns the corrupted keys.
    pub async fn deep_scrub(&self) -> Vec<ObjectKey> {
        let keys: Vec<(ObjectKey, usize)> = {
            let inner = lock(&self.inner);
            inner
                .objects
                .iter()
                .filter_map(|(k, o)| o.data.as_ref().map(|d| (*k, d.len())))
                .collect()
        };
        let mut corrupted = Vec::new();
        for (key, len) in keys {
            self.charge_read(key, len as u64).await;
            let inner = lock(&self.inner);
            if let Some(obj) = inner.objects.get(&key) {
                if let (Some(data), Some(sum)) = (&obj.data, &obj.checksum) {
                    if sha256(data) != *sum {
                        corrupted.push(key);
                    }
                }
            }
        }
        corrupted
    }

    /// Checksum of a materialised object, if any.
    pub fn object_checksum(&self, key: ObjectKey) -> Option<Digest> {
        lock(&self.inner).objects.get(&key)?.checksum
    }

    /// Charges the time of a read without touching data — the fast path
    /// for workload models that only need timing.
    ///
    /// # Panics
    ///
    /// Panics if every replica's OSD has failed (check
    /// [`Cluster::is_available`] in failure-injection scenarios).
    pub async fn charge_read(&self, key: ObjectKey, len: u64) {
        let (live, spindle) = {
            let mut inner = lock(&self.inner);
            inner.bytes_read += len;
            inner.requests += 1;
            self.replicas_of(&mut inner, key)
        };
        // lint: allow(L1-panic: documented API contract — callers running
        // failure-injection scenarios must check Cluster::is_available
        // first; see the method doc)
        let primary = *live
            .first()
            .expect("no live replica for object (all OSDs failed)");
        let spindle = self.spindle(primary, spindle);
        spindle.visit(service_time(len)).await;
    }

    /// Charges the time of a replicated write without touching data.
    ///
    /// # Panics
    ///
    /// Panics if every replica's OSD has failed.
    pub async fn charge_write(&self, key: ObjectKey, len: u64) {
        let (osds, spindle) = self.replicas_of(&mut lock(&self.inner), key);
        assert!(
            !osds.is_empty(),
            "no live replica for object (all OSDs failed)"
        );
        {
            let mut inner = lock(&self.inner);
            inner.bytes_written += len;
            inner.requests += 1;
            if osds.len() < REPLICAS {
                inner.degraded_writes += 1;
            }
        }
        let service = service_time(len);
        let handles: Vec<_> = osds
            .into_iter()
            .map(|osd| {
                let spindle = self.spindle(osd, spindle);
                self.sim.spawn(async move { spindle.visit(service).await })
            })
            .collect();
        join_all(handles).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> (Sim, Cluster) {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        (sim, c)
    }

    #[test]
    fn placement_is_deterministic_and_spread() {
        let (_sim, c) = cluster();
        let k1 = ObjectKey {
            image: ImageId(1),
            index: 0,
        };
        assert_eq!(c.placement(k1), c.placement(k1));
        assert_eq!(c.placement(k1).len(), 3);
        // Primaries should spread across OSDs over many objects.
        let mut primaries = [0u32; 3];
        for i in 0..300 {
            let k = ObjectKey {
                image: ImageId(7),
                index: i,
            };
            primaries[c.placement(k)[0]] += 1;
        }
        for (osd, n) in primaries.iter().enumerate() {
            assert!(*n > 50, "osd {osd} got {n}/300 primaries");
        }
    }

    #[test]
    fn read_write_round_trip() {
        let (sim, c) = cluster();
        let k = ObjectKey {
            image: ImageId(1),
            index: 3,
        };
        let got = sim.block_on({
            let c = c.clone();
            async move {
                c.write_object(k, 100, b"bolted image data").await;
                c.read_object(k, 100, 17).await
            }
        });
        assert_eq!(got, b"bolted image data");
    }

    #[test]
    fn unwritten_object_reads_zeros() {
        let (sim, c) = cluster();
        let k = ObjectKey {
            image: ImageId(9),
            index: 0,
        };
        let got = sim.block_on({
            let c = c.clone();
            async move { c.read_object(k, 0, 64).await }
        });
        assert_eq!(got, vec![0u8; 64]);
    }

    #[test]
    fn pattern_backing_is_deterministic_and_nonzero() {
        let (sim, c) = cluster();
        let k = ObjectKey {
            image: ImageId(2),
            index: 5,
        };
        c.set_backing(k, Backing::Pattern(42));
        let (a, b, shifted) = sim.block_on({
            let c = c.clone();
            async move {
                let a = c.read_object(k, 0, 128).await;
                let b = c.read_object(k, 0, 128).await;
                let shifted = c.read_object(k, 64, 64).await;
                (a, b, shifted)
            }
        });
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
        assert_eq!(&a[64..], &shifted[..], "offset reads are consistent");
    }

    #[test]
    fn write_overlays_pattern() {
        let (sim, c) = cluster();
        let k = ObjectKey {
            image: ImageId(3),
            index: 0,
        };
        c.set_backing(k, Backing::Pattern(7));
        let got = sim.block_on({
            let c = c.clone();
            async move {
                let before = c.read_object(k, 0, 16).await;
                c.write_object(k, 4, b"XYZ").await;
                let after = c.read_object(k, 0, 16).await;
                (before, after)
            }
        });
        let (before, after) = got;
        assert_eq!(&after[4..7], b"XYZ");
        assert_eq!(after[..4], before[..4], "pattern preserved around write");
        assert_eq!(after[7..], before[7..]);
    }

    #[test]
    fn read_time_includes_seek_and_transfer() {
        let (sim, c) = cluster();
        let k = ObjectKey {
            image: ImageId(1),
            index: 0,
        };
        sim.block_on({
            let c = c.clone();
            async move { c.charge_read(k, OBJECT_SIZE).await }
        });
        let secs = sim.now().as_secs_f64();
        // 4 ms seek + 4 MiB / 180 MB/s ≈ 27 ms.
        assert!((0.02..0.04).contains(&secs), "read took {secs}s");
    }

    #[test]
    fn writes_replicate_but_run_parallel() {
        let (sim, c) = cluster();
        let k = ObjectKey {
            image: ImageId(1),
            index: 0,
        };
        sim.block_on({
            let c = c.clone();
            async move { c.charge_write(k, OBJECT_SIZE).await }
        });
        let secs = sim.now().as_secs_f64();
        // Parallel across replicas: ~ one service time, not three.
        assert!((0.02..0.05).contains(&secs), "write took {secs}s");
        let (_, written, _) = c.io_stats();
        assert_eq!(written, OBJECT_SIZE);
    }

    #[test]
    fn contention_emerges_from_spindle_queues() {
        // Many concurrent readers of the SAME object must serialise on its
        // primary spindle.
        let (sim, c) = cluster();
        let k = ObjectKey {
            image: ImageId(1),
            index: 0,
        };
        for _ in 0..8 {
            let c2 = c.clone();
            sim.spawn(async move { c2.charge_read(k, OBJECT_SIZE).await });
        }
        sim.run();
        let serial = sim.now().as_secs_f64();
        assert!(serial > 0.15, "8 serialized reads took {serial}s");

        // Readers of DIFFERENT objects mostly parallelise.
        let sim2 = Sim::new();
        let c2 = Cluster::paper_default(&sim2);
        for i in 0..8 {
            let c3 = c2.clone();
            sim2.spawn(async move {
                c3.charge_read(
                    ObjectKey {
                        image: ImageId(50 + i),
                        index: i,
                    },
                    OBJECT_SIZE,
                )
                .await
            });
        }
        sim2.run();
        assert!(
            sim2.now().as_secs_f64() < serial / 2.0,
            "spread reads took {}s vs serial {serial}s",
            sim2.now().as_secs_f64()
        );
    }

    #[test]
    fn delete_image_objects_removes_all() {
        let (sim, c) = cluster();
        sim.block_on({
            let c = c.clone();
            async move {
                for i in 0..4 {
                    c.write_object(
                        ObjectKey {
                            image: ImageId(5),
                            index: i,
                        },
                        0,
                        b"data",
                    )
                    .await;
                }
            }
        });
        assert!(c.exists(ObjectKey {
            image: ImageId(5),
            index: 2
        }));
        c.delete_image_objects(ImageId(5));
        for i in 0..4 {
            assert!(!c.exists(ObjectKey {
                image: ImageId(5),
                index: i
            }));
        }
    }
}

#[cfg(test)]
mod scrub_tests {
    use super::*;

    #[test]
    fn deep_scrub_clean_cluster_finds_nothing() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        let corrupted = sim.block_on({
            let c = c.clone();
            async move {
                for i in 0..4 {
                    c.write_object(
                        ObjectKey {
                            image: ImageId(1),
                            index: i,
                        },
                        0,
                        b"healthy data",
                    )
                    .await;
                }
                c.deep_scrub().await
            }
        });
        assert!(corrupted.is_empty());
    }

    #[test]
    fn deep_scrub_detects_silent_corruption() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        let key = ObjectKey {
            image: ImageId(1),
            index: 2,
        };
        let corrupted = sim.block_on({
            let c = c.clone();
            async move {
                c.write_object(key, 0, b"data").await;
                c.write_object(
                    ObjectKey {
                        image: ImageId(1),
                        index: 3,
                    },
                    0,
                    b"other",
                )
                .await;
                assert!(c.corrupt_object(key, 100));
                c.deep_scrub().await
            }
        });
        assert_eq!(corrupted, vec![key]);
    }

    #[test]
    fn checksum_tracks_writes() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        let key = ObjectKey {
            image: ImageId(5),
            index: 0,
        };
        sim.block_on({
            let c = c.clone();
            async move {
                c.write_object(key, 0, b"v1").await;
                let sum1 = c.object_checksum(key).expect("present");
                c.write_object(key, 0, b"v2").await;
                let sum2 = c.object_checksum(key).expect("present");
                assert_ne!(sum1, sum2);
            }
        });
    }

    #[test]
    fn corrupt_object_rejects_unmaterialised() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        assert!(!c.corrupt_object(
            ObjectKey {
                image: ImageId(9),
                index: 9
            },
            0
        ));
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    #[test]
    fn placement_routes_around_failed_osd() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        let key = ObjectKey {
            image: ImageId(1),
            index: 0,
        };
        let healthy = c.placement(key);
        assert_eq!(healthy.len(), 3);
        c.fail_osd(healthy[0]);
        let degraded = c.placement(key);
        assert!(!degraded.contains(&healthy[0]));
        assert_eq!(degraded.len(), 2, "3 OSDs, 1 down, 3 replicas wanted");
        c.recover_osd(healthy[0]);
        assert_eq!(c.placement(key), healthy);
    }

    #[test]
    fn reads_survive_single_osd_failure() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        let key = ObjectKey {
            image: ImageId(2),
            index: 7,
        };
        let got = sim.block_on({
            let c = c.clone();
            async move {
                c.write_object(key, 0, b"replicated data").await;
                let primary = c.placement(key)[0];
                c.fail_osd(primary);
                c.read_object(key, 0, 15).await
            }
        });
        assert_eq!(got, b"replicated data");
    }

    #[test]
    fn degraded_writes_counted() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        c.fail_osd(0);
        sim.block_on({
            let c = c.clone();
            async move {
                c.charge_write(
                    ObjectKey {
                        image: ImageId(3),
                        index: 0,
                    },
                    1 << 20,
                )
                .await;
            }
        });
        assert_eq!(c.degraded_writes(), 1);
    }

    #[test]
    fn availability_reflects_total_failure() {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        let key = ObjectKey {
            image: ImageId(4),
            index: 0,
        };
        assert!(c.is_available(key));
        for osd in 0..3 {
            c.fail_osd(osd);
        }
        assert!(!c.is_available(key));
        c.recover_osd(1);
        assert!(c.is_available(key));
    }
}
