//! Image management on top of the object cluster: create, snapshot,
//! clone (copy-on-write), delete — the verbs BMI exposes (§5, "disk image
//! creation, image clone and snapshot, image deletion").

use bolted_sim::lock;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::cluster::{Backing, Cluster, ImageId, ObjectKey};

/// Errors from image operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// No image with that id.
    NoSuchImage,
    /// An image with that name already exists.
    NameTaken,
    /// The image is frozen (snapshotted) and cannot be written.
    Frozen,
    /// The image still has clones depending on it.
    HasChildren,
    /// Byte range exceeds the image size.
    OutOfBounds,
    /// Transient storage-path failure (gateway hiccup, Ceph OSD timeout;
    /// injected by the fault plan). Retry the operation.
    Transient,
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::NoSuchImage => write!(f, "no such image"),
            ImageError::NameTaken => write!(f, "image name already in use"),
            ImageError::Frozen => write!(f, "image is frozen"),
            ImageError::HasChildren => write!(f, "image has dependent clones"),
            ImageError::OutOfBounds => write!(f, "I/O beyond image size"),
            ImageError::Transient => write!(f, "transient storage failure"),
        }
    }
}

impl std::error::Error for ImageError {}

/// The end of `[offset, offset + len)`, or `OutOfBounds` unless the
/// range lies within `size` bytes — an end past `u64::MAX` included.
pub(crate) fn range_end(offset: u64, len: u64, size: u64) -> Result<u64, ImageError> {
    offset
        .checked_add(len)
        .filter(|&end| end <= size)
        .ok_or(ImageError::OutOfBounds)
}

#[derive(Debug, Clone)]
struct ImageMeta {
    name: String,
    size: u64,
    parent: Option<ImageId>,
    frozen: bool,
    children: usize,
    /// Free-form metadata; BMI stores extracted boot info here
    /// (kernel digest, initrd digest, command line).
    manifest: BTreeMap<String, String>,
}

struct StoreInner {
    images: BTreeMap<ImageId, ImageMeta>,
    by_name: BTreeMap<String, ImageId>,
    next_id: u64,
}

/// The image store.
#[derive(Clone)]
pub struct ImageStore {
    cluster: Cluster,
    inner: Arc<Mutex<StoreInner>>,
}

impl ImageStore {
    /// Creates an image store over a cluster.
    pub fn new(cluster: &Cluster) -> Self {
        ImageStore {
            cluster: cluster.clone(),
            inner: Arc::new(Mutex::new(StoreInner {
                images: BTreeMap::new(),
                by_name: BTreeMap::new(),
                next_id: 1,
            })),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Creates an image of `size` bytes whose unwritten content reads as
    /// `backing` (use [`Backing::Pattern`] for realistic golden images).
    pub fn create(
        &self,
        name: impl Into<String>,
        size: u64,
        backing: Backing,
    ) -> Result<ImageId, ImageError> {
        let name = name.into();
        let mut inner = lock(&self.inner);
        if inner.by_name.contains_key(&name) {
            return Err(ImageError::NameTaken);
        }
        let id = ImageId(inner.next_id);
        inner.next_id += 1;
        inner.images.insert(
            id,
            ImageMeta {
                name: name.clone(),
                size,
                parent: None,
                frozen: false,
                children: 0,
                manifest: BTreeMap::new(),
            },
        );
        inner.by_name.insert(name, id);
        drop(inner);
        if !matches!(backing, Backing::Zero) {
            let objects = size.div_ceil(self.cluster.object_size());
            for i in 0..objects {
                self.cluster.set_backing(
                    ObjectKey {
                        image: id,
                        index: i,
                    },
                    backing,
                );
            }
        }
        Ok(id)
    }

    /// Freezes an image so clones can safely share its objects. Returns
    /// the same id, now usable as a snapshot. Idempotent.
    pub fn snapshot(&self, id: ImageId) -> Result<ImageId, ImageError> {
        let mut inner = lock(&self.inner);
        let meta = inner.images.get_mut(&id).ok_or(ImageError::NoSuchImage)?;
        meta.frozen = true;
        Ok(id)
    }

    /// Creates a copy-on-write clone of a frozen image.
    pub fn clone_image(
        &self,
        parent: ImageId,
        name: impl Into<String>,
    ) -> Result<ImageId, ImageError> {
        let name = name.into();
        let mut inner = lock(&self.inner);
        let pmeta = inner
            .images
            .get(&parent)
            .ok_or(ImageError::NoSuchImage)?
            .clone();
        if !pmeta.frozen {
            return Err(ImageError::Frozen);
        }
        if inner.by_name.contains_key(&name) {
            return Err(ImageError::NameTaken);
        }
        let id = ImageId(inner.next_id);
        inner.next_id += 1;
        inner.images.insert(
            id,
            ImageMeta {
                name: name.clone(),
                size: pmeta.size,
                parent: Some(parent),
                frozen: false,
                children: 0,
                manifest: pmeta.manifest.clone(),
            },
        );
        inner.by_name.insert(name, id);
        // lint: allow(L1-panic: parent presence and frozen-ness were
        // checked at the top of this fn under the same RefCell borrow)
        inner
            .images
            .get_mut(&parent)
            .expect("parent checked")
            .children += 1;
        Ok(id)
    }

    /// Deletes an image and its objects. Fails while clones depend on it.
    pub fn delete(&self, id: ImageId) -> Result<(), ImageError> {
        let mut inner = lock(&self.inner);
        let meta = inner.images.get(&id).ok_or(ImageError::NoSuchImage)?;
        if meta.children > 0 {
            return Err(ImageError::HasChildren);
        }
        let parent = meta.parent;
        let name = meta.name.clone();
        inner.images.remove(&id);
        inner.by_name.remove(&name);
        if let Some(p) = parent {
            if let Some(pm) = inner.images.get_mut(&p) {
                pm.children -= 1;
            }
        }
        drop(inner);
        self.cluster.delete_image_objects(id);
        Ok(())
    }

    /// Looks up an image by name.
    pub fn lookup(&self, name: &str) -> Option<ImageId> {
        lock(&self.inner).by_name.get(name).copied()
    }

    /// The image's name (reverse of [`ImageStore::lookup`]).
    pub fn name(&self, id: ImageId) -> Result<String, ImageError> {
        Ok(lock(&self.inner)
            .images
            .get(&id)
            .ok_or(ImageError::NoSuchImage)?
            .name
            .clone())
    }

    /// Image size in bytes.
    pub fn size(&self, id: ImageId) -> Result<u64, ImageError> {
        Ok(lock(&self.inner)
            .images
            .get(&id)
            .ok_or(ImageError::NoSuchImage)?
            .size)
    }

    /// Rejects a write of `len` bytes at `offset`: `Frozen` for a
    /// snapshot, `OutOfBounds` unless the range lies within the image.
    pub(crate) fn check_write(&self, id: ImageId, offset: u64, len: u64) -> Result<(), ImageError> {
        let inner = lock(&self.inner);
        let meta = inner.images.get(&id).ok_or(ImageError::NoSuchImage)?;
        if meta.frozen {
            return Err(ImageError::Frozen);
        }
        range_end(offset, len, meta.size)?;
        Ok(())
    }

    /// Sets a manifest entry (e.g. extracted kernel digest).
    pub fn set_manifest(&self, id: ImageId, key: &str, value: &str) -> Result<(), ImageError> {
        lock(&self.inner)
            .images
            .get_mut(&id)
            .ok_or(ImageError::NoSuchImage)?
            .manifest
            .insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Reads a manifest entry.
    pub fn manifest(&self, id: ImageId, key: &str) -> Option<String> {
        lock(&self.inner)
            .images
            .get(&id)?
            .manifest
            .get(key)
            .cloned()
    }

    /// Resolves which image in the parent chain actually holds `index`.
    fn resolve_object(&self, id: ImageId, index: u64) -> ObjectKey {
        let inner = lock(&self.inner);
        let mut cur = id;
        loop {
            let key = ObjectKey { image: cur, index };
            if self.cluster.exists(key) {
                return key;
            }
            match inner.images.get(&cur).and_then(|m| m.parent) {
                Some(p) => cur = p,
                None => return ObjectKey { image: id, index },
            }
        }
    }

    /// Reads `len` bytes at `offset`, charging cluster time when
    /// `charge` is set (a gateway serving from its cache passes `false`).
    pub async fn read_at(
        &self,
        id: ImageId,
        offset: u64,
        len: usize,
        charge: bool,
    ) -> Result<Vec<u8>, ImageError> {
        let end = range_end(offset, len as u64, self.size(id)?)?;
        let mut out = vec![0u8; len];
        let osize = self.cluster.object_size();
        let mut pos = offset;
        let mut filled = 0usize;
        while pos < end {
            let index = pos / osize;
            let within = pos % osize;
            let take = ((osize - within) as usize).min((end - pos) as usize);
            let key = self.resolve_object(id, index);
            if charge {
                self.cluster.charge_read(key, take as u64).await;
            }
            // lint: allow(L1-index: take is min-clamped against end - pos,
            // so filled + take never exceeds len)
            let dst = &mut out[filled..filled + take];
            self.cluster.peek_into(key, within, dst);
            pos += take as u64;
            filled += take;
        }
        Ok(out)
    }

    /// Writes bytes at `offset`, performing COW copy-up when the target
    /// object belongs to a parent image.
    pub async fn write_at(&self, id: ImageId, offset: u64, data: &[u8]) -> Result<(), ImageError> {
        self.check_write(id, offset, data.len() as u64)?;
        let osize = self.cluster.object_size();
        let mut pos = offset;
        let mut written = 0usize;
        while written < data.len() {
            let index = pos / osize;
            let within = pos % osize;
            let take = ((osize - within) as usize).min(data.len() - written);
            let own_key = ObjectKey { image: id, index };
            if !self.cluster.exists(own_key) {
                let src = self.resolve_object(id, index);
                if src.image != id {
                    // COW copy-up: pull the parent object into this image.
                    let base = self.cluster.read_object(src, 0, osize as usize).await;
                    self.cluster.write_object(own_key, 0, &base).await;
                }
            }
            self.cluster
                // lint: allow(L1-index: take is min-clamped against
                // data.len() - written at the top of this loop body)
                .write_object(own_key, within, &data[written..written + take])
                .await;
            pos += take as u64;
            written += take;
        }
        Ok(())
    }

    /// Charges read time for a byte range without producing data — the
    /// fast path for large timing-only workloads.
    pub async fn charge_read_range(&self, id: ImageId, offset: u64, len: u64) {
        let osize = self.cluster.object_size();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let index = pos / osize;
            let within = pos % osize;
            let take = (osize - within).min(end - pos);
            let key = self.resolve_object(id, index);
            self.cluster.charge_read(key, take).await;
            pos += take;
        }
    }

    /// Charges replicated write time for a byte range without data.
    pub async fn charge_write_range(&self, id: ImageId, offset: u64, len: u64) {
        let osize = self.cluster.object_size();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let index = pos / osize;
            let within = pos % osize;
            let take = (osize - within).min(end - pos);
            self.cluster
                .charge_write(ObjectKey { image: id, index }, take)
                .await;
            pos += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_sim::Sim;

    fn store() -> (Sim, ImageStore) {
        let sim = Sim::new();
        let c = Cluster::paper_default(&sim);
        (sim, ImageStore::new(&c))
    }

    #[test]
    fn create_and_lookup() {
        let (_sim, s) = store();
        let id = s
            .create("fedora28", 1 << 30, Backing::Pattern(1))
            .expect("creates");
        assert_eq!(s.lookup("fedora28"), Some(id));
        assert_eq!(s.size(id).expect("exists"), 1 << 30);
        assert_eq!(
            s.create("fedora28", 1, Backing::Zero),
            Err(ImageError::NameTaken)
        );
    }

    #[test]
    fn read_write_round_trip_across_objects() {
        let (sim, s) = store();
        let id = s.create("img", 16 << 20, Backing::Zero).expect("creates");
        // Straddle the 4 MiB object boundary.
        let offset = (4 << 20) - 10;
        let data = b"0123456789abcdefghij".to_vec();
        let got = sim.block_on({
            let s = s.clone();
            let data = data.clone();
            async move {
                s.write_at(id, offset, &data).await.expect("writes");
                s.read_at(id, offset, data.len(), true)
                    .await
                    .expect("reads")
            }
        });
        assert_eq!(got, data);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (sim, s) = store();
        let id = s.create("img", 1024, Backing::Zero).expect("creates");
        // Past the end, and an offset + len past u64::MAX.
        let off = u64::MAX - 100;
        let r = sim.block_on({
            let s = s.clone();
            async move {
                [
                    s.read_at(id, 1000, 100, true).await.map(drop),
                    s.write_at(id, 1020, &[0u8; 8]).await,
                    s.read_at(id, off, 4096, true).await.map(drop),
                    s.write_at(id, off, &[0u8; 4096]).await,
                ]
            }
        });
        assert_eq!(r, [const { Err(ImageError::OutOfBounds) }; 4]);
    }

    #[test]
    fn clone_requires_snapshot() {
        let (_sim, s) = store();
        let golden = s
            .create("golden", 8 << 20, Backing::Pattern(5))
            .expect("creates");
        assert_eq!(
            s.clone_image(golden, "c1").unwrap_err(),
            ImageError::Frozen,
            "must snapshot before cloning"
        );
        s.snapshot(golden).expect("freezes");
        assert!(s.clone_image(golden, "c1").is_ok());
    }

    #[test]
    fn frozen_image_rejects_writes() {
        let (sim, s) = store();
        let golden = s.create("golden", 8 << 20, Backing::Zero).expect("creates");
        s.snapshot(golden).expect("freezes");
        let r = sim.block_on({
            let s = s.clone();
            async move { s.write_at(golden, 0, b"x").await }
        });
        assert_eq!(r, Err(ImageError::Frozen));
    }

    #[test]
    fn clone_reads_parent_content() {
        let (sim, s) = store();
        let golden = s.create("golden", 8 << 20, Backing::Zero).expect("creates");
        let (from_clone, parent_after) = sim.block_on({
            let s = s.clone();
            async move {
                s.write_at(golden, 100, b"golden content")
                    .await
                    .expect("writes");
                s.snapshot(golden).expect("freezes");
                let c = s.clone_image(golden, "server-1").expect("clones");
                let got = s.read_at(c, 100, 14, true).await.expect("reads");
                // Write to the clone: COW, parent unchanged.
                s.write_at(c, 100, b"client content").await.expect("writes");
                let parent = s.read_at(golden, 100, 14, true).await.expect("reads");
                (got, parent)
            }
        });
        assert_eq!(from_clone, b"golden content");
        assert_eq!(parent_after, b"golden content");
    }

    #[test]
    fn clone_divergence_is_isolated() {
        let (sim, s) = store();
        let golden = s
            .create("golden", 8 << 20, Backing::Pattern(3))
            .expect("creates");
        s.snapshot(golden).expect("freezes");
        let c1 = s.clone_image(golden, "s1").expect("clones");
        let c2 = s.clone_image(golden, "s2").expect("clones");
        let (r1, r2) = sim.block_on({
            let s = s.clone();
            async move {
                s.write_at(c1, 0, b"tenant-one").await.expect("writes");
                let r1 = s.read_at(c1, 0, 10, true).await.expect("reads");
                let r2 = s.read_at(c2, 0, 10, true).await.expect("reads");
                (r1, r2)
            }
        });
        assert_eq!(r1, b"tenant-one");
        assert_ne!(r2, b"tenant-one", "sibling clone must not see writes");
    }

    #[test]
    fn delete_with_children_refused() {
        let (_sim, s) = store();
        let golden = s.create("golden", 8 << 20, Backing::Zero).expect("creates");
        s.snapshot(golden).expect("freezes");
        let c = s.clone_image(golden, "c").expect("clones");
        assert_eq!(s.delete(golden), Err(ImageError::HasChildren));
        s.delete(c).expect("deletes clone");
        s.delete(golden).expect("deletes golden");
        assert_eq!(s.lookup("golden"), None);
    }

    #[test]
    fn manifest_round_trip_survives_clone() {
        let (_sim, s) = store();
        let golden = s.create("golden", 1 << 20, Backing::Zero).expect("creates");
        s.set_manifest(golden, "kernel", "vmlinuz-4.17.9")
            .expect("sets");
        s.snapshot(golden).expect("freezes");
        let c = s.clone_image(golden, "c").expect("clones");
        assert_eq!(s.manifest(c, "kernel").as_deref(), Some("vmlinuz-4.17.9"));
        assert_eq!(s.manifest(c, "missing"), None);
    }

    #[test]
    fn charge_paths_accumulate_stats() {
        let (sim, s) = store();
        let id = s
            .create("img", 64 << 20, Backing::Pattern(1))
            .expect("creates");
        sim.block_on({
            let s = s.clone();
            async move {
                s.charge_read_range(id, 0, 16 << 20).await;
                s.charge_write_range(id, 0, 4 << 20).await;
            }
        });
        let (r, w, _) = s.cluster().io_stats();
        assert_eq!(r, 16 << 20);
        assert_eq!(w, 4 << 20);
        assert!(sim.now().as_secs_f64() > 0.0);
    }
}
