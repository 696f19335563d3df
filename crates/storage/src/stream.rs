//! Zero-copy encrypted sector delivery between an iSCSI target and a
//! tenant.
//!
//! A [`SectorStream`] owns one reusable scratch buffer per client
//! session. Reads land from the gateway directly in that buffer
//! ([`IscsiTarget::read_into`] → [`ImageStore::read_at_into`] →
//! `Cluster::peek_into`, no intermediate `Vec` at any hop), the LUKS
//! keystream is XORed in place with one wide sweep per sector pair
//! ([`SectorCipher::xor_sectors`]), and the caller gets a borrowed view
//! of the plaintext. Writes make the single unavoidable copy (the
//! caller keeps its plaintext), encrypt in place in scratch, and write
//! the ciphertext through. Steady-state sector traffic therefore does
//! zero heap allocation.
//!
//! [`ImageStore::read_at_into`]: crate::image::ImageStore::read_at_into

use bolted_crypto::{SectorCipher, SECTOR_SIZE};

use crate::image::ImageError;
use crate::iscsi::IscsiTarget;

/// A sector-granular client session over one iSCSI target, optionally
/// encrypting at rest with a per-tenant LUKS sector cipher.
///
/// With a cipher, the image holds ciphertext and the stream delivers
/// plaintext (tenant-side dm-crypt in the paper's model: the provider's
/// gateway and cluster only ever see encrypted sectors). Without one,
/// the stream is a plain zero-copy block session.
pub struct SectorStream {
    target: IscsiTarget,
    cipher: Option<SectorCipher>,
    scratch: Vec<u8>,
}

impl SectorStream {
    /// Opens a plaintext (unencrypted) sector session on `target`.
    pub fn plaintext(target: IscsiTarget) -> Self {
        SectorStream {
            target,
            cipher: None,
            scratch: Vec::new(),
        }
    }

    /// Opens an encrypted sector session: sectors are decrypted with
    /// `cipher` on the way in and encrypted on the way out.
    pub fn encrypted(target: IscsiTarget, cipher: SectorCipher) -> Self {
        SectorStream {
            target,
            cipher: Some(cipher),
            scratch: Vec::new(),
        }
    }

    /// The underlying iSCSI target (stats, image id).
    pub fn target(&self) -> &IscsiTarget {
        &self.target
    }

    /// Current scratch-buffer capacity in bytes (diagnostics: steady
    /// state should grow this once and never again).
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    /// Byte offset of `first_sector`, or `OutOfBounds` on overflow.
    fn sector_offset(first_sector: u64) -> Result<u64, ImageError> {
        first_sector
            .checked_mul(SECTOR_SIZE as u64)
            .ok_or(ImageError::OutOfBounds)
    }

    /// Reads `count` sectors starting at `first_sector`, decrypting in
    /// place, and returns a borrowed view of the plaintext. The view is
    /// valid until the next call on this stream; nothing is allocated
    /// once the scratch buffer has reached the session's largest read.
    pub async fn read(&mut self, first_sector: u64, count: usize) -> Result<&[u8], ImageError> {
        let len = count
            .checked_mul(SECTOR_SIZE)
            .ok_or(ImageError::OutOfBounds)?;
        let offset = Self::sector_offset(first_sector)?;
        if self.scratch.len() < len {
            self.scratch.resize(len, 0);
        }
        // Split borrows: the target is read-only while scratch is the
        // destination buffer.
        // lint: allow(L1-index: scratch was just resized to >= len)
        let buf = &mut self.scratch[..len];
        self.target.read_into(offset, buf).await?;
        if let Some(cipher) = &self.cipher {
            cipher.xor_sectors(first_sector, buf);
        }
        // lint: allow(L1-index: same bound as the mutable slice above)
        Ok(&self.scratch[..len])
    }

    /// Writes whole sectors of plaintext starting at `first_sector`:
    /// one copy into scratch, encrypt in place, write the ciphertext
    /// through the gateway. The caller's buffer is left untouched.
    pub async fn write(&mut self, first_sector: u64, plaintext: &[u8]) -> Result<(), ImageError> {
        if !plaintext.len().is_multiple_of(SECTOR_SIZE) {
            return Err(ImageError::NotSectorSized);
        }
        let offset = Self::sector_offset(first_sector)?;
        let len = plaintext.len();
        if self.scratch.len() < len {
            self.scratch.resize(len, 0);
        }
        // lint: allow(L1-index: scratch was just resized to >= len)
        let buf = &mut self.scratch[..len];
        buf.copy_from_slice(plaintext);
        if let Some(cipher) = &self.cipher {
            cipher.xor_sectors(first_sector, buf);
        }
        // lint: allow(L1-index: same bound as the mutable slice above)
        self.target.write(offset, &self.scratch[..len]).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Backing, Cluster};
    use crate::image::ImageStore;
    use crate::iscsi::{Gateway, Transport, TGT_VM_BANDWIDTH_BPS, TUNED_READ_AHEAD};
    use bolted_crypto::Key;
    use bolted_sim::{OpGate, Sim};

    fn setup(encrypted: bool) -> (Sim, ImageStore, SectorStream) {
        let sim = Sim::new();
        let cluster = Cluster::paper_default(&sim);
        let store = ImageStore::new(&cluster);
        let img = store
            .create("root", 16 << 20, Backing::Zero)
            .expect("creates");
        let gw = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, &OpGate::disabled());
        let target = IscsiTarget::new(
            &sim,
            &store,
            img,
            &gw,
            Transport::plain_10g(),
            TUNED_READ_AHEAD,
        );
        let stream = if encrypted {
            SectorStream::encrypted(target, SectorCipher::new(&Key([0x42; 32])))
        } else {
            SectorStream::plaintext(target)
        };
        (sim, store, stream)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn plaintext_stream_round_trips() {
        let (sim, _store, mut s) = setup(false);
        sim.block_on(async move {
            let data = pattern(3 * SECTOR_SIZE);
            s.write(5, &data).await.expect("writes");
            let got = s.read(5, 3).await.expect("reads");
            assert_eq!(got, &data[..]);
        });
    }

    #[test]
    fn encrypted_stream_round_trips_and_disk_holds_ciphertext() {
        let (sim, store, mut s) = setup(true);
        sim.block_on(async move {
            let img = s.target().image();
            // 5 sectors starting at an odd sector: exercises the paired
            // 16-lane sweep and the single-sector tail.
            let data = pattern(5 * SECTOR_SIZE);
            s.write(3, &data).await.expect("writes");

            let got = s.read(3, 5).await.expect("reads");
            assert_eq!(got, &data[..], "tenant sees plaintext");

            let raw = store
                .read_at(img, 3 * SECTOR_SIZE as u64, 5 * SECTOR_SIZE, false)
                .await
                .expect("reads");
            assert_ne!(raw, data, "provider-side image holds ciphertext");
            assert!(
                raw.iter().any(|&b| b != 0),
                "ciphertext is not the zero backing"
            );
        });
    }

    #[test]
    fn steady_state_reads_do_not_reallocate() {
        let (sim, _store, mut s) = setup(true);
        sim.block_on(async move {
            s.write(0, &pattern(8 * SECTOR_SIZE)).await.expect("writes");
            s.read(0, 8).await.expect("reads");
            let cap = s.scratch_capacity();
            for round in 0..4 {
                s.read(round, 4).await.expect("reads");
                s.write(round, &pattern(2 * SECTOR_SIZE))
                    .await
                    .expect("writes");
            }
            assert_eq!(s.scratch_capacity(), cap, "scratch grows at most once");
        });
    }

    #[test]
    fn partial_sector_writes_rejected() {
        let (sim, _store, mut s) = setup(true);
        sim.block_on(async move {
            let r = s.write(0, &pattern(SECTOR_SIZE + 1)).await;
            assert_eq!(r, Err(ImageError::NotSectorSized));
        });
    }

    #[test]
    fn out_of_bounds_sector_rejected() {
        let (sim, _store, mut s) = setup(false);
        sim.block_on(async move {
            let r = s.read(u64::MAX / 2, 4).await;
            assert_eq!(r.err(), Some(ImageError::OutOfBounds));
        });
    }

    #[test]
    fn two_tenant_keys_see_different_plaintext() {
        // Same image bytes, different tenant keys: a stream opened with
        // the wrong key reads garbage, not the original plaintext.
        let sim = Sim::new();
        let cluster = Cluster::paper_default(&sim);
        let store = ImageStore::new(&cluster);
        let img = store
            .create("root", 16 << 20, Backing::Zero)
            .expect("creates");
        let gw = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, &OpGate::disabled());
        let target = |sim: &Sim| {
            IscsiTarget::new(
                sim,
                &store,
                img,
                &gw,
                Transport::plain_10g(),
                TUNED_READ_AHEAD,
            )
        };
        let mut a = SectorStream::encrypted(target(&sim), SectorCipher::new(&Key([0xAA; 32])));
        let mut b = SectorStream::encrypted(target(&sim), SectorCipher::new(&Key([0xBB; 32])));
        sim.block_on(async move {
            let data = pattern(2 * SECTOR_SIZE);
            a.write(0, &data).await.expect("writes");
            let via_b = b.read(0, 2).await.expect("reads").to_vec();
            let via_a = a.read(0, 2).await.expect("reads");
            assert_eq!(via_a, &data[..]);
            assert_ne!(via_b, data);
        });
    }
}
