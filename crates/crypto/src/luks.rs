//! LUKS-style block-device encryption.
//!
//! Models `cryptsetup`/LUKS as used by the paper (AES-256-XTS there;
//! sector-tweaked ChaCha20 here): a header with passphrase-protected key
//! slots wraps a random master key, and every data sector is encrypted
//! with a keystream tweaked by its sector number. A tenant that holds the
//! passphrase (delivered by Keylime during attestation) can open the
//! device; the provider, or a later tenant reading the raw medium, sees
//! only ciphertext.

use crate::aead::{Aead, TAG_LEN};
use crate::chacha20::{ChaCha20, Key, KEY_LEN};
use crate::hmac::hkdf;
use crate::prime::RandomSource;
use crate::sha256::{sha256, Digest};

/// Sector size in bytes used throughout the reproduction.
pub const SECTOR_SIZE: usize = 512;

/// Number of sectors reserved for the LUKS header.
pub const HEADER_SECTORS: u64 = 8;

const MAGIC: &[u8; 8] = b"BOLTLUKS";
const NUM_SLOTS: usize = 8;
const SALT_LEN: usize = 16;
/// Wrapped key blob: ciphertext (32) + tag (32).
const WRAPPED_LEN: usize = KEY_LEN + TAG_LEN;
const SLOT_LEN: usize = 1 + SALT_LEN + WRAPPED_LEN;

/// Errors from block-device and LUKS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Sector index out of range.
    OutOfRange,
    /// Buffer length does not match the sector size.
    BadBufferLen,
    /// No LUKS header found on the device.
    NotLuks,
    /// No key slot matches the supplied passphrase.
    BadPassphrase,
    /// All key slots are occupied.
    SlotsFull,
    /// Header is corrupt.
    CorruptHeader,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::OutOfRange => write!(f, "sector out of range"),
            BlockError::BadBufferLen => write!(f, "buffer length != sector size"),
            BlockError::NotLuks => write!(f, "device has no LUKS header"),
            BlockError::BadPassphrase => write!(f, "no key slot matches passphrase"),
            BlockError::SlotsFull => write!(f, "all key slots occupied"),
            BlockError::CorruptHeader => write!(f, "corrupt LUKS header"),
        }
    }
}

impl std::error::Error for BlockError {}

/// A sector-addressable block device.
pub trait BlockDevice {
    /// Total number of sectors.
    fn num_sectors(&self) -> u64;

    /// Reads sector `idx` into `buf` (exactly [`SECTOR_SIZE`] bytes).
    fn read_sector(&self, idx: u64, buf: &mut [u8]) -> Result<(), BlockError>;

    /// Writes sector `idx` from `buf` (exactly [`SECTOR_SIZE`] bytes).
    fn write_sector(&mut self, idx: u64, buf: &[u8]) -> Result<(), BlockError>;

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_sectors() * SECTOR_SIZE as u64
    }
}

/// A sparse in-memory block device; unwritten sectors read as zeros.
#[derive(Debug, Default)]
pub struct RamDisk {
    sectors: std::collections::HashMap<u64, Box<[u8; SECTOR_SIZE]>>,
    num_sectors: u64,
}

impl RamDisk {
    /// Creates a RAM disk with the given sector count.
    pub fn new(num_sectors: u64) -> Self {
        RamDisk {
            sectors: std::collections::HashMap::new(),
            num_sectors,
        }
    }

    /// Number of sectors actually backed by memory (diagnostics).
    pub fn resident_sectors(&self) -> usize {
        self.sectors.len()
    }

    /// Discards all contents (models disk scrubbing / reset).
    pub fn wipe(&mut self) {
        self.sectors.clear();
    }
}

impl BlockDevice for RamDisk {
    fn num_sectors(&self) -> u64 {
        self.num_sectors
    }

    fn read_sector(&self, idx: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        if idx >= self.num_sectors {
            return Err(BlockError::OutOfRange);
        }
        if buf.len() != SECTOR_SIZE {
            return Err(BlockError::BadBufferLen);
        }
        match self.sectors.get(&idx) {
            Some(data) => buf.copy_from_slice(&data[..]),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_sector(&mut self, idx: u64, buf: &[u8]) -> Result<(), BlockError> {
        if idx >= self.num_sectors {
            return Err(BlockError::OutOfRange);
        }
        if buf.len() != SECTOR_SIZE {
            return Err(BlockError::BadBufferLen);
        }
        let mut sector = Box::new([0u8; SECTOR_SIZE]);
        sector.copy_from_slice(buf);
        self.sectors.insert(idx, sector);
        Ok(())
    }
}

#[derive(Clone)]
struct KeySlot {
    active: bool,
    salt: [u8; SALT_LEN],
    wrapped: Vec<u8>,
}

impl KeySlot {
    fn empty() -> Self {
        KeySlot {
            active: false,
            salt: [0; SALT_LEN],
            wrapped: vec![0; WRAPPED_LEN],
        }
    }
}

struct Header {
    uuid: [u8; 16],
    mk_digest: Digest,
    slots: Vec<KeySlot>,
}

impl Header {
    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SECTOR_SIZE * 2);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes());
        out.extend_from_slice(&self.uuid);
        out.extend_from_slice(self.mk_digest.as_bytes());
        for slot in &self.slots {
            out.push(u8::from(slot.active));
            out.extend_from_slice(&slot.salt);
            out.extend_from_slice(&slot.wrapped);
        }
        out
    }

    fn deserialize(data: &[u8]) -> Result<Header, BlockError> {
        let need = MAGIC.len() + 2 + 16 + 32 + NUM_SLOTS * SLOT_LEN;
        if data.len() < need {
            return Err(BlockError::CorruptHeader);
        }
        if &data[..8] != MAGIC {
            return Err(BlockError::NotLuks);
        }
        let mut off = 10; // magic + version
        let mut uuid = [0u8; 16];
        uuid.copy_from_slice(&data[off..off + 16]);
        off += 16;
        let mut dig = [0u8; 32];
        dig.copy_from_slice(&data[off..off + 32]);
        off += 32;
        let mut slots = Vec::with_capacity(NUM_SLOTS);
        for _ in 0..NUM_SLOTS {
            let active = data[off] == 1;
            off += 1;
            let mut salt = [0u8; SALT_LEN];
            salt.copy_from_slice(&data[off..off + SALT_LEN]);
            off += SALT_LEN;
            let wrapped = data[off..off + WRAPPED_LEN].to_vec();
            off += WRAPPED_LEN;
            slots.push(KeySlot {
                active,
                salt,
                wrapped,
            });
        }
        Ok(Header {
            uuid,
            mk_digest: Digest(dig),
            slots,
        })
    }
}

/// Sector-tweaked keystream cipher: the data-plane half of LUKS.
///
/// Owns a parsed [`ChaCha20`] key schedule and applies the per-sector
/// tweak (little-endian sector number in the nonce, counter 0 — one
/// keystream per `(key, sector)`, like an XTS tweak). Usable apart from
/// [`LuksDevice`] wherever sectors travel without a [`BlockDevice`], e.g.
/// a tenant encrypting sectors it writes over iSCSI.
#[derive(Clone)]
pub struct SectorCipher {
    cipher: ChaCha20,
}

impl SectorCipher {
    /// Parses `master` once for reuse across every sector.
    pub fn new(master: &Key) -> SectorCipher {
        SectorCipher {
            cipher: ChaCha20::new(master),
        }
    }

    /// Encrypts or decrypts one sector in place (XOR keystream; symmetric).
    pub fn xor_sector(&self, sector: u64, buf: &mut [u8]) {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&sector.to_le_bytes());
        self.cipher.xor(&nonce, 0, buf);
    }
}

fn kek_from_passphrase(passphrase: &[u8], salt: &[u8]) -> Key {
    // The paper's cryptsetup uses PBKDF2; an HKDF with per-slot salt gives
    // the same key-separation structure without iterated stretching (the
    // stretching cost is part of the timing model, not the data path).
    let okm = hkdf(salt, passphrase, b"bolted-luks-kek", KEY_LEN);
    Key::from_slice(&okm)
}

/// An encrypted view over an inner block device.
///
/// Sector `i` of the `LuksDevice` maps to sector `i + HEADER_SECTORS` of
/// the inner device, encrypted under the master key with the sector index
/// as tweak.
pub struct LuksDevice<D: BlockDevice> {
    inner: D,
    master: Key,
    /// Sector cipher with the master key schedule parsed once; every
    /// sector (8 ChaCha20 blocks) reuses it instead of re-deriving state.
    cipher: SectorCipher,
    uuid: [u8; 16],
}

impl<D: BlockDevice> LuksDevice<D> {
    /// Formats `device` with a fresh master key protected by `passphrase`
    /// and returns the opened device.
    ///
    /// # Panics
    ///
    /// Panics if the device is too small to hold the header.
    pub fn format(
        mut device: D,
        passphrase: &[u8],
        rng: &mut dyn RandomSource,
    ) -> Result<LuksDevice<D>, BlockError> {
        assert!(
            device.num_sectors() > HEADER_SECTORS,
            "device too small for LUKS header"
        );
        let mut master_bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut master_bytes);
        let master = Key(master_bytes);
        let mut uuid = [0u8; 16];
        rng.fill_bytes(&mut uuid);
        let mut header = Header {
            uuid,
            mk_digest: sha256(&master.0),
            slots: vec![KeySlot::empty(); NUM_SLOTS],
        };
        Self::fill_slot(&mut header.slots[0], passphrase, &master, rng);
        Self::write_header(&mut device, &header)?;
        Ok(LuksDevice {
            inner: device,
            cipher: SectorCipher::new(&master),
            master,
            uuid,
        })
    }

    /// Opens a previously formatted device by trying every active slot.
    pub fn open(device: D, passphrase: &[u8]) -> Result<LuksDevice<D>, BlockError> {
        let header = Self::read_header(&device)?;
        for slot in header.slots.iter().filter(|s| s.active) {
            let kek = kek_from_passphrase(passphrase, &slot.salt);
            let aead = Aead::new(&kek);
            if let Ok(mk) = aead.open(&[0u8; 12], b"luks-slot", &slot.wrapped) {
                let master = Key::from_slice(&mk);
                if sha256(&master.0) == header.mk_digest {
                    return Ok(LuksDevice {
                        inner: device,
                        cipher: SectorCipher::new(&master),
                        master,
                        uuid: header.uuid,
                    });
                }
            }
        }
        Err(BlockError::BadPassphrase)
    }

    /// Adds `new_passphrase` to a free key slot (authorised by an already
    /// opened device).
    pub fn add_key(
        &mut self,
        new_passphrase: &[u8],
        rng: &mut dyn RandomSource,
    ) -> Result<usize, BlockError> {
        let mut header = Self::read_header(&self.inner)?;
        let idx = header
            .slots
            .iter()
            .position(|s| !s.active)
            .ok_or(BlockError::SlotsFull)?;
        let master = self.master.clone();
        Self::fill_slot(&mut header.slots[idx], new_passphrase, &master, rng);
        Self::write_header(&mut self.inner, &header)?;
        Ok(idx)
    }

    /// Deactivates key slot `idx` (e.g. revoking a compromised passphrase).
    pub fn remove_key(&mut self, idx: usize) -> Result<(), BlockError> {
        let mut header = Self::read_header(&self.inner)?;
        let slot = header.slots.get_mut(idx).ok_or(BlockError::OutOfRange)?;
        *slot = KeySlot::empty();
        Self::write_header(&mut self.inner, &header)
    }

    /// The device UUID assigned at format time.
    pub fn uuid(&self) -> [u8; 16] {
        self.uuid
    }

    /// Consumes the view, returning the raw inner device (ciphertext).
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Immutable access to the raw inner device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn fill_slot(slot: &mut KeySlot, passphrase: &[u8], master: &Key, rng: &mut dyn RandomSource) {
        let mut salt = [0u8; SALT_LEN];
        rng.fill_bytes(&mut salt);
        let kek = kek_from_passphrase(passphrase, &salt);
        let aead = Aead::new(&kek);
        // Nonce can be fixed: each KEK is unique (fresh salt per slot).
        let wrapped = aead.seal(&[0u8; 12], b"luks-slot", &master.0);
        *slot = KeySlot {
            active: true,
            salt,
            wrapped,
        };
    }

    fn write_header(device: &mut D, header: &Header) -> Result<(), BlockError> {
        let bytes = header.serialize();
        let mut buf = [0u8; SECTOR_SIZE];
        for (i, chunk) in bytes.chunks(SECTOR_SIZE).enumerate() {
            buf.fill(0);
            buf[..chunk.len()].copy_from_slice(chunk);
            device.write_sector(i as u64, &buf)?;
        }
        Ok(())
    }

    fn read_header(device: &D) -> Result<Header, BlockError> {
        let mut bytes = Vec::with_capacity((HEADER_SECTORS as usize) * SECTOR_SIZE);
        let mut buf = [0u8; SECTOR_SIZE];
        for i in 0..HEADER_SECTORS.min(device.num_sectors()) {
            device.read_sector(i, &mut buf)?;
            bytes.extend_from_slice(&buf);
        }
        Header::deserialize(&bytes)
    }
}

impl<D: BlockDevice> BlockDevice for LuksDevice<D> {
    fn num_sectors(&self) -> u64 {
        self.inner.num_sectors() - HEADER_SECTORS
    }

    fn read_sector(&self, idx: u64, buf: &mut [u8]) -> Result<(), BlockError> {
        if idx >= self.num_sectors() {
            return Err(BlockError::OutOfRange);
        }
        self.inner.read_sector(idx + HEADER_SECTORS, buf)?;
        self.cipher.xor_sector(idx, buf);
        Ok(())
    }

    fn write_sector(&mut self, idx: u64, buf: &[u8]) -> Result<(), BlockError> {
        if idx >= self.num_sectors() {
            return Err(BlockError::OutOfRange);
        }
        if buf.len() != SECTOR_SIZE {
            return Err(BlockError::BadBufferLen);
        }
        let mut tmp = [0u8; SECTOR_SIZE];
        tmp.copy_from_slice(buf);
        self.cipher.xor_sector(idx, &mut tmp);
        self.inner.write_sector(idx + HEADER_SECTORS, &tmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::XorShiftSource;

    fn rng() -> XorShiftSource {
        XorShiftSource::new(0x10C5)
    }

    #[test]
    fn ramdisk_reads_zeros_when_unwritten() {
        let disk = RamDisk::new(10);
        let mut buf = [0xAA; SECTOR_SIZE];
        disk.read_sector(3, &mut buf).expect("in range");
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn ramdisk_round_trip_and_bounds() {
        let mut disk = RamDisk::new(4);
        let data = [0x5A; SECTOR_SIZE];
        disk.write_sector(2, &data).expect("writes");
        let mut buf = [0u8; SECTOR_SIZE];
        disk.read_sector(2, &mut buf).expect("reads");
        assert_eq!(buf, data);
        assert_eq!(disk.read_sector(4, &mut buf), Err(BlockError::OutOfRange));
        assert_eq!(disk.write_sector(4, &data), Err(BlockError::OutOfRange));
        assert_eq!(
            disk.read_sector(0, &mut [0u8; 5]),
            Err(BlockError::BadBufferLen)
        );
    }

    #[test]
    fn ramdisk_wipe_clears() {
        let mut disk = RamDisk::new(4);
        disk.write_sector(0, &[1u8; SECTOR_SIZE]).expect("writes");
        assert_eq!(disk.resident_sectors(), 1);
        disk.wipe();
        assert_eq!(disk.resident_sectors(), 0);
    }

    #[test]
    fn format_open_read_write() {
        let disk = RamDisk::new(64);
        let mut luks = LuksDevice::format(disk, b"hunter2", &mut rng()).expect("formats");
        let msg = {
            let mut s = [0u8; SECTOR_SIZE];
            s[..9].copy_from_slice(b"plaintext");
            s
        };
        luks.write_sector(5, &msg).expect("writes");
        let mut buf = [0u8; SECTOR_SIZE];
        luks.read_sector(5, &mut buf).expect("reads");
        assert_eq!(buf, msg);
        // Reopen with the right passphrase.
        let raw = luks.into_inner();
        let reopened = LuksDevice::open(raw, b"hunter2").expect("opens");
        let mut buf2 = [0u8; SECTOR_SIZE];
        reopened.read_sector(5, &mut buf2).expect("reads");
        assert_eq!(buf2, msg);
    }

    #[test]
    fn wrong_passphrase_rejected() {
        let disk = RamDisk::new(64);
        let luks = LuksDevice::format(disk, b"right", &mut rng()).expect("formats");
        let raw = luks.into_inner();
        assert!(matches!(
            LuksDevice::open(raw, b"wrong"),
            Err(BlockError::BadPassphrase)
        ));
    }

    #[test]
    fn raw_medium_shows_only_ciphertext() {
        let disk = RamDisk::new(64);
        let mut luks = LuksDevice::format(disk, b"pw", &mut rng()).expect("formats");
        let mut plaintext = [0u8; SECTOR_SIZE];
        plaintext[..26].copy_from_slice(b"extremely sensitive tenant");
        luks.write_sector(0, &plaintext).expect("writes");
        let raw = luks.into_inner();
        let mut on_disk = [0u8; SECTOR_SIZE];
        raw.read_sector(HEADER_SECTORS, &mut on_disk)
            .expect("reads");
        assert_ne!(on_disk, plaintext, "sector must be encrypted at rest");
        // No plaintext substring survives.
        let window = b"sensitive";
        assert!(!on_disk.windows(window.len()).any(|w| w == window));
    }

    #[test]
    fn same_plaintext_different_sectors_differ() {
        let disk = RamDisk::new(64);
        let mut luks = LuksDevice::format(disk, b"pw", &mut rng()).expect("formats");
        let plaintext = [0x77; SECTOR_SIZE];
        luks.write_sector(1, &plaintext).expect("writes");
        luks.write_sector(2, &plaintext).expect("writes");
        let raw = luks.into_inner();
        let mut a = [0u8; SECTOR_SIZE];
        let mut b = [0u8; SECTOR_SIZE];
        raw.read_sector(HEADER_SECTORS + 1, &mut a).expect("reads");
        raw.read_sector(HEADER_SECTORS + 2, &mut b).expect("reads");
        assert_ne!(a, b, "sector tweak must differentiate ciphertexts");
    }

    #[test]
    fn add_and_remove_key_slots() {
        let disk = RamDisk::new(64);
        let mut luks = LuksDevice::format(disk, b"first", &mut rng()).expect("formats");
        let mut r = rng();
        let idx = luks.add_key(b"second", &mut r).expect("adds");
        assert_eq!(idx, 1);
        let raw = luks.into_inner();
        let luks2 = LuksDevice::open(raw, b"second").expect("second pw opens");
        // Remove the first slot; "first" must stop working.
        let mut luks2 = luks2;
        luks2.remove_key(0).expect("removes");
        let raw = luks2.into_inner();
        assert!(LuksDevice::open(raw, b"first").is_err());
    }

    #[test]
    fn slots_exhaust() {
        let disk = RamDisk::new(64);
        let mut luks = LuksDevice::format(disk, b"p0", &mut rng()).expect("formats");
        let mut r = rng();
        for i in 1..NUM_SLOTS {
            luks.add_key(format!("p{i}").as_bytes(), &mut r)
                .expect("adds");
        }
        assert_eq!(luks.add_key(b"extra", &mut r), Err(BlockError::SlotsFull));
    }

    #[test]
    fn not_luks_detected() {
        let disk = RamDisk::new(64);
        assert!(matches!(
            LuksDevice::open(disk, b"pw"),
            Err(BlockError::NotLuks)
        ));
    }

    #[test]
    fn luks_capacity_excludes_header() {
        let disk = RamDisk::new(64);
        let luks = LuksDevice::format(disk, b"pw", &mut rng()).expect("formats");
        assert_eq!(luks.num_sectors(), 64 - HEADER_SECTORS);
        let mut buf = [0u8; SECTOR_SIZE];
        assert_eq!(
            luks.read_sector(64 - HEADER_SECTORS, &mut buf),
            Err(BlockError::OutOfRange)
        );
    }
}
