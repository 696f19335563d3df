//! TCG-style boot event log.
//!
//! Each measurement extended into a PCR is also appended to an event log
//! with a human-readable description. A verifier replays the log to
//! recompute the expected PCR values and compares them with the quoted
//! ones — and can match each entry against a whitelist.

use crate::pcr::{PcrBank, NUM_PCRS};
use bolted_crypto::sha256::Digest;

/// One measured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredEvent {
    /// PCR the measurement was extended into.
    pub pcr_index: usize,
    /// The measurement digest.
    pub digest: Digest,
    /// What was measured (e.g. `"linuxboot:<build-id>"`).
    pub description: String,
}

/// An append-only log of measured events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<MeasuredEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog { events: Vec::new() }
    }

    /// Appends an event.
    pub fn append(&mut self, pcr_index: usize, digest: Digest, description: impl Into<String>) {
        self.events.push(MeasuredEvent {
            pcr_index,
            digest,
            description: description.into(),
        });
    }

    /// All events in order.
    pub fn events(&self) -> &[MeasuredEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clears the log (platform reset).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Replays the log from all-zero PCRs, returning the final value of
    /// each PCR. This is what a remote verifier computes.
    pub fn replay(&self) -> [Digest; NUM_PCRS] {
        let mut pcrs = [Digest::ZERO; NUM_PCRS];
        extend_bank(&mut pcrs, &self.events);
        pcrs
    }
}

/// Extends `pcrs` with `events` in log order, skipping any event for a
/// PCR outside the bank. A replay extends an all-zero bank; a verifier
/// that has replayed a prefix of a log extends its bank with the rest.
pub fn extend_bank(pcrs: &mut [Digest; NUM_PCRS], events: &[MeasuredEvent]) {
    for ev in events {
        if let Some(pcr) = pcrs.get_mut(ev.pcr_index) {
            *pcr = PcrBank::extend_value(pcr, &ev.digest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_crypto::sha256::sha256;

    #[test]
    fn replay_matches_live_bank() {
        let mut bank = PcrBank::new();
        let mut log = EventLog::new();
        for (pcr, what) in [(0usize, "fw"), (4, "ipxe"), (4, "heads"), (5, "kexec")] {
            let d = sha256(what.as_bytes());
            bank.extend(pcr, &d);
            log.append(pcr, d, what);
        }
        let replayed = log.replay();
        for (i, digest) in replayed.iter().enumerate() {
            assert_eq!(*digest, bank.read(i), "pcr {i}");
        }
    }

    #[test]
    fn tampered_log_fails_replay() {
        let mut bank = PcrBank::new();
        let mut log = EventLog::new();
        let d = sha256(b"good firmware");
        bank.extend(0, &d);
        log.append(0, d, "fw");
        // Attacker rewrites the log to claim different firmware ran.
        let mut forged = log.clone();
        forged.events[0].digest = sha256(b"evil firmware");
        assert_ne!(forged.replay()[0], bank.read(0));
    }

    #[test]
    fn empty_log_replays_to_zero() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.replay()[0], Digest::ZERO);
    }

    #[test]
    fn clear_resets() {
        let mut log = EventLog::new();
        log.append(0, sha256(b"x"), "x");
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn out_of_range_pcr_in_log_is_ignored_by_replay() {
        let mut log = EventLog::new();
        log.append(NUM_PCRS + 5, sha256(b"junk"), "junk");
        let replayed = log.replay();
        assert!(replayed.iter().all(|d| *d == Digest::ZERO));
    }
}
