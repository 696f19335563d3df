//! Zeroize-on-drop secret containment.
//!
//! The paper's trust argument depends on tenant secrets — the V share,
//! the LUKS passphrase — never escaping the components that are supposed
//! to hold them. `tests/threat_model.rs` checks that *behaviorally*
//! (span ordering); this module makes it *structural*: a [`Secret<T>`]
//! cannot be `Debug`/`Display`-formatted (the traits are simply not
//! implemented, so a leaking `format!` fails to compile), its bytes are
//! overwritten when it is dropped, and the only way to read the inner
//! value is an explicit, audited [`Secret::expose`] call that bumps a
//! per-label exposure counter.
//!
//! Exposure accounting is deliberately crypto-local: this crate has no
//! dependencies, so instead of linking the simulator's metrics registry
//! we keep a thread-local `label -> count` table; an exposure is one
//! thread-local bump and nothing else.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Types whose memory can be overwritten in place before release.
///
/// This is a best-effort scrub: the write happens through safe code and
/// is anchored with [`std::hint::black_box`] so the optimizer cannot
/// prove the store dead. It does not chase spilled registers or earlier
/// stack copies of `Copy` values — callers who build a secret from a
/// stack array still own that copy.
pub trait Zeroize {
    /// Overwrites the value's memory with zeros (or empties it).
    fn zeroize(&mut self);
}

impl<const N: usize> Zeroize for [u8; N] {
    fn zeroize(&mut self) {
        for b in self.iter_mut() {
            *b = 0;
        }
        std::hint::black_box(self);
    }
}

impl Zeroize for Vec<u8> {
    fn zeroize(&mut self) {
        for b in self.iter_mut() {
            *b = 0;
        }
        std::hint::black_box(self.as_mut_slice());
    }
}

impl Zeroize for String {
    fn zeroize(&mut self) {
        // `into_bytes` moves the heap buffer without copying; zeroing the
        // Vec then scrubs the original allocation.
        let mut bytes = std::mem::take(self).into_bytes();
        bytes.zeroize();
    }
}

thread_local! {
    static EXPOSE_COUNTS: RefCell<BTreeMap<&'static str, u64>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Number of times secrets with `label` have been exposed on this
/// thread.
pub fn expose_count(label: &str) -> u64 {
    EXPOSE_COUNTS.with(|c| c.borrow().get(label).copied().unwrap_or(0))
}

fn record_expose(label: &'static str) {
    EXPOSE_COUNTS.with(|c| *c.borrow_mut().entry(label).or_insert(0) += 1);
}

/// A secret value that zeroizes on drop and only yields its contents
/// through the counted [`Secret::expose`] call.
///
/// `Secret<T>` intentionally implements neither `Debug` nor `Display`
/// (nor any serialization trait), so formatting one — directly or
/// through a containing type's `#[derive(Debug)]` — is a compile error.
/// That is the type-level half of lint rule L2; see `DESIGN.md` §14.
pub struct Secret<T: Zeroize> {
    value: T,
    label: &'static str,
}

impl<T: Zeroize> Secret<T> {
    /// Wraps a value under the generic `"secret"` label.
    pub fn new(value: T) -> Secret<T> {
        Secret::named("secret", value)
    }

    /// Wraps a value under an explicit exposure-accounting label.
    pub fn named(label: &'static str, value: T) -> Secret<T> {
        Secret { value, label }
    }

    /// The exposure-accounting label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Grants read access to the inner value, recording the exposure.
    ///
    /// Every call bumps the thread-local count for this secret's label,
    /// so tests can assert *how often* secret material was actually
    /// read.
    pub fn expose(&self) -> &T {
        record_expose(self.label);
        &self.value
    }
}

impl<T: Zeroize + AsRef<[u8]>> Secret<T> {
    /// Constant-time equality of two secrets' byte contents.
    ///
    /// Comparison yields one bit and happens entirely inside the
    /// wrapper, so it does not count as an exposure.
    pub fn ct_eq(&self, other: &Secret<T>) -> bool {
        crate::ct::ct_eq(self.value.as_ref(), other.value.as_ref())
    }
}

impl<T: Zeroize + Clone> Clone for Secret<T> {
    fn clone(&self) -> Self {
        Secret {
            value: self.value.clone(),
            label: self.label,
        }
    }
}

impl<T: Zeroize> Drop for Secret<T> {
    fn drop(&mut self) {
        self.value.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expose_returns_value_and_counts() {
        let s = Secret::named("test_label_a", vec![1u8, 2, 3]);
        let before = expose_count("test_label_a");
        assert_eq!(s.expose(), &[1u8, 2, 3]);
        assert_eq!(s.expose().len(), 3);
        assert_eq!(expose_count("test_label_a") - before, 2);
    }

    #[test]
    fn ct_eq_does_not_count_as_exposure() {
        let a = Secret::named("test_label_ct", vec![5u8; 8]);
        let b = Secret::named("test_label_ct", vec![5u8; 8]);
        let c = Secret::named("test_label_ct", vec![6u8; 8]);
        let before = expose_count("test_label_ct");
        assert!(a.ct_eq(&b));
        assert!(!a.ct_eq(&c));
        assert_eq!(expose_count("test_label_ct"), before);
    }

    #[test]
    fn clone_preserves_label() {
        let a = Secret::named("test_label_clone", [1u8; 2]);
        let b = a.clone();
        assert_eq!(b.label(), "test_label_clone");
        assert!(a.ct_eq(&b));
    }

    #[test]
    fn zeroize_scrubs_vec_and_string() {
        let mut v = vec![0xAAu8; 16];
        v.zeroize();
        assert!(v.iter().all(|&b| b == 0));
        let mut s = String::from("passphrase");
        s.zeroize();
        assert!(s.is_empty());
        let mut a = [0xFFu8; 8];
        a.zeroize();
        assert_eq!(a, [0u8; 8]);
    }

    // Compile-time trait-absence probe: the inherent method wins when the
    // probed type implements Debug, the trait fallback answers otherwise.
    // If someone adds `Debug` to `Secret`, `secret_is_not_debug` fails.
    struct Probe<T>(std::marker::PhantomData<T>);
    impl<T: std::fmt::Debug> Probe<T> {
        fn is_debug(&self) -> bool {
            true
        }
    }
    trait ProbeFallback {
        fn is_debug(&self) -> bool {
            false
        }
    }
    impl<T> ProbeFallback for Probe<T> {}

    struct DisplayProbe<T>(std::marker::PhantomData<T>);
    impl<T: std::fmt::Display> DisplayProbe<T> {
        fn is_display(&self) -> bool {
            true
        }
    }
    trait DisplayFallback {
        fn is_display(&self) -> bool {
            false
        }
    }
    impl<T> DisplayFallback for DisplayProbe<T> {}

    #[test]
    fn secret_is_not_debug_or_display() {
        // Sanity: the probe does detect Debug on an ordinary type.
        assert!(Probe::<Vec<u8>>(std::marker::PhantomData).is_debug());
        assert!(!Probe::<Secret<Vec<u8>>>(std::marker::PhantomData).is_debug());
        assert!(!Probe::<Secret<[u8; 32]>>(std::marker::PhantomData).is_debug());
        assert!(DisplayProbe::<String>(std::marker::PhantomData).is_display());
        assert!(!DisplayProbe::<Secret<Vec<u8>>>(std::marker::PhantomData).is_display());
    }
}
