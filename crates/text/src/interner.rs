//! String interning.
//!
//! The feature statistics database (paper §V-C) holds counts for hundreds of
//! thousands of distinct n-grams, and the classifier touches them in inner
//! loops. Interning maps each distinct term string to a dense [`Sym`] (a
//! `u32` newtype) exactly once, after which every comparison, hash, and map
//! key is integer-sized.
//!
//! Two flavors:
//! * [`Interner`] — single-threaded, used inside per-thread corpus shards.
//! * [`SharedInterner`] — `RwLock`-guarded (via `parking_lot`), used when
//!   the parallel stats builder needs one global symbol space.

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::hash::FxHashMap;

/// A dense symbol id for an interned string. Cheap to copy, hash, compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Sym(pub u32);

impl Sym {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A single-threaded string interner.
///
/// Guarantees: `resolve(intern(s)) == s`, and `intern` is idempotent —
/// interning the same string twice yields the same [`Sym`].
///
/// An interner built with [`Interner::with_base`] is an *overlay* on a
/// frozen, shared base: base strings keep their base symbols, and strings
/// new to both get symbols numbered from `base.len()` on, so the overlay
/// hands out exactly the symbols a flat clone of the base would.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Frozen lower layer (never itself an overlay); `None` for a flat
    /// interner.
    base: Option<Arc<Interner>>,
    map: FxHashMap<Arc<str>, Sym>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty overlay on `base`. Building one is O(1) in the size
    /// of the base, and interning into it never changes the base.
    ///
    /// # Panics
    /// If `base` is itself an overlay: bases are flat, so symbol lookup is
    /// at most two levels deep.
    pub fn with_base(base: Arc<Interner>) -> Self {
        assert!(base.base.is_none(), "an interner base must be flat");
        Self {
            base: Some(base),
            ..Self::default()
        }
    }

    /// Symbols owned by the base (0 for a flat interner).
    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.strings.len())
    }

    /// Number of strings interned into this layer beyond its base (all of
    /// them for a flat interner).
    pub fn overlay_len(&self) -> usize {
        self.strings.len()
    }

    /// Intern `s`, returning its symbol. O(1) amortized.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.get(s) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(s);
        let sym =
            Sym(u32::try_from(self.len()).expect("interner overflow: > u32::MAX distinct strings"));
        self.strings.push(Arc::clone(&arc));
        self.map.insert(arc, sym);
        sym
    }

    /// Look up a symbol without interning. Returns `None` if `s` was never
    /// interned.
    pub fn get(&self, s: &str) -> Option<Sym> {
        if let Some(sym) = self.base.as_ref().and_then(|b| b.map.get(s)) {
            return Some(*sym);
        }
        self.map.get(s).copied()
    }

    /// Resolve a symbol back to its string. Panics on a foreign symbol.
    pub fn resolve(&self, sym: Sym) -> &str {
        match self.try_resolve(sym) {
            Some(s) => s,
            None => panic!("foreign symbol {sym} (interner holds {})", self.len()),
        }
    }

    /// Resolve, returning `None` for out-of-range symbols instead of
    /// panicking.
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        let i = sym.index();
        match &self.base {
            Some(b) if i < b.strings.len() => Some(&*b.strings[i]),
            _ => self.strings.get(i - self.base_len()).map(|s| &**s),
        }
    }

    /// Number of distinct interned strings, base included.
    pub fn len(&self) -> usize {
        self.base_len() + self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(Sym, &str)` pairs in interning order, base first.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        let base: &[Arc<str>] = self.base.as_ref().map_or(&[], |b| &b.strings);
        base.iter()
            .chain(&self.strings)
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), &**s))
    }
}

/// A thread-safe interner sharing one symbol space across worker threads.
///
/// Reads (the overwhelmingly common case once the vocabulary saturates) take
/// a read lock; only novel strings take the write lock.
#[derive(Debug, Default, Clone)]
pub struct SharedInterner {
    inner: Arc<RwLock<Interner>>,
}

impl SharedInterner {
    /// Create an empty shared interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s` (read-lock fast path, write lock only on novelty).
    pub fn intern(&self, s: &str) -> Sym {
        if let Some(sym) = self.inner.read().get(s) {
            return sym;
        }
        self.inner.write().intern(s)
    }

    /// Look up without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.inner.read().get(s)
    }

    /// Resolve to an owned string (the lock cannot escape).
    pub fn resolve(&self, sym: Sym) -> Option<String> {
        self.inner.read().try_resolve(sym).map(str::to_owned)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Snapshot the current contents into a plain [`Interner`].
    pub fn snapshot(&self) -> Interner {
        self.inner.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("cheap");
        let b = i.intern("cheap");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let words = ["cheap", "flights", "legroom", "20%", ""];
        let syms: Vec<Sym> = words.iter().map(|w| i.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *w);
        }
        assert_eq!(i.len(), words.len());
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("b"), Sym(1));
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("c"), Sym(2));
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        assert_eq!(i.len(), 0);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
    }

    #[test]
    fn try_resolve_handles_foreign_syms() {
        let i = Interner::new();
        assert_eq!(i.try_resolve(Sym(7)), None);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let got: Vec<(Sym, String)> = i.iter().map(|(s, t)| (s, t.to_owned())).collect();
        assert_eq!(
            got,
            vec![(Sym(0), "a".to_owned()), (Sym(1), "b".to_owned())]
        );
    }

    #[test]
    fn overlay_agrees_with_a_flat_interner_fed_the_same_strings() {
        let base_words = ["cheap", "flights", "book now", ""];
        // Repeats of base strings, repeats of overlay strings, and strings
        // new to both, interleaved.
        let stream = [
            "legroom", "cheap", "20%", "legroom", "", "fees", "flights", "20%", "w9",
        ];
        let mut flat = Interner::new();
        let mut base = Interner::new();
        for w in base_words {
            flat.intern(w);
            base.intern(w);
        }
        let base = Arc::new(base);
        let mut overlay = Interner::with_base(Arc::clone(&base));
        assert_eq!(overlay.len(), base.len());
        assert_eq!(overlay.overlay_len(), 0);
        for w in stream {
            assert_eq!(overlay.intern(w), flat.intern(w), "{w:?}");
        }
        assert_eq!(overlay.len(), flat.len());
        assert_eq!(overlay.overlay_len(), flat.len() - base_words.len());
        for w in base_words.iter().chain(&stream).chain(&["never seen"]) {
            assert_eq!(overlay.get(w), flat.get(w), "{w:?}");
        }
        // Every symbol on both sides of the boundary, and one past the end.
        for i in 0..=flat.len() as u32 {
            assert_eq!(overlay.try_resolve(Sym(i)), flat.try_resolve(Sym(i)), "{i}");
        }
        for i in 0..flat.len() as u32 {
            assert_eq!(overlay.resolve(Sym(i)), flat.resolve(Sym(i)), "{i}");
        }
        assert!(overlay.iter().eq(flat.iter()));
        // The base saw none of it.
        assert_eq!(base.len(), base_words.len());
        assert_eq!(base.get("legroom"), None);
        assert_eq!(base.try_resolve(Sym(base_words.len() as u32)), None);
    }

    #[test]
    fn overlays_on_one_base_are_independent() {
        let mut base = Interner::new();
        base.intern("shared");
        let base = Arc::new(base);
        let mut a = Interner::with_base(Arc::clone(&base));
        let mut b = Interner::with_base(Arc::clone(&base));
        assert_eq!(a.intern("only-a"), Sym(1));
        assert_eq!(b.intern("only-b"), Sym(1));
        assert_eq!(a.get("only-b"), None);
        assert_eq!(a.get("shared"), b.get("shared"));
        assert_eq!(base.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be flat")]
    fn an_overlay_cannot_be_a_base() {
        let overlay = Interner::with_base(Arc::new(Interner::new()));
        let _ = Interner::with_base(Arc::new(overlay));
    }

    #[test]
    fn shared_interner_agrees_across_clones() {
        let shared = SharedInterner::new();
        let s1 = shared.clone();
        let s2 = shared.clone();
        let a = s1.intern("hello");
        let b = s2.intern("hello");
        assert_eq!(a, b);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.resolve(a).as_deref(), Some("hello"));
    }

    #[test]
    fn shared_interner_under_threads() {
        let shared = SharedInterner::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sh = shared.clone();
                scope.spawn(move || {
                    for k in 0..100 {
                        // Half shared vocabulary, half thread-private.
                        sh.intern(&format!("common-{}", k % 10));
                        sh.intern(&format!("t{t}-{k}"));
                    }
                });
            }
        });
        // 10 common + 4*100 private.
        assert_eq!(shared.len(), 10 + 400);
        // Every symbol resolves to a unique string (bijectivity).
        let snap = shared.snapshot();
        let mut seen = std::collections::HashSet::new();
        for (_, s) in snap.iter() {
            assert!(seen.insert(s.to_owned()), "duplicate string {s}");
        }
    }
}
