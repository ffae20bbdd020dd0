//! Internal open-addressing hash tables specialized for the hot paths of the
//! BDD package (unique table and operation caches).
//!
//! `std::collections::HashMap` with SipHash is measurably slow for the tight
//! `(u32, u32, u32) -> u32` lookups that dominate BDD construction, so we use
//! a simple power-of-two, linear-probing table with a Fibonacci multiplicative
//! hash. Keys never collide with the `EMPTY` sentinel because valid node
//! indices are < `u32::MAX`.

/// Sentinel marking an empty slot.
const EMPTY: u64 = u64::MAX;

#[inline]
fn mix(a: u32, b: u32, c: u32) -> u64 {
    // SplitMix64-style finalizer over the packed key; cheap and well mixed.
    let mut z = (a as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((b as u64).rotate_left(32) ^ (c as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn pack(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Open-addressing map from `(u32, u32, u32)` to `u32`.
///
/// Used for the unique table (`(var, low, high) -> node`) and the ternary
/// operation caches (`(f, g, h) -> result`).
///
/// Slots are stored *interleaved* — key and value halves adjacent in one
/// array — so a probe touches a single cache line. With the split-array
/// layout used previously, every probe of a table larger than L2 cost two
/// memory stalls, which dominated `ITE` time on transition-relation-sized
/// workloads. Tables also grow 4x rather than 2x: operation caches routinely
/// climb three orders of magnitude during one image computation, and the
/// steeper growth curve halves the number of full rehashes on the way up.
#[derive(Clone)]
pub(crate) struct TripleMap {
    // Slot layout: slots[2*i] = pack(a, b), slots[2*i + 1] = pack(c, value).
    // An empty slot has slots[2*i] == EMPTY.
    slots: Vec<u64>,
    len: usize,
    mask: usize,
}

impl TripleMap {
    pub(crate) fn with_capacity_pow2(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(16);
        TripleMap {
            slots: vec![EMPTY; cap * 2],
            len: 0,
            mask: cap - 1,
        }
    }

    // Exercised directly by the unit tests below; production probes go
    // through `insert` / `get_or_insert_with`.
    #[cfg(test)]
    pub(crate) fn get(&self, a: u32, b: u32, c: u32) -> Option<u32> {
        let k0 = pack(a, b);
        let mut idx = (mix(a, b, c) as usize) & self.mask;
        loop {
            let s0 = self.slots[idx * 2];
            if s0 == EMPTY {
                return None;
            }
            let s1 = self.slots[idx * 2 + 1];
            if s0 == k0 && (s1 >> 32) as u32 == c {
                return Some(s1 as u32);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, a: u32, b: u32, c: u32, value: u32) {
        if (self.len + 1) * 4 >= (self.mask + 1) * 3 {
            self.grow();
        }
        let k0 = pack(a, b);
        let k1 = pack(c, value);
        let mut idx = (mix(a, b, c) as usize) & self.mask;
        loop {
            let s0 = self.slots[idx * 2];
            if s0 == EMPTY {
                self.slots[idx * 2] = k0;
                self.slots[idx * 2 + 1] = k1;
                self.len += 1;
                return;
            }
            if s0 == k0 && (self.slots[idx * 2 + 1] >> 32) as u32 == c {
                // Overwrite (operation caches may be refreshed).
                self.slots[idx * 2 + 1] = k1;
                return;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Fused lookup-or-insert used by the unique table: one probe sequence
    /// serves both the hit and the miss path (a plain `get` followed by
    /// `insert` would re-hash and re-probe). `make` runs only on a miss,
    /// after any growth, so the produced value may depend on external state
    /// mutated by neither this map nor the probe.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        a: u32,
        b: u32,
        c: u32,
        make: impl FnOnce() -> u32,
    ) -> u32 {
        if (self.len + 1) * 4 >= (self.mask + 1) * 3 {
            self.grow();
        }
        let k0 = pack(a, b);
        let mut idx = (mix(a, b, c) as usize) & self.mask;
        loop {
            let s0 = self.slots[idx * 2];
            if s0 == EMPTY {
                let v = make();
                self.slots[idx * 2] = k0;
                self.slots[idx * 2 + 1] = pack(c, v);
                self.len += 1;
                return v;
            }
            if s0 == k0 && (self.slots[idx * 2 + 1] >> 32) as u32 == c {
                return self.slots[idx * 2 + 1] as u32;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 4;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap * 2]);
        self.mask = new_cap - 1;
        self.len = 0;
        for pair in old.chunks_exact(2) {
            let (s0, s1) = (pair[0], pair[1]);
            if s0 != EMPTY {
                let a = (s0 >> 32) as u32;
                let b = s0 as u32;
                let c = (s1 >> 32) as u32;
                let v = s1 as u32;
                self.insert(a, b, c, v);
            }
        }
    }
}

/// Direct-mapped *lossy* cache from `(u32, u32, u32)` to `u32`, for the
/// operation caches (ITE, quantification, relational product).
///
/// Unlike the unique table, an operation cache does not have to be exact: a
/// dropped entry only means a sub-result may be recomputed, never a wrong
/// answer, because `get` still compares the full key. Exploiting that, each
/// key hashes to exactly one slot — `get` is a single load-and-compare and
/// `insert` a single overwrite, with none of the probe chains or rehash
/// stalls of an exact open-addressing map. This is the classic CUDD cache
/// design, and on transition-relation construction it is the difference
/// between the cache being a constant-time side table and the dominant cost.
///
/// The cache still grows (4x, entries re-hashed, capped at
/// [`MAX_CACHE_SLOTS`]) when insert traffic since the last resize exceeds
/// twice the slot count, so small problems stay small and big image
/// computations get a big cache.
#[derive(Clone)]
pub(crate) struct DirectCache {
    // Slot layout as in `TripleMap`: slots[2*i] = pack(a, b),
    // slots[2*i + 1] = pack(c, value); empty slots have slots[2*i] == EMPTY.
    slots: Vec<u64>,
    mask: usize,
    inserts: u64,
}

/// Upper bound on direct-mapped cache slots (16 bytes each): 1M slots = 16 MB.
const MAX_CACHE_SLOTS: usize = 1 << 20;

impl DirectCache {
    pub(crate) fn with_capacity_pow2(cap: usize) -> Self {
        let cap = cap.next_power_of_two().clamp(16, MAX_CACHE_SLOTS);
        DirectCache {
            slots: vec![EMPTY; cap * 2],
            mask: cap - 1,
            inserts: 0,
        }
    }

    #[inline]
    pub(crate) fn get(&self, a: u32, b: u32, c: u32) -> Option<u32> {
        let idx = (mix(a, b, c) as usize) & self.mask;
        let s0 = self.slots[idx * 2];
        if s0 != pack(a, b) {
            return None;
        }
        let s1 = self.slots[idx * 2 + 1];
        if (s1 >> 32) as u32 != c {
            return None;
        }
        Some(s1 as u32)
    }

    #[inline]
    pub(crate) fn insert(&mut self, a: u32, b: u32, c: u32, value: u32) {
        self.inserts += 1;
        if self.inserts > 2 * (self.mask as u64 + 1) && self.mask + 1 < MAX_CACHE_SLOTS {
            self.grow();
        }
        let idx = (mix(a, b, c) as usize) & self.mask;
        self.slots[idx * 2] = pack(a, b);
        self.slots[idx * 2 + 1] = pack(c, value);
    }

    fn grow(&mut self) {
        let new_cap = ((self.mask + 1) * 4).min(MAX_CACHE_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap * 2]);
        self.mask = new_cap - 1;
        self.inserts = 0;
        for pair in old.chunks_exact(2) {
            let (s0, s1) = (pair[0], pair[1]);
            if s0 != EMPTY {
                let a = (s0 >> 32) as u32;
                let b = s0 as u32;
                let c = (s1 >> 32) as u32;
                let idx = (mix(a, b, c) as usize) & self.mask;
                self.slots[idx * 2] = s0;
                self.slots[idx * 2 + 1] = s1;
            }
        }
    }
}

/// Open-addressing map from a single `u32` key to `u64` (used by counting and
/// support caches where the value does not fit in 32 bits).
pub(crate) struct U32Map64 {
    keys: Vec<u32>,
    vals: Vec<u64>,
    len: usize,
    mask: usize,
}

const EMPTY32: u32 = u32::MAX;

impl U32Map64 {
    pub(crate) fn new() -> Self {
        U32Map64 {
            keys: vec![EMPTY32; 64],
            vals: vec![0; 64],
            len: 0,
            mask: 63,
        }
    }

    #[inline]
    pub(crate) fn get(&self, k: u32) -> Option<u64> {
        let mut idx = (mix(k, 0, 0) as usize) & self.mask;
        loop {
            let s = self.keys[idx];
            if s == EMPTY32 {
                return None;
            }
            if s == k {
                return Some(self.vals[idx]);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, k: u32, v: u64) {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mut idx = (mix(k, 0, 0) as usize) & self.mask;
        loop {
            let s = self.keys[idx];
            if s == EMPTY32 {
                self.keys[idx] = k;
                self.vals[idx] = v;
                self.len += 1;
                return;
            }
            if s == k {
                self.vals[idx] = v;
                return;
            }
            idx = (idx + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY32; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY32 {
                self.insert(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_map_roundtrip() {
        let mut m = TripleMap::with_capacity_pow2(16);
        for i in 0..1000u32 {
            m.insert(i, i.wrapping_mul(7), i ^ 3, i + 1);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(i, i.wrapping_mul(7), i ^ 3), Some(i + 1));
        }
        assert_eq!(m.get(5000, 1, 2), None);
    }

    #[test]
    fn triple_map_overwrite() {
        let mut m = TripleMap::with_capacity_pow2(16);
        m.insert(1, 2, 3, 10);
        m.insert(1, 2, 3, 20);
        assert_eq!(m.get(1, 2, 3), Some(20));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn triple_map_clear() {
        let mut m = TripleMap::with_capacity_pow2(16);
        m.insert(1, 2, 3, 10);
        m.clear();
        assert_eq!(m.get(1, 2, 3), None);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn u32map_roundtrip() {
        let mut m = U32Map64::new();
        for i in 0..500u32 {
            m.insert(i, (i as u64) << 33);
        }
        for i in 0..500u32 {
            assert_eq!(m.get(i), Some((i as u64) << 33));
        }
        assert_eq!(m.get(501), None);
    }

    #[test]
    fn u32map_overwrite() {
        let mut m = U32Map64::new();
        m.insert(7, 1);
        m.insert(7, 2);
        assert_eq!(m.get(7), Some(2));
    }
}
