//! Set-associative cache model with LRU replacement.

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The block was present.
    Hit,
    /// The block was absent and has been filled.
    Miss,
}

/// Marks an empty way. Block numbers are checked to stay below it.
const EMPTY: u32 = u32::MAX;

/// A set-associative, write-allocate cache with true-LRU replacement.
///
/// Only hit/miss behavior is modeled (timing lives in the core models).
///
/// Every set's blocks sit MRU-first in one flat array of `sets * assoc`
/// `u32` block numbers, so an access is a scan of at most `assoc`
/// adjacent words and an LRU rotation is a `copy_within` of the few
/// words in front of the hit. The leading slot is the set's MRU block,
/// which makes the dominant repeat-access pattern a single compare.
/// Block numbers are narrowed to `u32` with a checked conversion: an
/// address whose block number does not fit panics rather than aliasing
/// another block. (Simulated data lives below `0x1000_0000 + 8 MiB`, so
/// 64-byte blocks use well under 2^23 of the 2^32 numbers.)
///
/// # Examples
///
/// ```
/// use rsc_mssp::cache::{Access, Cache};
/// let mut c = Cache::new(1, 1, 64); // 1 KiB direct-mapped, 64 B blocks
/// assert_eq!(c.access(0x0), Access::Miss);
/// assert_eq!(c.access(0x8), Access::Hit); // same block
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `sets * assoc` block numbers, each set's ways adjacent and
    /// MRU-first; [`EMPTY`] marks a way never filled.
    ways: Box<[u32]>,
    assoc: usize,
    block_shift: u32,
    set_mask: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `kib` KiB with `assoc` ways and `block_bytes`
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// block size, or fewer than one set).
    pub fn new(kib: u32, assoc: u32, block_bytes: u32) -> Self {
        assert!(
            kib > 0 && assoc > 0 && block_bytes > 0,
            "cache geometry must be positive"
        );
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let blocks = kib as u64 * 1024 / block_bytes as u64;
        let sets = (blocks / assoc as u64).max(1);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let set_mask = u32::try_from(sets - 1).expect("set count fits in u32");
        Cache {
            ways: vec![EMPTY; sets as usize * assoc as usize].into_boxed_slice(),
            assoc: assoc as usize,
            block_shift: block_bytes.trailing_zeros(),
            set_mask,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`, updating LRU state and filling on a miss.
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s block number does not fit in a `u32` below
    /// the empty-way marker.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        let a = self.lookup(addr);
        match a {
            Access::Hit => self.hits += 1,
            Access::Miss => self.misses += 1,
        }
        a
    }

    /// [`Cache::access`] without the counter update, for hot loops that
    /// tally hits and misses in locals and credit them once per batch
    /// with [`Cache::add_counts`].
    #[inline]
    pub(crate) fn lookup(&mut self, addr: u64) -> Access {
        let block = addr >> self.block_shift;
        let block = match u32::try_from(block) {
            Ok(b) if b != EMPTY => b,
            _ => block_too_wide(block),
        };
        let start = (block & self.set_mask) as usize * self.assoc;
        let ways = &mut self.ways[start..start + self.assoc];
        if ways[0] == block {
            // The block is already this set's MRU: hit, LRU unchanged.
            return Access::Hit;
        }
        for i in 1..ways.len() {
            if ways[i] == block {
                ways.copy_within(0..i, 1);
                ways[0] = block;
                return Access::Hit;
            }
        }
        // Miss: shift every way down (the last one, LRU or empty, falls
        // off) and fill the MRU slot.
        ways.copy_within(0..ways.len() - 1, 1);
        ways[0] = block;
        Access::Miss
    }

    /// Credits `hits` and `misses` tallied outside [`Cache::access`].
    #[inline]
    pub(crate) fn add_counts(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all accesses (0 if none).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Number of sets (exposed for tests and diagnostics).
    pub fn set_count(&self) -> usize {
        self.ways.len() / self.assoc
    }
}

#[cold]
#[inline(never)]
fn block_too_wide(block: u64) -> ! {
    panic!("block number {block:#x} does not fit the cache's u32 block layout")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook true-LRU cache the flat layout replaced: one `Vec` of
    /// `u64` block numbers per set, most recently used first. It is the
    /// reference model [`Cache`] is checked against.
    struct ReferenceLru {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        block_shift: u32,
        hits: u64,
        misses: u64,
    }

    impl ReferenceLru {
        fn new(kib: u32, assoc: u32, block_bytes: u32) -> Self {
            let blocks = kib as u64 * 1024 / block_bytes as u64;
            let sets = (blocks / assoc as u64).max(1);
            ReferenceLru {
                sets: vec![Vec::new(); sets as usize],
                assoc: assoc as usize,
                block_shift: block_bytes.trailing_zeros(),
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> Access {
            let block = addr >> self.block_shift;
            let set = (block % self.sets.len() as u64) as usize;
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&b| b == block) {
                let b = ways.remove(pos);
                ways.insert(0, b);
                self.hits += 1;
                Access::Hit
            } else {
                if ways.len() >= self.assoc {
                    ways.pop();
                }
                ways.insert(0, block);
                self.misses += 1;
                Access::Miss
            }
        }
    }

    /// `cache`'s set `s`, MRU first, without empty ways.
    fn set_contents(cache: &Cache, s: usize) -> Vec<u64> {
        cache.ways[s * cache.assoc..(s + 1) * cache.assoc]
            .iter()
            .take_while(|&&b| b != EMPTY)
            .map(|&b| u64::from(b))
            .collect()
    }

    const GEOMETRIES: [(u32, u32); 3] = [(8, 2), (64, 8), (1, 1)];

    #[test]
    fn geometry() {
        let c = Cache::new(64, 2, 64);
        assert_eq!(c.set_count(), 64 * 1024 / 64 / 2);
    }

    #[test]
    fn same_block_hits() {
        let mut c = Cache::new(8, 2, 64);
        assert_eq!(c.access(100), Access::Miss);
        assert_eq!(c.access(101), Access::Hit);
        assert_eq!(c.access(163), Access::Miss, "next block");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct construction of a 2-way set: three conflicting blocks.
        let mut c = Cache::new(1, 2, 64); // 8 sets
        let stride = 8 * 64; // same set, different tags
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(stride), Access::Miss);
        assert_eq!(c.access(0), Access::Hit); // 0 now MRU
        assert_eq!(c.access(2 * stride), Access::Miss); // evicts `stride`
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(stride), Access::Miss, "was evicted");
    }

    #[test]
    fn small_cache_thrashes_large_working_set() {
        let mut small = Cache::new(8, 8, 64);
        let mut large = Cache::new(1024, 8, 64);
        // 256 KiB working set, streamed twice.
        for pass in 0..2 {
            for i in 0..4096u64 {
                let addr = i * 64;
                let a = small.access(addr);
                let b = large.access(addr);
                if pass == 1 {
                    assert_eq!(a, Access::Miss, "8 KiB cannot hold 256 KiB");
                    let _ = b;
                }
            }
        }
        assert!(small.miss_rate() > large.miss_rate());
    }

    #[test]
    fn miss_rate_zero_when_untouched() {
        let c = Cache::new(8, 2, 64);
        assert_eq!(c.miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_block_size() {
        Cache::new(8, 2, 48);
    }

    #[test]
    fn matches_the_reference_lru_on_an_lcg_stream() {
        for (kib, assoc) in GEOMETRIES {
            let mut flat = Cache::new(kib, assoc, 64);
            let mut reference = ReferenceLru::new(kib, assoc, 64);
            // A mix of repeats, conflicts, and strides; LCG-driven.
            let mut x = 0xDEADBEEFu64;
            for i in 0..20_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = if i % 3 == 0 {
                    (x >> 40) % 512
                } else {
                    (x >> 40) % (64 * 1024)
                };
                assert_eq!(
                    flat.access(addr),
                    reference.access(addr),
                    "{kib} KiB {assoc}-way, access {i}"
                );
            }
            assert_eq!(flat.hits(), reference.hits, "{kib} KiB {assoc}-way");
            assert_eq!(flat.misses(), reference.misses, "{kib} KiB {assoc}-way");
            for (s, set) in reference.sets.iter().enumerate() {
                assert_eq!(
                    &set_contents(&flat, s),
                    set,
                    "{kib} KiB {assoc}-way set {s}"
                );
            }
        }
    }

    #[test]
    fn warm_sets_keep_the_reference_lru_order() {
        for (kib, assoc) in GEOMETRIES {
            let mut flat = Cache::new(kib, assoc, 64);
            let mut reference = ReferenceLru::new(kib, assoc, 64);
            let sets = flat.set_count() as u64;
            let stride = sets * 64; // every address below maps to set 0
                                    // Fill set 0 past capacity, then touch its ways out of order so
                                    // the LRU order differs from the fill order.
            let mut x = 0x1234_5678u64;
            for i in 0..(4 * u64::from(assoc) + 8) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let tag = if i < u64::from(assoc) + 2 {
                    i
                } else {
                    (x >> 33) % (u64::from(assoc) + 2)
                };
                assert_eq!(flat.access(tag * stride), reference.access(tag * stride));
                assert_eq!(
                    set_contents(&flat, 0),
                    reference.sets[0],
                    "{kib} KiB {assoc}-way, access {i}"
                );
            }
            assert_eq!(set_contents(&flat, 0).len(), assoc as usize);
            assert!((1..sets as usize).all(|s| set_contents(&flat, s).is_empty()));
        }
    }

    #[test]
    fn lookup_leaves_the_counters_to_add_counts() {
        let mut c = Cache::new(8, 2, 64);
        assert_eq!(c.lookup(0x100), Access::Miss);
        assert_eq!(c.lookup(0x104), Access::Hit, "same block, MRU slot");
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.add_counts(1, 1);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn the_largest_simulated_data_address_fits() {
        let mut c = Cache::new(1024, 8, 64);
        let last = 0x1000_0000 + 8 * 1024 * 1024 - 1;
        assert_eq!(c.access(last), Access::Miss);
        assert_eq!(c.access(last), Access::Hit);
        // Block numbers run right up to the empty-way marker.
        let top = u64::from(EMPTY - 1) << 6;
        assert_eq!(c.access(top), Access::Miss);
        assert_eq!(c.access(top), Access::Hit);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_block_number_above_u32_max_panics() {
        let mut c = Cache::new(8, 2, 64);
        c.access((u64::from(u32::MAX) + 1) << 6);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn the_empty_way_marker_is_not_a_block_number() {
        let mut c = Cache::new(8, 2, 64);
        c.access(u64::from(EMPTY) << 6);
    }
}
