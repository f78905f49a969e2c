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
/// `u32` block numbers, so an access touches at most `assoc` adjacent
/// words and an LRU rotation moves only the words in front of the hit.
/// 2-way and 8-way sets compare and rotate all their ways with no
/// data-dependent branch; other associativities scan from the MRU slot.
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
    /// with [`Cache::add_counts`]. It is [`Cache::lookup_each`] of one
    /// address.
    #[inline]
    pub(crate) fn lookup(&mut self, addr: u64) -> Access {
        let mut access = Access::Miss;
        self.lookup_each(&[addr], u64::MAX, |_, hit| {
            access = if hit { Access::Hit } else { Access::Miss };
        });
        access
    }

    /// Looks up `entry & addr_mask` for every entry in order, handing
    /// `on` each entry and whether it hit. The associativity is matched
    /// once for the whole slice, not once per access: 2-way and 8-way
    /// sets (every cache of Table 5) take a branch-free kernel, the
    /// 8-way one in SSE2 on `x86_64` ([`set8_sse2`]) and
    /// [`Cache::lookup_ways`] elsewhere; other associativities scan.
    #[inline(always)]
    pub(crate) fn lookup_each(
        &mut self,
        entries: &[u64],
        addr_mask: u64,
        on: impl FnMut(u64, bool),
    ) {
        match self.assoc {
            2 => self.each_with(entries, addr_mask, on, Self::lookup_ways::<2>),
            #[cfg(target_arch = "x86_64")]
            8 => self.each_with(entries, addr_mask, on, Self::lookup_8way_sse2),
            #[cfg(not(target_arch = "x86_64"))]
            8 => self.each_with(entries, addr_mask, on, Self::lookup_ways::<8>),
            _ => self.each_with(entries, addr_mask, on, Self::lookup_scan),
        }
    }

    /// [`Cache::lookup_each`]'s loop with one set kernel.
    #[inline(always)]
    fn each_with(
        &mut self,
        entries: &[u64],
        addr_mask: u64,
        mut on: impl FnMut(u64, bool),
        kernel: impl Fn(&mut Self, usize, u32) -> Access,
    ) {
        for &entry in entries {
            let block = self.block_of(entry & addr_mask);
            let set = (block & self.set_mask) as usize;
            on(entry, kernel(self, set, block) == Access::Hit);
        }
    }

    /// `addr`'s block number, narrowed to `u32`.
    #[inline(always)]
    fn block_of(&self, addr: u64) -> u32 {
        let block = addr >> self.block_shift;
        match u32::try_from(block) {
            Ok(b) if b != EMPTY => b,
            _ => block_too_wide(block),
        }
    }

    /// [`Cache::lookup_ways::<8>`] through [`set8_sse2`].
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn lookup_8way_sse2(&mut self, set: usize, block: u32) -> Access {
        let ways: &mut [u32; 8] = (&mut self.ways[set * 8..set * 8 + 8])
            .try_into()
            .expect("a set holds 8 ways");
        // SAFETY: SSE2 is part of every `x86_64` target's baseline, so
        // the feature `set8_sse2` enables is always present.
        let hit = unsafe { set8_sse2(ways, block) };
        if hit {
            Access::Hit
        } else {
            Access::Miss
        }
    }

    /// One access to set `set` of an `N`-way cache with no
    /// data-dependent branch. Every way is compared into a bitmask; the
    /// hit way, or `N - 1` (the LRU way) on a miss, is `pos`. Ways
    /// `0..pos` then move down one slot through fixed-width selects and
    /// the block takes slot 0, which is the scan's `copy_within` plus
    /// MRU fill for a hit and a miss alike. Simulated addresses are
    /// random, so the scan's exit branches are what the host mispredicts.
    #[inline(always)]
    fn lookup_ways<const N: usize>(&mut self, set: usize, block: u32) -> Access {
        let ways: &mut [u32; N] = (&mut self.ways[set * N..set * N + N])
            .try_into()
            .expect("a set holds N ways");
        let old = *ways;
        let mut mask = 0u32;
        for (i, &way) in old.iter().enumerate() {
            mask |= u32::from(way == block) << i;
        }
        // A block sits in at most one way, so the lowest set bit is the
        // hit way; the forced top bit makes a miss select the LRU way.
        let pos = (mask | 1 << (N - 1)).trailing_zeros() as usize;
        for i in 1..N {
            ways[i] = if i <= pos { old[i - 1] } else { old[i] };
        }
        ways[0] = block;
        if mask != 0 {
            Access::Hit
        } else {
            Access::Miss
        }
    }

    /// [`Cache::lookup`] for associativities without a branch-free arm:
    /// scan the set MRU-first and rotate the ways in front of the hit.
    fn lookup_scan(&mut self, set: usize, block: u32) -> Access {
        let start = set * self.assoc;
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

/// One access to an 8-way set in SSE2: the set is two 16-byte halves,
/// and the result is exactly [`Cache::lookup_ways::<8>`]'s. One compare
/// per half and `movemask` give the way mask; `pos` is its lowest set
/// bit with bit 7 forced (the hit way, or the LRU way on a miss). Byte
/// shifts build the set moved down one slot with the block in front,
/// `[block, w0..w6]`, and lanes above `pos` keep their old way through
/// a compare mask. Two 16-byte stores write the set back: the rotation
/// for a hit and the shift-and-fill for a miss, with no per-way select
/// chain. Returns whether the block hit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[inline]
fn set8_sse2(ways: &mut [u32; 8], block: u32) -> bool {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_andnot_si128, _mm_castsi128_ps, _mm_cmpeq_epi32,
        _mm_cmpgt_epi32, _mm_cvtsi32_si128, _mm_loadu_si128, _mm_movemask_ps, _mm_or_si128,
        _mm_set1_epi32, _mm_set_epi32, _mm_slli_si128, _mm_srli_si128, _mm_storeu_si128,
    };
    let halves = ways.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `ways` is exactly 8 `u32`s (32 bytes), borrowed mutably,
    // so both 16-byte halves are in bounds and unaliased; unaligned
    // loads need no alignment.
    let (lo, hi) = unsafe { (_mm_loadu_si128(halves), _mm_loadu_si128(halves.add(1))) };
    // `as i32` reinterprets the bits; lanes are only compared for equality.
    let b = _mm_set1_epi32(block as i32);
    let mask = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, b)))
        | _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(hi, b))) << 4;
    // A block sits in at most one way, so the lowest set bit is the hit
    // way; the forced top bit makes a miss select the LRU way.
    let pos = _mm_set1_epi32((mask | 0x80).trailing_zeros() as i32);
    let shifted_lo = _mm_or_si128(_mm_slli_si128::<4>(lo), _mm_cvtsi32_si128(block as i32));
    let shifted_hi = _mm_or_si128(_mm_slli_si128::<4>(hi), _mm_srli_si128::<12>(lo));
    let keep_lo = _mm_cmpgt_epi32(_mm_set_epi32(3, 2, 1, 0), pos);
    let keep_hi = _mm_cmpgt_epi32(_mm_set_epi32(7, 6, 5, 4), pos);
    let new_lo = _mm_or_si128(
        _mm_and_si128(keep_lo, lo),
        _mm_andnot_si128(keep_lo, shifted_lo),
    );
    let new_hi = _mm_or_si128(
        _mm_and_si128(keep_hi, hi),
        _mm_andnot_si128(keep_hi, shifted_hi),
    );
    // SAFETY: the same two in-bounds halves; unaligned stores need no
    // alignment.
    unsafe {
        _mm_storeu_si128(halves, new_lo);
        _mm_storeu_si128(halves.add(1), new_hi);
    }
    mask != 0
}

#[cold]
#[inline(never)]
fn block_too_wide(block: u64) -> ! {
    panic!("block number {block:#x} does not fit the cache's u32 block layout")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The branch-free 2- and 8-way arms and the scan agree with the
        /// reference on every access, at every associativity the cache
        /// takes. A stream mixes a hot region about the cache's size, which
        /// keeps hits at every LRU depth, with a cold region 16 times larger
        /// that forces misses and evictions.
        #[test]
        fn every_associativity_matches_the_reference_lru(
            assoc in prop::sample::select(vec![1u32, 2, 4, 8, 16]),
            kib in prop::sample::select(vec![1u32, 4]),
            accesses in prop::collection::vec((0u32..100, any::<u64>()), 1..2048),
            hot_pct in 50u32..95,
        ) {
            let mut cache = Cache::new(kib, assoc, 64);
            let mut reference = ReferenceLru::new(kib, assoc, 64);
            let bytes = u64::from(kib) * 1024;
            for (i, &(roll, x)) in accesses.iter().enumerate() {
                let region = if roll < hot_pct { bytes } else { 16 * bytes };
                let addr = x % region;
                prop_assert_eq!(
                    cache.access(addr),
                    reference.access(addr),
                    "{}-way, {} KiB, access {}", assoc, kib, i
                );
            }
            prop_assert_eq!(cache.hits(), reference.hits);
            prop_assert_eq!(cache.misses(), reference.misses);
            for (s, set) in reference.sets.iter().enumerate() {
                prop_assert_eq!(&set_contents(&cache, s), set, "set {}", s);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On `x86_64`, 8-way sets run `set8_sse2`; here it and the
        /// portable `lookup_ways::<8>` drive twin caches through the same
        /// stream. Every access must give the same outcome and leave the
        /// touched set's MRU-first ways equal, and every set must be equal
        /// at the end. The 8 KiB cache (the trailing L1) has 16 sets, so
        /// back-to-back accesses to one set are common; the 1 MiB one is
        /// the L2. Streams mix a hot region twice the cache's size with a
        /// cold one 16 times larger, and repeat an address now and then.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn sse2_sets_match_the_portable_8_way_arm(
            kib in prop::sample::select(vec![8u32, 1024]),
            accesses in prop::collection::vec((0u32..100, any::<u64>()), 1..4096),
            hot_pct in 50u32..95,
            repeat_pct in 0u32..30,
        ) {
            let mut sse2 = Cache::new(kib, 8, 64);
            let mut portable = Cache::new(kib, 8, 64);
            let bytes = u64::from(kib) * 1024;
            let mut addr = 0;
            for (i, &(roll, x)) in accesses.iter().enumerate() {
                if roll >= repeat_pct || i == 0 {
                    let region = if roll % 100 < hot_pct { 2 * bytes } else { 16 * bytes };
                    addr = x % region;
                }
                let block = sse2.block_of(addr);
                let set = (block & sse2.set_mask) as usize;
                prop_assert_eq!(
                    sse2.lookup_8way_sse2(set, block),
                    portable.lookup_ways::<8>(set, block),
                    "{} KiB, access {}", kib, i
                );
                prop_assert_eq!(
                    &sse2.ways[set * 8..set * 8 + 8],
                    &portable.ways[set * 8..set * 8 + 8],
                    "{} KiB, access {}, set {}", kib, i, set
                );
            }
            prop_assert!(sse2.ways == portable.ways, "{} KiB: some set differs", kib);
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
