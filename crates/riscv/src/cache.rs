//! Set-associative cache models and the L1/L2 memory hierarchy.

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Hit latency in cycles (added to the pipeline's base).
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's 16 KB L1 (I or D): 4-way, 64 B lines.
    #[must_use]
    pub fn l1() -> Self {
        Self {
            size: 16 * 1024,
            ways: 4,
            line: 64,
            hit_latency: 0,
        }
    }

    /// The paper's shared 512 KB L2: 8-way, 64 B lines.
    #[must_use]
    pub fn l2() -> Self {
        Self {
            size: 512 * 1024,
            ways: 8,
            line: 64,
            hit_latency: 32,
        }
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty evictions (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in [0, 1].
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp: larger = more recent.
    stamp: u64,
}

/// A write-back, write-allocate, LRU set-associative cache.
///
/// ```
/// use cryo_riscv::cache::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1());
/// let (hit, _) = l1.access(0x1000, false);
/// assert!(!hit, "cold miss");
/// let (hit, _) = l1.access(0x1000, false);
/// assert!(hit, "resident after fill");
/// assert_eq!(l1.stats.misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    /// log2 of the line size: `addr >> line_shift` is the line address.
    line_shift: u32,
    /// log2 of the set count: `line >> set_shift` is the tag.
    set_shift: u32,
    lines: Vec<Line>,
    /// Line address and index in `lines` of the last line accessed. It holds
    /// the newest stamp in the whole cache, so refreshing it again cannot
    /// change any LRU victim, and no access since can have evicted it.
    mru: Option<(u64, usize)>,
    tick: u64,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Build a cache.
    ///
    /// # Panics
    ///
    /// Panics unless the line size is a power of two and size / (ways·line)
    /// is a power-of-two set count ≥ 1.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line.is_power_of_two(),
            "cache line size must be a power of two"
        );
        let sets = cfg.size / (cfg.ways * cfg.line);
        assert!(sets >= 1 && sets.is_power_of_two(), "bad cache geometry");
        Self {
            cfg,
            sets,
            line_shift: cfg.line.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            lines: vec![Line::default(); sets * cfg.ways],
            mru: None,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access a line; returns `(hit, evicted_dirty_line_addr)`.
    pub fn access(&mut self, addr: u64, write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        if let Some((mru_line, i)) = self.mru {
            if mru_line == line_addr {
                let l = &mut self.lines[i];
                l.stamp = self.tick;
                l.dirty |= write;
                return (true, None);
            }
        }
        let set = (line_addr as usize) & (self.sets - 1);
        let tag = line_addr >> self.set_shift;
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];
        // Hit?
        if let Some(way) = ways.iter().position(|l| l.valid && l.tag == tag) {
            let l = &mut ways[way];
            l.stamp = self.tick;
            l.dirty |= write;
            self.mru = Some((line_addr, base + way));
            return (true, None);
        }
        // Miss: evict LRU.
        self.stats.misses += 1;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, l) in ways.iter().enumerate() {
            if !l.valid {
                victim = way;
                break;
            }
            if l.stamp < oldest {
                oldest = l.stamp;
                victim = way;
            }
        }
        let l = &mut ways[victim];
        let mut evicted = None;
        if l.valid && l.dirty {
            self.stats.writebacks += 1;
            evicted = Some(((l.tag << self.set_shift) | set as u64) << self.line_shift);
        }
        *l = Line {
            tag,
            valid: true,
            dirty: write,
            stamp: self.tick,
        };
        self.mru = Some((line_addr, base + victim));
        (false, evicted)
    }
}

/// The SoC's memory hierarchy: split L1, shared L2, flat memory behind it.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Shared L2.
    pub l2: Cache,
    /// Cycles to reach memory behind the L2 on an L2 miss.
    pub mem_latency: u64,
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryHierarchy {
    /// The paper's configuration: 16 KB L1I + 16 KB L1D + 512 KB shared L2.
    #[must_use]
    pub fn new() -> Self {
        Self {
            l1i: Cache::new(CacheConfig::l1()),
            l1d: Cache::new(CacheConfig::l1()),
            l2: Cache::new(CacheConfig::l2()),
            mem_latency: 80,
        }
    }

    /// Instruction fetch; returns stall cycles beyond a pipelined hit.
    pub fn fetch(&mut self, addr: u64) -> u64 {
        let (hit, _) = self.l1i.access(addr, false);
        if hit {
            return 0;
        }
        let (l2_hit, _) = self.l2.access(addr, false);
        if l2_hit {
            self.l2.cfg.hit_latency
        } else {
            self.l2.cfg.hit_latency + self.mem_latency
        }
    }

    /// Data access; returns stall cycles beyond a pipelined hit.
    pub fn data(&mut self, addr: u64, write: bool) -> u64 {
        let (hit, evicted) = self.l1d.access(addr, write);
        let mut cycles = 0;
        if let Some(victim) = evicted {
            // Write-back into L2.
            let _ = self.l2.access(victim, true);
            cycles += 2;
        }
        if hit {
            return cycles;
        }
        let (l2_hit, _) = self.l2.access(addr, false);
        cycles += if l2_hit {
            self.l2.cfg.hit_latency
        } else {
            self.l2.cfg.hit_latency + self.mem_latency
        };
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fill_then_hits() {
        let mut c = Cache::new(CacheConfig::l1());
        // 16 KB / 64 B = 256 lines; touch each once (miss), then again (hit).
        for i in 0..256 {
            let (hit, _) = c.access(i * 64, false);
            assert!(!hit);
        }
        for i in 0..256 {
            let (hit, _) = c.access(i * 64, false);
            assert!(hit, "line {i} should be resident");
        }
        assert_eq!(c.stats.misses, 256);
        assert_eq!(c.stats.accesses, 512);
    }

    #[test]
    fn capacity_eviction() {
        let mut c = Cache::new(CacheConfig::l1());
        // Touch 2× capacity sequentially; second pass over the first half
        // must miss again (LRU evicted it).
        for i in 0..512 {
            c.access(i * 64, false);
        }
        let before = c.stats.misses;
        let (hit, _) = c.access(0, false);
        assert!(!hit);
        assert_eq!(c.stats.misses, before + 1);
    }

    #[test]
    fn lru_keeps_hot_line() {
        let cfg = CacheConfig {
            size: 4 * 64,
            ways: 4,
            line: 64,
            hit_latency: 0,
        };
        let mut c = Cache::new(cfg); // one set, 4 ways
        c.access(0, false);
        for i in 1..4 {
            c.access(i * 64, false);
        }
        // Re-touch line 0 to refresh LRU, then insert a 5th line.
        c.access(0, false);
        c.access(4 * 64, false);
        let (hit0, _) = c.access(0, false);
        assert!(hit0, "hot line survived");
        let (hit1, _) = c.access(64, false);
        assert!(!hit1, "cold line evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let cfg = CacheConfig {
            size: 64,
            ways: 1,
            line: 64,
            hit_latency: 0,
        };
        let mut c = Cache::new(cfg);
        c.access(0, true);
        let (_, evicted) = c.access(4096, false);
        assert_eq!(evicted, Some(0));
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn hierarchy_miss_costs_scale() {
        let mut h = MemoryHierarchy::new();
        let cold = h.data(0x10000, false);
        assert!(cold >= h.l2.cfg.hit_latency + h.mem_latency);
        let warm = h.data(0x10000, false);
        assert_eq!(warm, 0);
        // L2-resident but L1-evicted: walk far past L1 capacity.
        for i in 0..1024 {
            h.data(0x10000 + i * 64, false);
        }
        let l2_hit = h.data(0x10000, false);
        assert_eq!(l2_hit, h.l2.cfg.hit_latency);
    }

    #[test]
    fn miss_rate_math() {
        let s = CacheStats {
            accesses: 100,
            misses: 25,
            writebacks: 0,
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }
}
