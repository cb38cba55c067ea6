//! The recent-answer cache the proxy uses to impersonate missing back-end
//! tiers when profiling a middle tier (§3.2.1).
//!
//! The production middle tier's back-end answers are cached by request hash;
//! the clone's identical (slightly time-shifted) requests are answered from
//! the cache. Locality is high because the clone replays the same requests,
//! but the cache can miss (request permutations) or serve stale data — both
//! are tracked, neither breaks profiling because DejaVu only needs the clone
//! to be loaded *like* production, not to be a verbatim copy.

use std::collections::HashMap;
use std::sync::Arc;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an answer.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Answers inserted from the production path.
    pub insertions: u64,
    /// Answers evicted due to the capacity bound.
    pub evictions: u64,
    /// Hits that returned an answer older than the freshest one for that key.
    pub stale_hits: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0.0 if there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded, LRU-evicting map from request hash to the most recent answer.
///
/// # Example
///
/// ```
/// use dejavu_proxy::AnswerCache;
/// use std::sync::Arc;
///
/// let mut cache = AnswerCache::new(2);
/// cache.insert(1, Arc::from(b"row-1".as_slice()));
/// assert_eq!(cache.lookup(1).as_deref(), Some(b"row-1".as_slice()));
/// assert_eq!(cache.lookup(99), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnswerCache {
    capacity: usize,
    entries: HashMap<u64, (Arc<[u8]>, u64)>,
    /// Recency counter; larger = more recent.
    clock: u64,
    stats: CacheStats,
}

impl AnswerCache {
    /// Creates a cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        AnswerCache {
            capacity,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts (or refreshes) the answer for a request hash, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn insert(&mut self, request_hash: u64, answer: Arc<[u8]>) {
        self.clock += 1;
        self.stats.insertions += 1;
        if !self.entries.contains_key(&request_hash) && self.entries.len() >= self.capacity {
            if let Some((&lru_key, _)) = self.entries.iter().min_by_key(|(_, (_, at))| *at) {
                self.entries.remove(&lru_key);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(request_hash, (answer, self.clock));
    }

    /// Looks up the most recent answer for a request hash, refreshing its
    /// recency on a hit.
    pub fn lookup(&mut self, request_hash: u64) -> Option<Arc<[u8]>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&request_hash) {
            Some((answer, at)) => {
                self.stats.hits += 1;
                if clock - *at > 2 {
                    // An old answer: the clone lags production for this key.
                    self.stats.stale_hits += 1;
                }
                *at = clock;
                Some(answer.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut c = AnswerCache::new(4);
        c.insert(1, Arc::from(b"a".as_slice()));
        c.insert(2, Arc::from(b"b".as_slice()));
        assert_eq!(c.lookup(1).as_deref(), Some(b"a".as_slice()));
        assert_eq!(c.lookup(3), None);
        assert_eq!(c.len(), 2);
        let stats = c.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction() {
        let mut c = AnswerCache::new(2);
        c.insert(1, Arc::from(b"a".as_slice()));
        c.insert(2, Arc::from(b"b".as_slice()));
        // Touch 1 so 2 becomes the LRU.
        let _ = c.lookup(1);
        c.insert(3, Arc::from(b"c".as_slice()));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(2).is_none(), "LRU entry should have been evicted");
        assert!(c.lookup(1).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn refresh_existing_key_does_not_evict() {
        let mut c = AnswerCache::new(2);
        c.insert(1, Arc::from(b"a".as_slice()));
        c.insert(2, Arc::from(b"b".as_slice()));
        c.insert(1, Arc::from(b"a2".as_slice()));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(1).as_deref(), Some(b"a2".as_slice()));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn high_locality_workload_has_high_hit_rate() {
        // Production inserts answers; the clone replays the same keys shortly after.
        let mut c = AnswerCache::new(128);
        for key in 0..100u64 {
            c.insert(key, Arc::from(vec![key as u8]));
            if key >= 2 {
                let _ = c.lookup(key - 2);
            }
        }
        assert!(c.stats().hit_rate() > 0.95);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = AnswerCache::new(0);
    }
}
