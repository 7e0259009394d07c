//! The demand-driven evaluation cache (§2.2).
//!
//! "Many of the evaluations requested by the GA are likely to be exactly
//! the same as those required by previous generations (due to the nature of
//! the crossover and mutation operators). To capitalise on this redundancy,
//! a cache of all previous evaluations has been added between the scheduler
//! and the PACE evaluation engine."
//!
//! The cache key is `(application id, platform id, processor count)` —
//! for a homogeneous resource the prediction depends on nothing else — so
//! one warm pass over a resource's processor counts serves every later GA
//! generation from memory.

use crate::eval::PaceEngine;
use crate::model::{ApplicationModel, ResourceModel};
use agentgrid_telemetry::{Event, Micros, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

type Key = (u32, u32, u32); // (app id, platform id, nprocs)

// Default dense fast-table bounds: the key space the GA actually
// exercises is tiny and enumerable — catalog apps × a handful of
// platforms × node counts up to the resource size — so a fixed array
// covers it with room to spare (64 × 8 × 32 slots = 128 KiB). Callers
// that know their catalogue/platform matrix derive exact dimensions via
// [`FastTableDims::for_matrix`] instead; keys outside the bounds always
// fall back to the locked map, so correctness never depends on fitting.
const DEFAULT_APPS: usize = 64;
const DEFAULT_PLATFORMS: usize = 8;
const DEFAULT_NPROCS: usize = 32;
/// Hard ceiling on dense slots (8 MiB of `AtomicU64`s): a derived matrix
/// larger than this keeps the default shape rather than ballooning.
const MAX_SLOTS: usize = 1 << 20;
/// Slot sentinel: all-ones is a NaN bit pattern no finite prediction can
/// produce, so zero-second predictions still publish correctly.
const FAST_EMPTY: u64 = u64::MAX;

/// Dimensions of the dense fast table: how many distinct application
/// ids, platform ids and processor counts get a lock-free slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastTableDims {
    /// Application ids `0..apps` are in bounds.
    pub apps: usize,
    /// Platform ids `0..platforms` are in bounds.
    pub platforms: usize,
    /// Processor counts `1..=nprocs` are in bounds.
    pub nprocs: usize,
}

impl Default for FastTableDims {
    fn default() -> Self {
        FastTableDims {
            apps: DEFAULT_APPS,
            platforms: DEFAULT_PLATFORMS,
            nprocs: DEFAULT_NPROCS,
        }
    }
}

impl FastTableDims {
    /// Exact dimensions for a known catalogue/platform matrix: the
    /// largest application id, platform id and resource size that will
    /// be queried. Ids beyond these bounds still work — they are served
    /// by the locked map — but get no dense slot. Falls back to the
    /// default shape when the requested matrix would exceed the slot
    /// ceiling (or is empty on any axis).
    pub fn for_matrix(max_app_id: u32, max_platform_id: u32, max_nproc: usize) -> FastTableDims {
        let dims = FastTableDims {
            apps: max_app_id as usize + 1,
            platforms: max_platform_id as usize + 1,
            nprocs: max_nproc.max(1),
        };
        if dims.slots() == 0 || dims.slots() > MAX_SLOTS {
            FastTableDims::default()
        } else {
            dims
        }
    }

    /// Total dense slots the dimensions describe.
    pub fn slots(&self) -> usize {
        self.apps
            .saturating_mul(self.platforms)
            .saturating_mul(self.nprocs)
    }

    /// The dense slot for `key`, or `None` when it is out of bounds.
    fn slot(&self, key: Key) -> Option<usize> {
        let (app, platform, n) = (key.0 as usize, key.1 as usize, key.2 as usize);
        if app < self.apps && platform < self.platforms && (1..=self.nprocs).contains(&n) {
            Some((app * self.platforms + platform) * self.nprocs + (n - 1))
        } else {
            None
        }
    }
}

/// Hit/miss counters for the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that fell through to the engine.
    pub misses: u64,
    /// Subset of `hits` served lock-free from the dense fast table.
    pub fast_hits: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when nothing was requested.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A [`PaceEngine`] fronted by a cache of all previous evaluations.
///
/// The read side is lock-free for the keys the GA hot loop actually
/// uses: published predictions live in a dense `(app, platform, nprocs)`
/// → bits-of-`f64` table of atomics, so a warm hit is one array load.
/// The locked map remains the source of truth and the only path for
/// out-of-bounds keys.
pub struct CachedEngine {
    engine: PaceEngine,
    cache: Mutex<HashMap<Key, f64>>,
    /// Dense atomic snapshot of `cache` for in-bounds keys; slots hold
    /// `f64::to_bits` values, [`FAST_EMPTY`] marks absence. Entries are
    /// write-once between invalidations and the prediction for a key is
    /// a pure function of the key, so readers can take a relaxed load
    /// and trust whatever value they see.
    fast: Box<[AtomicU64]>,
    /// Shape of `fast` (derived from the catalogue/platform matrix when
    /// the caller knows it, default 64×8×32 otherwise).
    dims: FastTableDims,
    /// Hits served through the locked map only; total hits are
    /// `slow_hits + fast_hits`, keeping the fast-hit path at a single
    /// atomic add.
    slow_hits: AtomicU64,
    misses: AtomicU64,
    fast_hits: AtomicU64,
    telemetry: Telemetry,
    // The cache has no notion of simulated time; the owning driver keeps
    // this stamp current (see `set_clock`) so miss events carry it.
    clock: AtomicU64,
}

impl Default for CachedEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CachedEngine {
    /// A fresh engine with an empty cache.
    pub fn new() -> Self {
        CachedEngine::with_telemetry(Telemetry::disabled())
    }

    /// A fresh engine that records [`Event::CacheEvaluate`] on every miss.
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        CachedEngine::with_dims(telemetry, FastTableDims::default())
    }

    /// A fresh engine whose dense fast table is sized for `dims` —
    /// usually [`FastTableDims::for_matrix`] over the catalogue and
    /// platform set actually in play, so island-concurrent readers get a
    /// lock-free slot for every key the GA can generate. Out-of-bounds
    /// keys are served through the locked map, never silently missed.
    pub fn with_dims(telemetry: Telemetry, dims: FastTableDims) -> Self {
        CachedEngine {
            engine: PaceEngine::new(),
            cache: Mutex::new(HashMap::new()),
            fast: (0..dims.slots())
                .map(|_| AtomicU64::new(FAST_EMPTY))
                .collect(),
            dims,
            slow_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fast_hits: AtomicU64::new(0),
            telemetry,
            clock: AtomicU64::new(0),
        }
    }

    /// The dense fast-table shape in force.
    pub fn dims(&self) -> FastTableDims {
        self.dims
    }

    /// Update the simulated-time stamp used on telemetry events. Cheap
    /// (one relaxed store); drivers call it as their clock advances.
    pub fn set_clock(&self, t: Micros) {
        self.clock.store(t, Ordering::Relaxed);
    }

    /// Predicted execution time in seconds; identical to
    /// [`PaceEngine::evaluate`] but served from the cache when possible.
    ///
    /// Warm in-bounds keys are served lock-free from the dense table.
    /// A miss computes *outside* the lock (the engine is pure), then
    /// re-checks under the insert lock: when two threads miss the same
    /// key concurrently, exactly one counts a miss and publishes, the
    /// other counts a hit and returns the published value — the values
    /// are identical anyway since the engine is deterministic.
    pub fn evaluate(&self, app: &ApplicationModel, resource: &ResourceModel, nprocs: usize) -> f64 {
        let n = nprocs.clamp(1, resource.nproc);
        let key = (app.id.0, resource.platform.id, n as u32);
        let slot = self.dims.slot(key);
        if let Some(s) = slot {
            let bits = self.fast[s].load(Ordering::Relaxed);
            if bits != FAST_EMPTY {
                self.fast_hits.fetch_add(1, Ordering::Relaxed);
                return f64::from_bits(bits);
            }
        }
        // Cold slot or out-of-bounds key: the locked map is the source
        // of truth, so consult it before paying for an engine run. Keys
        // beyond the dense bounds are *always* served here — a derived
        // table that undershoots the key space degrades to map hits,
        // never to repeated evaluation.
        if let Some(t) = self.cache.lock().expect("cache lock").get(&key) {
            self.slow_hits.fetch_add(1, Ordering::Relaxed);
            return *t;
        }
        let t = self.engine.evaluate(app, resource, n);
        {
            let mut cache = self.cache.lock().expect("cache lock");
            if let Some(&existing) = cache.get(&key) {
                // Lost a concurrent-miss race: the other thread already
                // published. Count ours as a hit so stats stay truthful.
                drop(cache);
                self.slow_hits.fetch_add(1, Ordering::Relaxed);
                return existing;
            }
            cache.insert(key, t);
            // Publish to the fast table under the same lock so
            // `invalidate` (which clears both while holding it) can
            // never interleave between map insert and fast publish.
            if let Some(s) = slot {
                self.fast[s].store(t.to_bits(), Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.telemetry.emit(self.clock.load(Ordering::Relaxed), || {
            Event::CacheEvaluate {
                app: app.id.0,
                platform: resource.platform.id,
                nprocs: n as u32,
                predicted_s: t,
            }
        });
        t
    }

    /// Minimum predicted time over `1..=resource.nproc` and the processor
    /// count achieving it (the inner minimisation of eq. 10), cached.
    pub fn best_time(&self, app: &ApplicationModel, resource: &ResourceModel) -> (usize, f64) {
        let mut best = (1, self.evaluate(app, resource, 1));
        for k in 2..=resource.nproc {
            let t = self.evaluate(app, resource, k);
            if t < best.1 {
                best = (k, t);
            }
        }
        best
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let fast_hits = self.fast_hits.load(Ordering::Relaxed);
        CacheStats {
            hits: self.slow_hits.load(Ordering::Relaxed) + fast_hits,
            misses: self.misses.load(Ordering::Relaxed),
            fast_hits,
        }
    }

    /// Number of distinct cached entries.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of raw engine evaluations performed. Equals misses in
    /// single-threaded use; concurrent misses on one key may evaluate
    /// more than once (the duplicate is discarded and counted as a hit).
    pub fn engine_evaluations(&self) -> u64 {
        self.engine.evaluation_count()
    }

    /// Drop all cached entries (counters are retained).
    pub fn invalidate(&self) {
        let mut cache = self.cache.lock().expect("cache lock");
        cache.clear();
        // Clear the fast table while holding the lock so no insert can
        // interleave between the two clears and survive in one but not
        // the other.
        for slot in self.fast.iter() {
            slot.store(FAST_EMPTY, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AppId, ApplicationModel, ModelCurve, TabulatedModel};
    use crate::platform::Platform;

    fn app(id: u32) -> ApplicationModel {
        ApplicationModel::new(
            AppId(id),
            "app",
            ModelCurve::Tabulated(TabulatedModel::new(vec![8.0, 5.0, 4.0]).unwrap()),
            (1.0, 10.0),
        )
        .unwrap()
    }

    fn resource() -> ResourceModel {
        ResourceModel::new(Platform::sgi_origin2000(), 3).unwrap()
    }

    #[test]
    fn second_request_is_a_hit() {
        let c = CachedEngine::new();
        let a = app(1);
        let r = resource();
        let t1 = c.evaluate(&a, &r, 2);
        let t2 = c.evaluate(&a, &r, 2);
        assert_eq!(t1, t2);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                fast_hits: 1,
            }
        );
        assert_eq!(c.engine_evaluations(), 1);
    }

    #[test]
    fn in_bounds_hits_are_served_by_the_fast_table() {
        let c = CachedEngine::new();
        let a = app(1);
        let r = resource();
        c.evaluate(&a, &r, 2);
        assert_eq!(c.stats().fast_hits, 0, "a miss is not a fast hit");
        for _ in 0..5 {
            c.evaluate(&a, &r, 2);
        }
        let s = c.stats();
        assert_eq!(s.hits, 5);
        assert_eq!(s.fast_hits, 5, "warm in-bounds keys bypass the lock");
    }

    #[test]
    fn out_of_bounds_keys_fall_back_to_the_map() {
        let c = CachedEngine::new();
        // App id 999 is beyond the dense table; the locked map must
        // still serve it correctly.
        let a = app(999);
        let r = resource();
        let t1 = c.evaluate(&a, &r, 2);
        let t2 = c.evaluate(&a, &r, 2);
        assert_eq!(t1, t2);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.fast_hits, 0);
    }

    #[test]
    fn invalidate_clears_the_fast_table_too() {
        let c = CachedEngine::new();
        let a = app(1);
        let r = resource();
        c.evaluate(&a, &r, 2);
        c.invalidate();
        c.evaluate(&a, &r, 2);
        assert_eq!(c.stats().misses, 2, "post-invalidate request re-evaluates");
    }

    #[test]
    fn concurrent_misses_count_one_miss_and_agree() {
        use std::sync::Barrier;
        let c = CachedEngine::new();
        let a = app(1);
        let r = resource();
        let barrier = Barrier::new(4);
        let results: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        c.evaluate(&a, &r, 2)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluate thread"))
                .collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 4, "every request is counted once");
        assert_eq!(s.misses, 1, "only the insert-race winner counts a miss");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn derived_dims_cover_the_declared_matrix() {
        let dims = FastTableDims::for_matrix(6, 4, 16);
        assert_eq!(
            dims,
            FastTableDims {
                apps: 7,
                platforms: 5,
                nprocs: 16
            }
        );
        assert_eq!(dims.slots(), 7 * 5 * 16);
        let c = CachedEngine::with_dims(Telemetry::disabled(), dims);
        assert_eq!(c.dims(), dims);
        let a = app(6); // the largest in-matrix app id
        let r = resource();
        c.evaluate(&a, &r, 2);
        for _ in 0..3 {
            c.evaluate(&a, &r, 2);
        }
        assert_eq!(c.stats().fast_hits, 3, "in-matrix keys get dense slots");
    }

    #[test]
    fn beyond_derived_bounds_falls_back_to_the_map_not_reevaluation() {
        let c = CachedEngine::with_dims(Telemetry::disabled(), FastTableDims::for_matrix(1, 1, 4));
        let a = app(37); // beyond apps=2: no dense slot
        let r = resource();
        let t1 = c.evaluate(&a, &r, 2);
        for _ in 0..3 {
            assert_eq!(c.evaluate(&a, &r, 2).to_bits(), t1.to_bits());
        }
        // Identical prediction to the uncached engine.
        assert_eq!(
            PaceEngine::new().evaluate(&a, &r, 2).to_bits(),
            t1.to_bits()
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.fast_hits), (3, 1, 0));
        assert_eq!(
            c.engine_evaluations(),
            1,
            "the map absorbs every re-request"
        );
    }

    #[test]
    fn oversized_matrix_keeps_the_default_shape() {
        let dims = FastTableDims::for_matrix(u32::MAX - 1, 7, 32);
        assert_eq!(dims, FastTableDims::default());
    }

    #[test]
    fn clamped_counts_share_an_entry() {
        let c = CachedEngine::new();
        let a = app(1);
        let r = resource();
        c.evaluate(&a, &r, 3);
        // 100 clamps to 3, so this must be a hit.
        c.evaluate(&a, &r, 100);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn distinct_apps_do_not_collide() {
        let c = CachedEngine::new();
        let r = resource();
        c.evaluate(&app(1), &r, 1);
        c.evaluate(&app(2), &r, 1);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn distinct_platforms_do_not_collide() {
        let c = CachedEngine::new();
        let a = app(1);
        let r1 = ResourceModel::new(Platform::sgi_origin2000(), 3).unwrap();
        let r2 = ResourceModel::new(Platform::sun_ultra5(), 3).unwrap();
        let t1 = c.evaluate(&a, &r1, 2);
        let t2 = c.evaluate(&a, &r2, 2);
        assert!(t2 > t1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn cache_is_transparent() {
        // Cached and uncached engines must agree everywhere.
        let cached = CachedEngine::new();
        let raw = PaceEngine::new();
        let a = app(7);
        for platform in Platform::case_study_set() {
            let r = ResourceModel::new(platform, 3).unwrap();
            for k in 1..=3 {
                // Query twice so hits are exercised too.
                assert_eq!(cached.evaluate(&a, &r, k), raw.evaluate(&a, &r, k));
                assert_eq!(cached.evaluate(&a, &r, k), raw.evaluate(&a, &r, k));
            }
        }
    }

    #[test]
    fn best_time_warm_cache_does_no_engine_work() {
        let c = CachedEngine::new();
        let a = app(1);
        let r = resource();
        c.best_time(&a, &r);
        let evals_after_first = c.engine_evaluations();
        c.best_time(&a, &r);
        assert_eq!(c.engine_evaluations(), evals_after_first);
    }

    #[test]
    fn invalidate_clears_entries_but_keeps_counters() {
        let c = CachedEngine::new();
        c.evaluate(&app(1), &resource(), 1);
        assert!(!c.is_empty());
        c.invalidate();
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hit_ratio_bounds() {
        let s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            fast_hits: 2,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }
}
