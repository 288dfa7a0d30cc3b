//! Sharded memo cache with in-flight deduplication.
//!
//! Results are keyed on the canonical hash from [`crate::hash`] and stored
//! behind `Arc`, so a hit hands every caller the *same* allocation —
//! repeated queries are bit-identical by construction. A second caller
//! arriving while the first is still computing joins the in-flight entry
//! (waits on the shard's condvar) instead of recomputing: identical
//! queries never run `simulate` twice, which is the scheduler's
//! acceptance-criterion counter.
//!
//! Two stores share the machinery:
//!
//! * the **result store** (`canonical_key -> Arc<RunResult>`): whole
//!   requests, device- and VM-specific;
//! * the **unit store** (`unit_key -> Arc<SeedUnit>`): one canonical
//!   member's operand streams at one seed index — the only unit of
//!   O(bytes) work. Its operands are generated once and encoded once;
//!   the one encoded plane per operand feeds the feature fold (seed-0
//!   units only), the bus pass and the MAC loop, and then everything is
//!   dropped; the unit keeps what the walks produced. Activity is
//!   device-independent, so one unit serves every device, and — because
//!   the seed derivation fixes a member's operand streams by
//!   `(dims, ordinal)` alone — a plain single request and a group
//!   containing the same member share it. Features, the analytic probe,
//!   and execution are all views over these units.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use wm_core::{member_seed_operands, simulate_member_activity_encoded, RunRequest, RunResult};
use wm_gpu::GemmDims;
use wm_kernels::{ActivityRecord, EncodedMatrix};
use wm_predict::FeatureAccumulator;

use crate::hash::{member_request_key, unit_key};

enum Slot<T> {
    /// A worker is computing this entry; waiters sleep on the shard condvar.
    Pending,
    /// The finished value.
    Ready(Arc<T>),
}

struct Shard<T> {
    slots: Mutex<HashMap<u64, Slot<T>>>,
    ready: Condvar,
}

/// Removes a stranded `Pending` slot if the owning computation unwinds,
/// so waiters wake up and retry instead of blocking forever.
struct PendingGuard<'a, T> {
    shard: &'a Shard<T>,
    key: u64,
    armed: bool,
}

impl<T> Drop for PendingGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            let mut slots = self
                .shard
                .slots
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slots.remove(&self.key);
            drop(slots);
            self.shard.ready.notify_all();
        }
    }
}

/// How a [`ShardSet::get_or_compute`] call was served.
enum Fetch {
    /// The entry was ready on arrival.
    Hit,
    /// The caller waited on an in-flight computation, then took its result.
    Joined,
    /// The caller ran the computation itself.
    Computed,
}

/// One keyed store: power-of-two shards of `key -> Pending | Ready(Arc<T>)`.
struct ShardSet<T> {
    shards: Vec<Shard<T>>,
}

impl<T> ShardSet<T> {
    fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n)
                .map(|_| Shard {
                    slots: Mutex::new(HashMap::new()),
                    ready: Condvar::new(),
                })
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &Shard<T> {
        // Fold the high half into the low bits so shard choice mixes the
        // whole key and works for any power-of-two shard count.
        let mixed = key ^ (key >> 32);
        let idx = mixed as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    fn contains(&self, key: u64) -> bool {
        let shard = self.shard(key);
        let slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
        matches!(slots.get(&key), Some(Slot::Ready(_)))
    }

    /// Non-blocking, uncounted read of a ready entry.
    fn peek(&self, key: u64) -> Option<Arc<T>> {
        let shard = self.shard(key);
        let slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.get(&key) {
            Some(Slot::Ready(v)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Blocking read: wait out a `Pending` entry, return the ready value,
    /// or `None` if the key is absent (including a computation that
    /// unwound while we waited — the caller falls back to computing).
    /// The bool is whether the caller actually waited.
    fn wait_ready(&self, key: u64) -> Option<(Arc<T>, bool)> {
        let shard = self.shard(key);
        let mut slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        loop {
            match slots.get(&key) {
                Some(Slot::Ready(v)) => return Some((Arc::clone(v), waited)),
                Some(Slot::Pending) => {
                    waited = true;
                    slots = shard
                        .ready
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => return None,
            }
        }
    }

    fn get_or_compute<F>(&self, key: u64, compute: F) -> (Arc<T>, Fetch)
    where
        F: FnOnce() -> T,
    {
        let shard = self.shard(key);
        {
            let mut slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
            let mut joined = false;
            loop {
                match slots.get(&key) {
                    Some(Slot::Ready(v)) => {
                        let fetch = if joined { Fetch::Joined } else { Fetch::Hit };
                        return (Arc::clone(v), fetch);
                    }
                    Some(Slot::Pending) => {
                        joined = true;
                        slots = shard
                            .ready
                            .wait(slots)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        slots.insert(key, Slot::Pending);
                        break;
                    }
                }
            }
        }
        // From here on the Pending slot is ours: if `compute` unwinds, the
        // guard removes it and wakes waiters so the key is not wedged.
        let mut guard = PendingGuard {
            shard,
            key,
            armed: true,
        };
        let value = Arc::new(compute());
        {
            let mut slots = shard.slots.lock().unwrap_or_else(PoisonError::into_inner);
            slots.insert(key, Slot::Ready(Arc::clone(&value)));
        }
        guard.armed = false;
        shard.ready.notify_all();
        (value, Fetch::Computed)
    }

    /// Number of ready entries satisfying `keep`.
    fn ready_count(&self, keep: impl Fn(&T) -> bool) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.slots
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .filter(|v| matches!(v, Slot::Ready(x) if keep(x)))
                    .count()
            })
            .sum()
    }
}

/// One computed unit of work: a canonical member's operand streams at one
/// seed index. The operands themselves are gone by the time the unit is
/// stored; it keeps what walking them produced.
#[derive(Debug)]
pub struct SeedUnit {
    /// The member's switching activity at this seed.
    pub activity: ActivityRecord,
    /// The member's feature chunk — seed 0 only, because features walk
    /// the first seed. Boxed: an accumulator is tens of kilobytes, and
    /// the other seeds' units should not carry its footprint.
    pub chunk: Option<Box<FeatureAccumulator>>,
    /// Whether an executing run has consumed this unit yet.
    executed: AtomicBool,
}

impl SeedUnit {
    /// A freshly computed unit. `executed` is true when the run that
    /// consumes it computed it, false when pricing computed it ahead of
    /// any run. Built after the operands are dropped, so the long-lived
    /// allocations do not pin the heap the operands occupied.
    fn new(activity: ActivityRecord, chunk: Option<FeatureAccumulator>, executed: bool) -> Self {
        Self {
            activity,
            chunk: chunk.map(Box::new),
            executed: AtomicBool::new(executed),
        }
    }

    /// Mark the unit consumed by an executing run. Returns whether an
    /// earlier run already had: the first run to execute a unit — whoever
    /// computed it — owns it as a residue job, later runs reuse it.
    pub fn claim(&self) -> bool {
        self.executed.swap(true, Ordering::Relaxed)
    }
}

/// Sharded memo cache: whole-request results plus the member-seed units
/// every request's features, probe, and execution read.
pub struct MemoCache {
    results: ShardSet<RunResult>,
    units: ShardSet<SeedUnit>,
    hits: AtomicU64,
    misses: AtomicU64,
    joins: AtomicU64,
    member_hits: AtomicU64,
    member_residues: AtomicU64,
    operand_bytes: AtomicU64,
    feature_bytes: AtomicU64,
    activity_sims: AtomicU64,
}

impl MemoCache {
    /// A cache with `shards` shards (rounded up to a power of two) in each
    /// of the result and unit stores.
    pub fn new(shards: usize) -> Self {
        Self {
            results: ShardSet::new(shards),
            units: ShardSet::new(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            member_hits: AtomicU64::new(0),
            member_residues: AtomicU64::new(0),
            operand_bytes: AtomicU64::new(0),
            feature_bytes: AtomicU64::new(0),
            activity_sims: AtomicU64::new(0),
        }
    }

    /// Whether `key` holds a *ready* entry. A probe, not a read: unlike
    /// [`MemoCache::peek`] it counts nothing, so callers can classify
    /// (e.g. the batch packer sifting cached repeats out of the rounds)
    /// without inflating the hit statistics.
    pub fn contains(&self, key: u64) -> bool {
        self.results.contains(key)
    }

    /// Non-blocking lookup: `Some` (counted as a hit) iff the entry is
    /// ready. Pending entries read as misses — use [`Self::get_or_compute`]
    /// to join them.
    pub fn peek(&self, key: u64) -> Option<Arc<RunResult>> {
        let v = self.results.peek(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Blocking lookup that waits out an in-flight computation: `Some`
    /// (counted as a hit, and as a join if it actually waited) once the
    /// entry is ready, `None` if the key is absent — including an owner
    /// that unwound while we waited, in which case the caller proceeds to
    /// [`Self::get_or_compute`] and retries the computation.
    pub fn wait_ready(&self, key: u64) -> Option<Arc<RunResult>> {
        let (v, waited) = self.results.wait_ready(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        if waited {
            self.joins.fetch_add(1, Ordering::Relaxed);
        }
        Some(v)
    }

    /// Look up `key`; on a miss, run `compute` (without holding the shard
    /// lock) and publish the result. Returns the cached value and whether
    /// this call was served from cache (`true`) or computed (`false`).
    /// Concurrent callers with the same key block until the first finishes
    /// and then count as cache hits (they never recompute). If `compute`
    /// panics, the pending entry is removed and waiters are woken (one of
    /// them will retry the computation); the panic propagates to the
    /// caller.
    pub fn get_or_compute<F>(&self, key: u64, compute: F) -> (Arc<RunResult>, bool)
    where
        F: FnOnce() -> RunResult,
    {
        let (value, fetch) = self.results.get_or_compute(key, compute);
        match fetch {
            Fetch::Computed => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (value, false)
            }
            Fetch::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (value, true)
            }
            Fetch::Joined => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.joins.fetch_add(1, Ordering::Relaxed);
                (value, true)
            }
        }
    }

    /// One canonical member's unit at seed index `seed`, from the store
    /// or computed here in one pass — generate the operands, encode each
    /// once, fold the feature chunk from the planes (seed 0 only),
    /// simulate the activity from the planes, drop everything — and
    /// published for every later reader. Concurrent callers (twin
    /// requests, or a single and a group sharing the member) dedup
    /// exactly like result entries: one computation, everyone else joins.
    /// `executing` marks a call from the run that consumes the unit (see
    /// [`SeedUnit::claim`]). Returns the unit and whether this call
    /// computed it.
    pub fn unit(
        &self,
        req: &RunRequest,
        (member, ordinal): (GemmDims, u64),
        seed: u64,
        executing: bool,
    ) -> (Arc<SeedUnit>, bool) {
        let key = unit_key(member_request_key(req, member, ordinal), seed);
        let (unit, fetch) = self.units.get_or_compute(key, || {
            let (a, b) = member_seed_operands(req, member, ordinal, seed);
            let (ea, eb) = (
                EncodedMatrix::encode(&a, req.dtype),
                EncodedMatrix::encode(&b, req.dtype),
            );
            let words = (a.len() + b.len()) as u64;
            let chunk = (seed == 0).then(|| {
                let mut acc = FeatureAccumulator::new(req.dtype);
                acc.add_encoded(&ea);
                acc.add_encoded(&eb);
                self.feature_bytes
                    .fetch_add(words * req.dtype.bytes() as u64, Ordering::Relaxed);
                acc
            });
            let activity = simulate_member_activity_encoded(req, member, &a, &b, &ea, &eb);
            drop((a, b, ea, eb));
            self.operand_bytes
                .fetch_add(words * std::mem::size_of::<f32>() as u64, Ordering::Relaxed);
            self.activity_sims.fetch_add(1, Ordering::Relaxed);
            SeedUnit::new(activity, chunk, executing)
        });
        (unit, matches!(fetch, Fetch::Computed))
    }

    /// Count one executed member: a member hit when every unit it read was
    /// owned by an earlier run, a residue job otherwise.
    pub fn record_member(&self, cached: bool) {
        let counter = if cached {
            &self.member_hits
        } else {
            &self.member_residues
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of *ready* result entries across all shards.
    pub fn len(&self) -> usize {
        self.results.ready_count(|_| true)
    }

    /// Whether the cache holds no ready result entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of *ready* member-seed units across all shards.
    pub fn unit_len(&self) -> usize {
        self.units.ready_count(|_| true)
    }

    /// Number of *ready* seed-0 units (the ones carrying a feature chunk):
    /// the distinct member streams probed so far.
    pub fn probe_len(&self) -> usize {
        self.units.ready_count(|u| u.chunk.is_some())
    }

    /// Calls served from cache (including in-flight joins).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Calls that ran the computation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits that waited on an in-flight computation instead of recomputing.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// Executed members answered entirely from units earlier runs owned.
    pub fn member_hits(&self) -> u64 {
        self.member_hits.load(Ordering::Relaxed)
    }

    /// Executed members that owned at least one unit (residue jobs).
    pub fn member_residues(&self) -> u64 {
        self.member_residues.load(Ordering::Relaxed)
    }

    /// Bytes of operand matrices generated (f32 storage), over every unit
    /// computed.
    pub fn operand_bytes(&self) -> u64 {
        self.operand_bytes.load(Ordering::Relaxed)
    }

    /// Bytes of encoded operand words folded into feature chunks (dtype
    /// width per element), over every seed-0 unit computed.
    pub fn feature_bytes(&self) -> u64 {
        self.feature_bytes.load(Ordering::Relaxed)
    }

    /// Activity simulations run: one per unit computed.
    pub fn activity_sims(&self) -> u64 {
        self.activity_sims.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use wm_core::{PowerLab, RunRequest};
    use wm_gpu::spec::a100_pcie;
    use wm_kernels::Sampling;
    use wm_numerics::DType;
    use wm_patterns::{PatternKind, PatternSpec};

    fn quick_request() -> RunRequest {
        RunRequest::new(DType::Int8, 64, PatternSpec::new(PatternKind::Zeros))
            .with_seeds(1)
            .with_sampling(Sampling::Lattice { rows: 4, cols: 4 })
    }

    fn quick_result() -> RunResult {
        PowerLab::new(a100_pcie()).run(&quick_request())
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_allocation() {
        let cache = MemoCache::new(16);
        let computed = AtomicUsize::new(0);
        let make = || {
            computed.fetch_add(1, Ordering::Relaxed);
            quick_result()
        };
        let (a, hit_a) = cache.get_or_compute(42, make);
        let (b, hit_b) = cache.get_or_compute(42, || {
            computed.fetch_add(1, Ordering::Relaxed);
            quick_result()
        });
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the cached allocation");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = MemoCache::new(4);
        let (_, h1) = cache.get_or_compute(1, quick_result);
        let (_, h2) = cache.get_or_compute(2, quick_result);
        assert!(!h1 && !h2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let cache = Arc::new(MemoCache::new(8));
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                let (v, _) = cache.get_or_compute(7, || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    // Widen the race window so joiners actually wait.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    quick_result()
                });
                v.power.mean
            }));
        }
        let means: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(computed.load(Ordering::Relaxed), 1, "dedup failed");
        assert!(means.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn unit_store_is_separate_from_the_result_store() {
        let cache = MemoCache::new(8);
        let req = quick_request();
        let walk = (req.dims(), 0);
        let (a, computed_a) = cache.unit(&req, walk, 0, false);
        let (b, computed_b) = cache.unit(&req, walk, 0, true);
        assert!(computed_a, "first unit lookup computes");
        assert!(!computed_b, "second unit lookup reuses the unit");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.chunk.is_some(), "seed 0 folds the feature chunk");
        let (c, _) = cache.unit(&req.clone().with_seeds(2), walk, 1, true);
        assert!(c.chunk.is_none(), "later seeds carry no chunk");
        assert_eq!(cache.unit_len(), 2);
        assert_eq!(cache.probe_len(), 1, "only seed-0 units are probes");
        assert_eq!(cache.activity_sims(), 2);
        assert_eq!(cache.operand_bytes(), 2 * 2 * 64 * 64 * 4);
        // The first claim owns the unit; later claims reuse it. A unit
        // computed by its executing run is born claimed.
        assert!(!a.claim());
        assert!(b.claim());
        assert!(c.claim());
        cache.record_member(false);
        cache.record_member(true);
        assert_eq!((cache.member_hits(), cache.member_residues()), (1, 1));
        // The unit store never touches the result-store counters.
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_unit_lookups_compute_once() {
        let cache = MemoCache::new(8);
        let req = quick_request();
        let macs: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        cache
                            .unit(&req, (req.dims(), 0), 0, false)
                            .0
                            .activity
                            .total_macs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(macs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.activity_sims(), 1, "unit dedup failed");
        assert_eq!(cache.unit_len(), 1);
    }

    #[test]
    fn wait_ready_joins_an_in_flight_computation() {
        let cache = Arc::new(MemoCache::new(4));
        assert!(cache.wait_ready(9).is_none(), "absent key returns at once");
        assert_eq!(cache.hits(), 0, "an absent wait counts nothing");
        let owner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(9, || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    quick_result()
                })
            })
        };
        // Spin until the owner has published its Pending slot, then wait
        // it out.
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || loop {
                if let Some(v) = cache.wait_ready(9) {
                    return v.power.mean;
                }
                std::thread::yield_now();
            })
        };
        let (owned, owner_hit) = owner.join().unwrap();
        let waited_mean = waiter.join().unwrap();
        assert!(!owner_hit);
        assert_eq!(owned.power.mean, waited_mean);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1, "the waiter counts as one hit");
    }
}
