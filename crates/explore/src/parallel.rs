//! Pipelined parallel BFS over a sharded frontier with a disk-spill tier.
//!
//! With [`ExploreOptions::jobs`] > 1 (or a spill directory configured) the
//! explorer hash-partitions canonical states across shards
//! (`shard = hash(key) % shards`, each shard owning its own [`StateArena`]
//! seen-set and edge store) and walks the state space one BFS level at a
//! time on a **persistent worker pool**: one `std::thread::scope` per run,
//! not per level. The coordinator participates as worker 0 and hands each
//! phase to the helpers through an epoch counter + condvar pair, so a level
//! costs two lock-handoffs instead of two thread-spawn storms.
//!
//! A level is a sequence of *blocks* (one per shard of the previous level),
//! each carrying its states' global ids **and packed keys**, so expansion
//! never touches the arenas:
//!
//! 1. **Expand sweep** — every block's slots are dealt round-robin onto
//!    per-worker steal queues and expanded with *batched* work-stealing
//!    (grab up to [`STEAL_BATCH`] slots per lock; steal half the longest
//!    victim's queue from the back). Each successor — canonicalized,
//!    hashed, ample-reduced when POR is on — is appended to the expanding
//!    worker's **per-shard bucket**, tagged with its `(slot, child)`
//!    coordinates. Deadlocked slots are recorded with their keys.
//! 2. **Resolve** — after the whole level expanded (and *before* anything
//!    is interned, so stored-state counts are schedule-independent), the
//!    deadlock with the lexicographically least canonical key wins and its
//!    parent chain is folded back into a concrete counterexample. Level
//!    synchronization makes the trace depth-minimal, exactly as in the
//!    sequential search.
//! 3. **Intern sweep** — shards are claimed off an atomic cursor; the one
//!    worker owning shard `s` merges only the buckets tagged `s` (an
//!    `O(successors / shards)` read, not a scan of every result), puts
//!    them in `(slot, child)` order — which reproduces the sequential visit
//!    order exactly — and interns, appending fresh states (ids *and*
//!    keys) to the shard's slice of the next level. The order comes from a
//!    stable counting sort on the slot alone, which is exact: one worker
//!    pops each slot and pushes that slot's children into its buckets in
//!    child order, and the merge (or spilled chunk) concatenates whole
//!    buckets, so the entries of one slot already stand in child order.
//!
//! Verdicts, minimal counterexample depths, and stored-state counts are
//! invariant under the job count, the shard count, and spilling: the
//! per-level successor multiset does not depend on how it was partitioned,
//! and the `(slot, child)` intern order fixes every tie deterministically.
//!
//! When [`ExploreOptions::mem_limit`] is exceeded and a
//! [`spill_dir`](ExploreOptions::spill_dir) is configured (see
//! [`crate::spill`]), cold data moves to disk instead of stopping the
//! search: full arena key segments spill per shard, harvested expansion
//! buckets spill per block, and sealed frontier blocks spill their keys,
//! each streaming back exactly where it is consumed.
//!
//! Global state handles pack `(local, shard)` as `local * shards + shard`,
//! which keeps parent pointers `u32`-sized across shards.

use std::ops::{ControlFlow, Range};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, RwLock};

use genoc_core::error::{Error, Result};
use genoc_core::moves::{Move, MoveKind};
use genoc_core::network::Network;
use genoc_core::routing::RoutingFunction;
use genoc_core::spec::MessageSpec;
use genoc_core::steal::StealQueues;
use genoc_core::step::HeadAdmission;
use genoc_core::MsgId;

use crate::expand::Expander;
use crate::explorer::{
    concretize_trace, BoundReason, Edge, Exploration, ExploreOptions, StateStatus, Verdict,
    MAX_PARALLELISM,
};
use crate::spill::{SpillDir, SpillFile};
use crate::state::{StateArena, Workload};

/// Slots grabbed (or stolen) per steal-queue lock acquisition.
const STEAL_BATCH: usize = 64;

/// One frontier shard: the seen-set, parent edges, and the fresh states the
/// current intern sweep appended (drained into the next level's block).
struct Shard {
    arena: StateArena,
    edges: Vec<Option<Edge>>,
    fresh_gids: Vec<u32>,
    fresh_keys: Vec<u16>,
    /// The shard's arena spill file, created on first spill.
    spill: Option<SpillFile>,
}

/// One successor recorded during expansion, destined for the shard its
/// hash selects. `(slot, child)` are its coordinates in the sequential
/// visit order of the level: slot = position of the parent in the level,
/// child = index within the parent's (ample-reduced) move list.
struct SuccEntry {
    slot: u32,
    child: u32,
    /// Global id of the parent state.
    parent: u32,
    mv: Move,
    hash: u64,
    perm: Option<Box<[usize]>>,
}

/// A run of successor entries plus their packed keys (entry `i`'s key at
/// `i × stride`).
#[derive(Default)]
struct Bucket {
    entries: Vec<SuccEntry>,
    keys: Vec<u16>,
}

/// A deadlocked state of the current level (evacuated terminals are not
/// recorded — they contribute nothing to any observable).
struct Terminal {
    gid: u32,
    key: Box<[u16]>,
}

/// Per-worker mutable state, harvested by the coordinator between phases.
struct WorkerLocal {
    /// One bucket per shard, filled during the expand phase.
    buckets: Vec<Bucket>,
    deadlocks: Vec<Terminal>,
    enabled: u64,
    transitions: u64,
}

fn new_buckets(shard_count: usize) -> Vec<Bucket> {
    (0..shard_count).map(|_| Bucket::default()).collect()
}

/// Where a frontier block's packed keys live.
enum KeyStore {
    Ram(Vec<u16>),
    Spilled { offset: u64 },
}

/// One block of the current level: global ids (always resident) plus keys.
struct LevelBlock {
    gids: Vec<u32>,
    keys: KeyStore,
}

/// Harvested expansion output of one block.
struct BlockOut {
    /// Level slots of the block's states (`base..base + states`), the key
    /// range of the intern sweep's counting sort.
    slots: Range<u32>,
    buckets: BlockBuckets,
}

/// Where a block's buckets live.
enum BlockBuckets {
    /// `[worker][shard]` buckets; each consumed by exactly one intern
    /// worker (hence the per-bucket mutex).
    Ram(Vec<Vec<Mutex<Bucket>>>),
    /// Per-shard `(offset, bytes, entries)` chunks in the bucket spill
    /// file.
    Spilled { shards: Vec<(u64, u32, u32)> },
}

/// What the pool is currently doing; owned data for the active phase.
enum PhaseData {
    Idle,
    Expand {
        /// Level slot of the block's first state.
        base: u32,
        gids: Vec<u32>,
        keys: Vec<u16>,
    },
    Intern {
        blocks: Vec<BlockOut>,
    },
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    Expand,
    Intern,
}

/// Epoch handshake between the coordinator and the helper workers.
struct JobState {
    epoch: u64,
    kind: PhaseKind,
    /// Helpers still working on the current epoch.
    active: usize,
    shutdown: bool,
}

/// Everything the pool shares: problem data, the phase handshake, shards,
/// and per-worker state.
struct Pool<'a> {
    net: &'a dyn Network,
    workload: &'a Workload,
    perms: &'a [Vec<usize>],
    admission: &'a dyn HeadAdmission,
    por: bool,
    stride: usize,
    shard_count: usize,
    job: Mutex<JobState>,
    ready: Condvar,
    done: Condvar,
    abort: AtomicBool,
    error: Mutex<Option<Error>>,
    phase: RwLock<PhaseData>,
    shards: Vec<Mutex<Shard>>,
    workers: Vec<Mutex<WorkerLocal>>,
    queues: StealQueues,
    /// Shard cursor for the intern phase.
    cursor: AtomicUsize,
    /// Path of the bucket spill file, for intern-side read handles.
    bucket_path: Option<PathBuf>,
}

/// Per-worker scratch (reused across all levels of the run).
struct WorkerScratch<'a> {
    expander: Expander<'a>,
    batch: Vec<u32>,
    /// Merge target for the intern sweep's per-(block, shard) gather.
    merge: Bucket,
    /// Intern order over `merge.entries`.
    order: Vec<u32>,
    /// Per-slot counts of the counting sort that builds `order`.
    counts: Vec<u32>,
    io: Vec<u8>,
    /// Lazily opened read handle on the bucket spill file.
    bucket_read: Option<SpillFile>,
}

impl<'a> WorkerScratch<'a> {
    fn new(pool: &Pool<'a>) -> WorkerScratch<'a> {
        WorkerScratch {
            expander: Expander::new(
                pool.net,
                pool.workload,
                pool.perms,
                pool.admission,
                pool.por,
            ),
            batch: Vec::with_capacity(STEAL_BATCH),
            merge: Bucket::default(),
            order: Vec::new(),
            counts: Vec::new(),
            io: Vec::new(),
            bucket_read: None,
        }
    }
}

/// The coordinator's disk-spill handles (see [`crate::spill`]).
struct SpillState {
    dir: SpillDir,
    buckets: Option<SpillFile>,
    frontier: Option<SpillFile>,
}

impl SpillState {
    fn buckets_file(&mut self) -> Result<&mut SpillFile> {
        if self.buckets.is_none() {
            self.buckets = Some(self.dir.file("buckets.bin")?);
        }
        Ok(self.buckets.as_mut().expect("just created"))
    }

    fn frontier_file(&mut self) -> Result<&mut SpillFile> {
        if self.frontier.is_none() {
            self.frontier = Some(self.dir.file("frontier.bin")?);
        }
        Ok(self.frontier.as_mut().expect("just created"))
    }
}

/// The parallel counterpart of the sequential search in `explorer.rs`:
/// same verdicts, same minimal counterexample depths, state counts
/// invariant under `jobs`, `shards`, and spilling. More than
/// [`MAX_PARALLELISM`] jobs or shards is an [`Error::ParallelismBound`],
/// refused before the pool is built.
pub(crate) fn explore_parallel(
    net: &dyn Network,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    admission: &dyn HeadAdmission,
    options: &ExploreOptions,
    workload: &Workload,
    perms: &[Vec<usize>],
) -> Result<Exploration> {
    let jobs = options.jobs.max(1);
    let shard_count = if options.shards == 0 {
        jobs
    } else {
        options.shards
    };
    if jobs.max(shard_count) > MAX_PARALLELISM {
        return Err(Error::ParallelismBound {
            jobs,
            shards: options.shards,
            max: MAX_PARALLELISM,
        });
    }
    let root_key = workload.initial_key();
    let stride = root_key.len();

    let mut spill = match &options.spill_dir {
        Some(root) => Some(SpillState {
            dir: SpillDir::create(root)?,
            buckets: None,
            frontier: None,
        }),
        None => None,
    };

    let mut shards: Vec<Mutex<Shard>> = (0..shard_count)
        .map(|_| {
            Mutex::new(Shard {
                arena: StateArena::new(stride),
                edges: Vec::new(),
                fresh_gids: Vec::new(),
                fresh_keys: Vec::new(),
                spill: None,
            })
        })
        .collect();
    let root_hash = StateArena::hash_key(&root_key);
    let root_shard = (root_hash % shard_count as u64) as usize;
    {
        let root = shards[root_shard].get_mut().expect("shard poisoned");
        root.arena.intern_hashed(root_hash, &root_key);
        root.edges.push(None);
    }
    let level = vec![LevelBlock {
        gids: vec![global_id(0, root_shard, shard_count)],
        keys: KeyStore::Ram(root_key.into_vec()),
    }];

    let pool = Pool {
        net,
        workload,
        perms,
        admission,
        por: options.por,
        stride,
        shard_count,
        job: Mutex::new(JobState {
            epoch: 0,
            kind: PhaseKind::Expand,
            active: 0,
            shutdown: false,
        }),
        ready: Condvar::new(),
        done: Condvar::new(),
        abort: AtomicBool::new(false),
        error: Mutex::new(None),
        phase: RwLock::new(PhaseData::Idle),
        shards,
        workers: (0..jobs)
            .map(|_| {
                Mutex::new(WorkerLocal {
                    buckets: new_buckets(shard_count),
                    deadlocks: Vec::new(),
                    enabled: 0,
                    transitions: 0,
                })
            })
            .collect(),
        queues: StealQueues::new(jobs),
        cursor: AtomicUsize::new(0),
        bucket_path: spill.as_ref().map(|sp| sp.dir.path().join("buckets.bin")),
    };

    std::thread::scope(|scope| {
        for w in 1..jobs {
            let pool = &pool;
            scope.spawn(move || worker_loop(pool, w));
        }
        let result = coordinate(&pool, routing, specs, options, level, &mut spill);
        let mut job = pool.job.lock().expect("pool state poisoned");
        job.shutdown = true;
        drop(job);
        pool.ready.notify_all();
        result
    })
}

/// The coordinator: drives the level loop, participates in every phase as
/// worker 0, harvests per-worker output between phases, and manages the
/// disk-spill tier.
fn coordinate(
    pool: &Pool<'_>,
    routing: &dyn RoutingFunction,
    specs: &[MessageSpec],
    options: &ExploreOptions,
    mut level: Vec<LevelBlock>,
    spill: &mut Option<SpillState>,
) -> Result<Exploration> {
    let group_size = pool.perms.len();
    let mut scratch = WorkerScratch::new(pool);
    let mut transitions = 0u64;
    let mut enabled_moves = 0u64;
    let mut depth = 0usize;
    let mut peak_bytes = 0usize;

    let (verdict, bound) = loop {
        // ---- Expand sweep: every block, whole level, nothing interned ----
        let mut outs: Vec<BlockOut> = Vec::with_capacity(level.len());
        let mut deadlocks: Vec<Terminal> = Vec::new();
        let mut base = 0u32;
        for block in std::mem::take(&mut level) {
            let LevelBlock { gids, keys } = block;
            let states = gids.len();
            let keys = load_keys(keys, states * pool.stride, spill)?;
            pool.queues.fill(states as u32);
            *pool.phase.write().expect("phase data poisoned") =
                PhaseData::Expand { base, gids, keys };
            run_phase(pool, PhaseKind::Expand, &mut scratch);
            *pool.phase.write().expect("phase data poisoned") = PhaseData::Idle;
            check_error(pool)?;
            let mut per_worker: Vec<Vec<Mutex<Bucket>>> = Vec::with_capacity(pool.workers.len());
            for worker in &pool.workers {
                let mut worker = worker.lock().expect("worker state poisoned");
                let buckets = std::mem::replace(&mut worker.buckets, new_buckets(pool.shard_count));
                per_worker.push(buckets.into_iter().map(Mutex::new).collect());
                deadlocks.append(&mut worker.deadlocks);
                enabled_moves += std::mem::take(&mut worker.enabled);
                transitions += std::mem::take(&mut worker.transitions);
            }
            let end = base + states as u32;
            outs.push(BlockOut {
                slots: base..end,
                buckets: BlockBuckets::Ram(per_worker),
            });
            base = end;
            let resident = resident_bytes(pool) + outs_bytes(&outs);
            peak_bytes = peak_bytes.max(resident);
            if let (Some(limit), Some(sp)) = (options.mem_limit, spill.as_mut()) {
                if resident >= limit {
                    spill_outs(pool, &mut outs, sp)?;
                }
            }
        }

        // ---- Resolve: the whole level is expanded, nothing of it interned,
        // so a deadlock here leaves stored counts = levels 0..=depth exactly
        // as the level-synchronized search always has.
        if let Some(best) = deadlocks.into_iter().min_by(|a, b| a.key.cmp(&b.key)) {
            let chain = parent_chain(pool, best.gid);
            let chain_refs: Vec<(Move, Option<&[usize]>)> =
                chain.iter().map(|(mv, p)| (*mv, p.as_deref())).collect();
            let cex = concretize_trace(pool.net, routing, specs, pool.workload, &chain_refs)?;
            break (Verdict::Deadlock(cex), None);
        }

        // ---- Intern sweep: shards claimed off the cursor, blocks in order.
        pool.cursor.store(0, Ordering::SeqCst);
        *pool.phase.write().expect("phase data poisoned") = PhaseData::Intern { blocks: outs };
        run_phase(pool, PhaseKind::Intern, &mut scratch);
        *pool.phase.write().expect("phase data poisoned") = PhaseData::Idle;
        check_error(pool)?;

        // ---- Assemble the next level from the shards' fresh slices.
        let mut next: Vec<LevelBlock> = Vec::new();
        for shard in &pool.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            if shard.fresh_gids.is_empty() {
                continue;
            }
            next.push(LevelBlock {
                gids: std::mem::take(&mut shard.fresh_gids),
                keys: KeyStore::Ram(std::mem::take(&mut shard.fresh_keys)),
            });
        }
        if next.is_empty() {
            break (Verdict::NoReachableDeadlock, None);
        }
        depth += 1;
        let mut resident = resident_bytes(pool) + frontier_bytes(&next);
        peak_bytes = peak_bytes.max(resident);
        if count_states(pool) >= options.max_states {
            break (Verdict::BoundExceeded, Some(BoundReason::States));
        }
        if let Some(limit) = options.mem_limit {
            if resident >= limit {
                match spill.as_mut() {
                    Some(sp) => {
                        // Tier 1: cold (full) arena segments, per shard.
                        for (s, shard) in pool.shards.iter().enumerate() {
                            let mut shard = shard.lock().expect("shard poisoned");
                            if shard.spill.is_none() {
                                shard.spill = Some(sp.dir.file(&format!("arena-{s}.bin"))?);
                            }
                            let Shard { arena, spill, .. } = &mut *shard;
                            arena.spill_cold(spill.as_mut().expect("just created"))?;
                        }
                        resident = resident_bytes(pool) + frontier_bytes(&next);
                        // Tier 2: the next level's key blocks.
                        if resident >= limit {
                            spill_frontier(&mut next, sp)?;
                        }
                    }
                    None => break (Verdict::BoundExceeded, Some(BoundReason::Memory)),
                }
            }
        }
        level = next;
    };
    Ok(Exploration {
        verdict,
        states: count_states(pool),
        transitions,
        enabled_moves,
        depth,
        group_size,
        peak_bytes,
        spilled_bytes: spilled_total(pool, spill),
        bound,
        graph: None,
    })
}

/// Runs one phase to completion: bump the epoch, work as worker 0, wait
/// for the helpers.
fn run_phase(pool: &Pool<'_>, kind: PhaseKind, scratch: &mut WorkerScratch<'_>) {
    let helpers = pool.workers.len() - 1;
    {
        let mut job = pool.job.lock().expect("pool state poisoned");
        job.kind = kind;
        job.active = helpers;
        job.epoch += 1;
    }
    pool.ready.notify_all();
    do_work(pool, 0, kind, scratch);
    let mut job = pool.job.lock().expect("pool state poisoned");
    while job.active > 0 {
        job = pool.done.wait(job).expect("pool state poisoned");
    }
}

/// A helper worker: wait for an epoch, work the phase, report done; repeat
/// until shutdown.
fn worker_loop(pool: &Pool<'_>, w: usize) {
    let mut scratch = WorkerScratch::new(pool);
    let mut seen = 0u64;
    loop {
        let kind = {
            let mut job = pool.job.lock().expect("pool state poisoned");
            loop {
                if job.shutdown {
                    return;
                }
                if job.epoch != seen {
                    seen = job.epoch;
                    break job.kind;
                }
                job = pool.ready.wait(job).expect("pool state poisoned");
            }
        };
        do_work(pool, w, kind, &mut scratch);
        let mut job = pool.job.lock().expect("pool state poisoned");
        job.active -= 1;
        if job.active == 0 {
            drop(job);
            pool.done.notify_all();
        }
    }
}

fn do_work(pool: &Pool<'_>, w: usize, kind: PhaseKind, scratch: &mut WorkerScratch<'_>) {
    if pool.abort.load(Ordering::Relaxed) {
        return;
    }
    let phase = pool.phase.read().expect("phase data poisoned");
    match (kind, &*phase) {
        (PhaseKind::Expand, PhaseData::Expand { base, gids, keys }) => {
            expand_work(pool, w, *base, gids, keys, scratch);
        }
        (PhaseKind::Intern, PhaseData::Intern { blocks }) => {
            intern_work(pool, blocks, scratch);
        }
        _ => {}
    }
}

/// Records `e` as the run's error and tells every worker to wind down.
fn fail(pool: &Pool<'_>, e: Error) {
    pool.error
        .lock()
        .expect("error slot poisoned")
        .get_or_insert(e);
    pool.abort.store(true, Ordering::Relaxed);
}

fn check_error(pool: &Pool<'_>) -> Result<()> {
    if pool.abort.load(Ordering::Relaxed) {
        if let Some(e) = pool.error.lock().expect("error slot poisoned").take() {
            return Err(e);
        }
    }
    Ok(())
}

/// Expand-phase work loop: batched pop/steal, successors into the worker's
/// per-shard buckets.
fn expand_work(
    pool: &Pool<'_>,
    w: usize,
    base: u32,
    gids: &[u32],
    keys: &[u16],
    scratch: &mut WorkerScratch<'_>,
) {
    let mut local = pool.workers[w].lock().expect("worker state poisoned");
    let mut batch = std::mem::take(&mut scratch.batch);
    while pool.queues.pop_batch(w, STEAL_BATCH, &mut batch) {
        if pool.abort.load(Ordering::Relaxed) {
            break;
        }
        for &i in &batch {
            let i = i as usize;
            let key = &keys[i * pool.stride..(i + 1) * pool.stride];
            let expander = &mut scratch.expander;
            if let Err(e) = expand_one(pool, gids[i], base + i as u32, key, expander, &mut local) {
                fail(pool, e);
                break;
            }
        }
    }
    scratch.batch = batch;
}

/// Expands one canonical state and buckets every successor — canonical key,
/// hash, `(slot, child)` coordinates — by its owning shard.
fn expand_one(
    pool: &Pool<'_>,
    gid: u32,
    slot: u32,
    key: &[u16],
    expander: &mut Expander<'_>,
    local: &mut WorkerLocal,
) -> Result<()> {
    let mut child = 0u32;
    let status = expander.expand(key, |mv, child_key, perm| {
        let hash = StateArena::hash_key(child_key);
        let bucket = &mut local.buckets[(hash % pool.shard_count as u64) as usize];
        bucket.entries.push(SuccEntry {
            slot,
            child,
            parent: gid,
            mv,
            hash,
            perm: perm.map(Box::from),
        });
        bucket.keys.extend_from_slice(child_key);
        child += 1;
        ControlFlow::Continue(())
    })?;
    if status == StateStatus::Deadlock {
        local.deadlocks.push(Terminal {
            gid,
            key: key.into(),
        });
    }
    local.enabled += expander.enabled() as u64;
    local.transitions += u64::from(child);
    Ok(())
}

/// Intern-phase work loop: claim shards off the cursor; for each, merge and
/// intern every block's bucket for that shard in block order.
fn intern_work(pool: &Pool<'_>, blocks: &[BlockOut], scratch: &mut WorkerScratch<'_>) {
    loop {
        let s = pool.cursor.fetch_add(1, Ordering::Relaxed);
        if s >= pool.shard_count || pool.abort.load(Ordering::Relaxed) {
            return;
        }
        let mut shard = pool.shards[s].lock().expect("shard poisoned");
        if let Err(e) = intern_shard(pool, &mut shard, s, blocks, scratch) {
            fail(pool, e);
            return;
        }
    }
}

/// Interns every successor of the level owned by shard `s`. Blocks are
/// processed in level order and each block's entries in `(slot, child)`
/// order, so interning follows the sequential visit order exactly —
/// parent-edge winners, fresh ids, and the next level's order are all
/// schedule-independent.
///
/// The order is a stable counting sort on the slot alone
/// ([`counting_order`]). That is exact because one worker pops each slot
/// and pushes its children into its buckets in child order, and the merge
/// here (like the spilled chunk) concatenates whole buckets: the entries
/// of one slot reach the sort already in child order.
fn intern_shard(
    pool: &Pool<'_>,
    shard: &mut Shard,
    s: usize,
    blocks: &[BlockOut],
    scratch: &mut WorkerScratch<'_>,
) -> Result<()> {
    let stride = pool.stride;
    let WorkerScratch {
        merge,
        order,
        counts,
        io,
        bucket_read,
        ..
    } = scratch;
    for block in blocks {
        merge.entries.clear();
        merge.keys.clear();
        match &block.buckets {
            BlockBuckets::Ram(workers) => {
                for buckets in workers {
                    let mut bucket = buckets[s].lock().expect("bucket poisoned");
                    merge.entries.append(&mut bucket.entries);
                    merge.keys.append(&mut bucket.keys);
                }
            }
            BlockBuckets::Spilled { shards } => {
                let (offset, bytes, count) = shards[s];
                if count == 0 {
                    continue;
                }
                if bucket_read.is_none() {
                    let path = pool
                        .bucket_path
                        .as_ref()
                        .expect("spilled buckets without a spill path");
                    *bucket_read = Some(SpillFile::open_read(path)?);
                }
                let reader = bucket_read.as_mut().expect("just opened");
                reader.read_bytes(offset, bytes as usize, io)?;
                decode_chunk(io, count as usize, stride, merge)?;
            }
        }
        if merge.entries.is_empty() {
            continue;
        }
        counting_order(&merge.entries, block.slots.clone(), counts, order);
        let Shard {
            arena,
            edges,
            fresh_gids,
            fresh_keys,
            spill,
        } = shard;
        for &i in order.iter() {
            let i = i as usize;
            let key = &merge.keys[i * stride..(i + 1) * stride];
            let entry = &mut merge.entries[i];
            let (local, fresh) = arena.intern_spilled(entry.hash, key, spill.as_mut())?;
            if fresh {
                edges.push(Some(Edge {
                    parent: entry.parent,
                    mv: entry.mv,
                    perm: entry.perm.take(),
                    depth: 0,
                }));
                fresh_gids.push(global_id(local, s, pool.shard_count));
                fresh_keys.extend_from_slice(key);
            }
        }
    }
    Ok(())
}

/// Fills `order` with the indices of `entries`, whose slots all lie in
/// `slots`, by a stable counting sort on the slot (`counts` is a reused buffer).
/// Stability keeps each slot's entries in the order they were pushed, which
/// is child order (see [`intern_shard`]), so `order` is the `(slot, child)`
/// order; debug builds check it against that comparison sort.
fn counting_order(
    entries: &[SuccEntry],
    slots: Range<u32>,
    counts: &mut Vec<u32>,
    order: &mut Vec<u32>,
) {
    counts.clear();
    counts.resize((slots.end - slots.start) as usize + 1, 0);
    for e in entries {
        counts[(e.slot - slots.start) as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    order.clear();
    order.resize(entries.len(), 0);
    for (i, e) in entries.iter().enumerate() {
        let at = &mut counts[(e.slot - slots.start) as usize];
        order[*at as usize] = i as u32;
        *at += 1;
    }
    debug_assert!(
        {
            let mut sorted: Vec<u32> = (0..entries.len() as u32).collect();
            sorted.sort_by_key(|&i| (entries[i as usize].slot, entries[i as usize].child));
            *order == sorted
        },
        "counting order differs from the (slot, child) sort"
    );
}

fn global_id(local: u32, shard: usize, shard_count: usize) -> u32 {
    u32::try_from(local as usize * shard_count + shard).expect("state count exceeds u32")
}

fn split_id(gid: u32, shard_count: usize) -> (u32, usize) {
    (gid / shard_count as u32, (gid as usize) % shard_count)
}

/// Walks the parent edges from `gid` to the root, cloning the (move, perm)
/// pairs out of the shard locks.
fn parent_chain(pool: &Pool<'_>, gid: u32) -> Vec<(Move, Option<Box<[usize]>>)> {
    let mut chain = Vec::new();
    let mut at = gid;
    loop {
        let (local, shard) = split_id(at, pool.shard_count);
        let shard = pool.shards[shard].lock().expect("shard poisoned");
        let Some(edge) = shard.edges[local as usize].as_ref() else {
            break;
        };
        chain.push((edge.mv, edge.perm.clone()));
        at = edge.parent;
    }
    chain.reverse();
    chain
}

fn count_states(pool: &Pool<'_>) -> usize {
    pool.shards
        .iter()
        .map(|s| s.lock().expect("shard poisoned").arena.len())
        .sum()
}

/// Resident bytes of the permanent state store (arenas, edges, fresh
/// slices) — what `--mem-limit` bounds together with the transient
/// [`outs_bytes`]/[`frontier_bytes`].
fn resident_bytes(pool: &Pool<'_>) -> usize {
    pool.shards
        .iter()
        .map(|s| {
            let s = s.lock().expect("shard poisoned");
            s.arena.bytes()
                + s.edges.len() * std::mem::size_of::<Option<Edge>>()
                + s.fresh_gids.len() * std::mem::size_of::<u32>()
                + s.fresh_keys.len() * std::mem::size_of::<u16>()
        })
        .sum()
}

fn outs_bytes(outs: &[BlockOut]) -> usize {
    outs.iter()
        .map(|o| match &o.buckets {
            BlockBuckets::Ram(workers) => workers
                .iter()
                .flat_map(|buckets| buckets.iter())
                .map(|b| {
                    let b = b.lock().expect("bucket poisoned");
                    b.entries.len() * std::mem::size_of::<SuccEntry>()
                        + b.keys.len() * std::mem::size_of::<u16>()
                })
                .sum(),
            BlockBuckets::Spilled { .. } => 0,
        })
        .sum()
}

fn frontier_bytes(blocks: &[LevelBlock]) -> usize {
    blocks
        .iter()
        .map(|b| {
            b.gids.len() * std::mem::size_of::<u32>()
                + match &b.keys {
                    KeyStore::Ram(keys) => keys.len() * std::mem::size_of::<u16>(),
                    KeyStore::Spilled { .. } => 0,
                }
        })
        .sum()
}

fn spilled_total(pool: &Pool<'_>, spill: &Option<SpillState>) -> u64 {
    let arenas: u64 = pool
        .shards
        .iter()
        .map(|s| s.lock().expect("shard poisoned").arena.spilled_bytes())
        .sum();
    arenas
        + spill.as_ref().map_or(0, |sp| {
            sp.buckets.as_ref().map_or(0, SpillFile::len)
                + sp.frontier.as_ref().map_or(0, SpillFile::len)
        })
}

/// Materializes a block's keys, streaming them back from the frontier
/// spill file if the block was spilled.
fn load_keys(store: KeyStore, len: usize, spill: &mut Option<SpillState>) -> Result<Vec<u16>> {
    match store {
        KeyStore::Ram(keys) => Ok(keys),
        KeyStore::Spilled { offset } => {
            let sp = spill
                .as_mut()
                .expect("spilled frontier without spill state");
            let file = sp.frontier_file()?;
            let mut keys = Vec::new();
            file.read_u16s(offset, len, &mut keys)?;
            Ok(keys)
        }
    }
}

/// Spills every still-resident harvested block: per shard, the workers'
/// buckets are encoded one after the other, in worker order, into one
/// chunk. A chunk has no header, so that is byte for byte the chunk of
/// their merge, and no merged bucket is built.
fn spill_outs(pool: &Pool<'_>, outs: &mut [BlockOut], sp: &mut SpillState) -> Result<()> {
    let stride = pool.stride;
    let file = sp.buckets_file()?;
    let mut buf = Vec::new();
    for out in outs.iter_mut() {
        let BlockBuckets::Ram(workers) = &mut out.buckets else {
            continue;
        };
        let mut shards = Vec::with_capacity(pool.shard_count);
        for s in 0..pool.shard_count {
            buf.clear();
            let mut count = 0u32;
            for buckets in workers.iter_mut() {
                let bucket = std::mem::take(buckets[s].get_mut().expect("bucket poisoned"));
                encode_bucket(&bucket, stride, &mut buf);
                count += bucket.entries.len() as u32;
            }
            let offset = file.append_bytes(&buf)?;
            shards.push((
                offset,
                u32::try_from(buf.len()).expect("bucket chunk exceeds u32 bytes"),
                count,
            ));
        }
        out.buckets = BlockBuckets::Spilled { shards };
    }
    Ok(())
}

/// Spills the keys of every still-resident next-level block.
fn spill_frontier(blocks: &mut [LevelBlock], sp: &mut SpillState) -> Result<()> {
    let file = sp.frontier_file()?;
    for block in blocks.iter_mut() {
        if let KeyStore::Ram(keys) = &block.keys {
            if keys.is_empty() {
                continue;
            }
            let offset = file.append_u16s(keys)?;
            block.keys = KeyStore::Spilled { offset };
        }
    }
    Ok(())
}

// ---- Bucket chunk codec (little-endian, no framing) ----
//
// Per entry: a fixed 31-byte head — slot u32 · child u32 · parent u32 ·
// msg u32 · flit u32 · kind u8 · hash u64 · perm_len u16 (u16::MAX =
// identity) — then perm_len perm u16s and the key (stride u16s). A chunk
// has no header, so encoding buckets one after the other gives exactly the
// encoding of their merge: `spill_outs` relies on that.

/// Bytes of an entry's fixed head.
const HEAD: usize = 31;

fn encode_bucket(bucket: &Bucket, stride: usize, buf: &mut Vec<u8>) {
    buf.reserve(bucket.entries.len() * (HEAD + 2 * stride));
    for (i, e) in bucket.entries.iter().enumerate() {
        let perm_len = match &e.perm {
            None => u16::MAX,
            Some(perm) => {
                debug_assert!(perm.len() < usize::from(u16::MAX), "permutation too long");
                perm.len() as u16
            }
        };
        let mut head = [0u8; HEAD];
        head[0..4].copy_from_slice(&e.slot.to_le_bytes());
        head[4..8].copy_from_slice(&e.child.to_le_bytes());
        head[8..12].copy_from_slice(&e.parent.to_le_bytes());
        head[12..16].copy_from_slice(&(e.mv.msg.index() as u32).to_le_bytes());
        head[16..20].copy_from_slice(&(e.mv.flit as u32).to_le_bytes());
        head[20] = match e.mv.kind {
            MoveKind::Enter => 0,
            MoveKind::Advance => 1,
            MoveKind::Eject => 2,
        };
        head[21..29].copy_from_slice(&e.hash.to_le_bytes());
        head[29..31].copy_from_slice(&perm_len.to_le_bytes());
        buf.extend_from_slice(&head);
        if let Some(perm) = &e.perm {
            for &p in perm.iter() {
                buf.extend_from_slice(&(p as u16).to_le_bytes());
            }
        }
        let at = buf.len();
        buf.resize(at + 2 * stride, 0);
        let key = &bucket.keys[i * stride..(i + 1) * stride];
        for (out, &k) in buf[at..].chunks_exact_mut(2).zip(key) {
            out.copy_from_slice(&k.to_le_bytes());
        }
    }
}

fn le_u32(head: &[u8; HEAD], at: usize) -> u32 {
    u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]])
}

fn le_u16s(raw: &[u8]) -> impl Iterator<Item = u16> + '_ {
    raw.chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
}

/// Appends a chunk's `count` entries to `out`. Each entry's head is taken
/// after one bounds check; a truncated chunk or a bad move kind is an
/// [`Error::Spill`].
fn decode_chunk(bytes: &[u8], count: usize, stride: usize, out: &mut Bucket) -> Result<()> {
    let truncated = || Error::Spill("bucket chunk truncated".into());
    let mut rest = bytes;
    for _ in 0..count {
        let (head, tail) = rest.split_first_chunk::<HEAD>().ok_or_else(truncated)?;
        let kind = match head[20] {
            0 => MoveKind::Enter,
            1 => MoveKind::Advance,
            2 => MoveKind::Eject,
            k => return Err(Error::Spill(format!("bad move kind {k} in bucket chunk"))),
        };
        let hash = u64::from_le_bytes(head[21..29].try_into().expect("sized"));
        let perm_len = u16::from_le_bytes([head[29], head[30]]);
        let (perm, tail) = if perm_len == u16::MAX {
            (None, tail)
        } else {
            let (raw, tail) = tail
                .split_at_checked(usize::from(perm_len) * 2)
                .ok_or_else(truncated)?;
            (Some(le_u16s(raw).map(usize::from).collect()), tail)
        };
        let (key_raw, tail) = tail.split_at_checked(stride * 2).ok_or_else(truncated)?;
        rest = tail;
        out.keys.extend(le_u16s(key_raw));
        out.entries.push(SuccEntry {
            slot: le_u32(head, 0),
            child: le_u32(head, 4),
            parent: le_u32(head, 8),
            mv: Move {
                msg: MsgId::from_index(le_u32(head, 12) as usize),
                flit: le_u32(head, 16) as usize,
                kind,
            },
            hash,
            perm,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        (slot, child, parent): (u32, u32, u32),
        (msg, flit, kind): (u32, u32, MoveKind),
        hash: u64,
        perm: Option<&[usize]>,
    ) -> SuccEntry {
        SuccEntry {
            slot,
            child,
            parent,
            mv: Move {
                msg: MsgId::from_index(msg as usize),
                flit: flit as usize,
                kind,
            },
            hash,
            perm: perm.map(Box::from),
        }
    }

    fn stride1() -> Bucket {
        Bucket {
            entries: vec![
                entry((0, 0, 0), (0, 0, MoveKind::Enter), 0, None),
                entry(
                    (u32::MAX, u32::MAX, u32::MAX),
                    (u32::MAX, u32::MAX, MoveKind::Advance),
                    u64::MAX,
                    Some(&[2, 0, 1]),
                ),
                entry(
                    (7, 1, 0x0102_0304),
                    (5, 3, MoveKind::Eject),
                    0x0123_4567_89ab_cdef,
                    Some(&[1, 0]),
                ),
            ],
            keys: vec![0, u16::MAX, 0x1234],
        }
    }

    fn stride12() -> Bucket {
        Bucket {
            entries: vec![
                entry((3, 2, 9), (1, 0, MoveKind::Eject), 0xfeed_beef, None),
                entry((4, 0, 10), (2, 1, MoveKind::Enter), 1, Some(&[3, 2, 1, 0])),
            ],
            keys: (0..24u16).map(|k| k.wrapping_mul(0x0b0b)).collect(),
        }
    }

    /// `stride1()`'s chunk, the spill format's bytes: one row per field, a
    /// blank line between entries.
    #[rustfmt::skip]
    const STRIDE1_BYTES: [u8; 109] = [
        0x00, 0x00, 0x00, 0x00, // slot
        0x00, 0x00, 0x00, 0x00, // child
        0x00, 0x00, 0x00, 0x00, // parent
        0x00, 0x00, 0x00, 0x00, // msg
        0x00, 0x00, 0x00, 0x00, // flit
        0x00,                   // kind: Enter
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // hash
        0xff, 0xff,             // perm_len: identity
        0x00, 0x00,             // key

        0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff,
        0x01,                   // kind: Advance
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0x03, 0x00,             // perm_len
        0x02, 0x00, 0x00, 0x00, 0x01, 0x00, // perm
        0xff, 0xff,

        0x07, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00,
        0x04, 0x03, 0x02, 0x01,
        0x05, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x00, 0x00,
        0x02,                   // kind: Eject
        0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
        0x02, 0x00,
        0x01, 0x00, 0x00, 0x00,
        0x34, 0x12,
    ];

    /// `stride12()`'s chunk.
    #[rustfmt::skip]
    const STRIDE12_BYTES: [u8; 118] = [
        0x03, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00,
        0x09, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
        0x02,
        0xef, 0xbe, 0xed, 0xfe, 0x00, 0x00, 0x00, 0x00,
        0xff, 0xff,
        0x00, 0x00, 0x0b, 0x0b, 0x16, 0x16, 0x21, 0x21, 0x2c, 0x2c, 0x37, 0x37,
        0x42, 0x42, 0x4d, 0x4d, 0x58, 0x58, 0x63, 0x63, 0x6e, 0x6e, 0x79, 0x79,

        0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
        0x0a, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00,
        0x00,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x04, 0x00,
        0x03, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x84, 0x84, 0x8f, 0x8f, 0x9a, 0x9a, 0xa5, 0xa5, 0xb0, 0xb0, 0xbb, 0xbb,
        0xc6, 0xc6, 0xd1, 0xd1, 0xdc, 0xdc, 0xe7, 0xe7, 0xf2, 0xf2, 0xfd, 0xfd,
    ];

    /// A bucket's entries as comparable tuples, plus its keys.
    type View = (
        Vec<(u32, u32, u32, Move, u64, Option<Vec<usize>>)>,
        Vec<u16>,
    );

    fn view(bucket: &Bucket) -> View {
        let entries = bucket
            .entries
            .iter()
            .map(|e| {
                let perm = e.perm.as_ref().map(|p| p.to_vec());
                (e.slot, e.child, e.parent, e.mv, e.hash, perm)
            })
            .collect();
        (entries, bucket.keys.clone())
    }

    fn encoded(bucket: &Bucket, stride: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_bucket(bucket, stride, &mut buf);
        buf
    }

    /// Splits `bucket` after its first `at` entries.
    fn split(mut bucket: Bucket, at: usize, stride: usize) -> (Bucket, Bucket) {
        let tail = Bucket {
            entries: bucket.entries.split_off(at),
            keys: bucket.keys.split_off(at * stride),
        };
        (bucket, tail)
    }

    #[test]
    fn the_bucket_codec_is_pinned_byte_for_byte() {
        let cases: [(Bucket, usize, &[u8]); 2] = [
            (stride1(), 1, &STRIDE1_BYTES),
            (stride12(), 12, &STRIDE12_BYTES),
        ];
        for (bucket, stride, bytes) in cases {
            assert_eq!(encoded(&bucket, stride), bytes, "stride {stride}");
            let mut back = Bucket::default();
            decode_chunk(bytes, bucket.entries.len(), stride, &mut back).expect("decodes");
            assert_eq!(view(&back), view(&bucket), "stride {stride}");
        }
    }

    #[test]
    fn encoding_buckets_in_turn_equals_encoding_them_merged() {
        let fixtures: [(fn() -> Bucket, usize); 2] = [(stride1, 1), (stride12, 12)];
        for (fixture, stride) in fixtures {
            let whole = encoded(&fixture(), stride);
            for at in 0..=fixture().entries.len() {
                let (head, tail) = split(fixture(), at, stride);
                let mut buf = Vec::new();
                encode_bucket(&head, stride, &mut buf);
                encode_bucket(&tail, stride, &mut buf);
                assert_eq!(buf, whole, "stride {stride}, split at {at}");
            }
        }
    }

    #[test]
    fn damaged_chunks_are_spill_errors_not_panics() {
        for (bucket, stride) in [(stride1(), 1), (stride12(), 12)] {
            let bytes = encoded(&bucket, stride);
            let count = bucket.entries.len();
            for cut in 0..bytes.len() {
                let mut out = Bucket::default();
                let result = decode_chunk(&bytes[..cut], count, stride, &mut out);
                assert!(
                    matches!(result, Err(Error::Spill(_))),
                    "stride {stride}, cut at {cut}: {result:?}"
                );
            }
            let mut bad_kind = bytes.clone();
            bad_kind[20] = 3;
            let result = decode_chunk(&bad_kind, count, stride, &mut Bucket::default());
            assert!(matches!(result, Err(Error::Spill(_))), "{result:?}");
        }
    }

    /// Deals `0..23` onto two workers as [`StealQueues`] does — round-robin,
    /// then worker 0 steals a run off worker 1's back, reversed — pushes
    /// each slot's children into the workers' per-shard buckets in child
    /// order, and checks that counting on the slot alone puts every
    /// shard's worker-order merge in `(slot, child)` order.
    #[test]
    fn counting_on_the_slot_gives_the_slot_child_order() {
        const SHARDS: usize = 3;
        let base = 100;
        let queues = StealQueues::new(2);
        queues.fill(23);
        let mut buckets: Vec<Vec<Bucket>> = (0..2).map(|_| new_buckets(SHARDS)).collect();
        let mut batch = Vec::new();
        let mut stolen = Vec::new();
        for (w, max) in [(1, 3), (0, 64), (0, 64), (1, 64)] {
            assert!(queues.pop_batch(w, max, &mut batch));
            if w == 0 && batch[0] % 2 == 1 {
                stolen.clone_from(&batch);
            }
            for &i in &batch {
                let slot = base + i;
                for child in 0..=i % 4 {
                    let s = (slot as usize * 31 + child as usize) % SHARDS;
                    let bucket = &mut buckets[w][s];
                    bucket.entries.push(entry(
                        (slot, child, i),
                        (0, 0, MoveKind::Advance),
                        0,
                        None,
                    ));
                }
            }
        }
        assert!(!queues.pop_batch(0, 64, &mut batch));
        assert_eq!(stolen, [21, 19, 17, 15], "no reversed stolen run");
        let (mut counts, mut order) = (Vec::new(), Vec::new());
        let mut interned = 0;
        for s in 0..SHARDS {
            let mut merge = Bucket::default();
            for worker in &mut buckets {
                merge.entries.append(&mut worker[s].entries);
            }
            counting_order(&merge.entries, base..base + 23, &mut counts, &mut order);
            let mut sorted: Vec<u32> = (0..merge.entries.len() as u32).collect();
            sorted.sort_by_key(|&i| {
                (
                    merge.entries[i as usize].slot,
                    merge.entries[i as usize].child,
                )
            });
            assert_eq!(order, sorted, "shard {s}");
            interned += order.len();
        }
        assert_eq!(interned, (0..23).map(|i| i % 4 + 1).sum::<u32>() as usize);
    }

    /// Both sizes are counted in the resident bytes that decide when the
    /// parallel engine spills, so `explore-spill`'s pinned `peak_bytes` and
    /// `spilled_bytes` move with them (an 8-byte pad on `SuccEntry` moved
    /// them to 6,541,568 and 30,229,338). A layout change fails here first.
    #[test]
    fn the_pinned_layouts_keep_their_sizes() {
        assert_eq!(std::mem::size_of::<SuccEntry>(), 56);
        assert_eq!(std::mem::size_of::<Option<Edge>>(), 40);
    }
}
