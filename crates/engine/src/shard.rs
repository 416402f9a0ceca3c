//! The bucketing and replay steps of the batch path, inline or on
//! persistent shard workers.
//!
//! A shard is a slice of engines, and an engine is a slice of banks. No
//! scheme ever observes another bank's activations (`DESIGN.md §7`,
//! invariant 1), so only each bank's own order has to survive the batch
//! path. [`Bucketer::run`] makes the one copy a record takes after
//! staging: a stable count-then-place pass that writes the batch, chunk by
//! chunk, as [`Runs`] — per epoch segment, each touched bank's rows in
//! stream order, banks ascending, and a cut marker per boundary. Engines own ascending
//! bank ranges, so [`replay`] walks the runs once and hands each to its
//! engine, with no sort of its own. The same two calls serve
//! [`MemorySystem`](crate::MemorySystem) (over its owned range, every
//! engine, with scratch it keeps across batches) and
//! [`BankEngine::process_with_cuts`] (over the engine's own banks, with
//! scratch local to the call).
//!
//! With `n > 1` shards, [`ShardWorkers`] spawns `n` threads **once** and
//! gives each a contiguous group of engines. Per chunk the engines travel
//! to the workers **by value**, with a shared handle on the runs, and come
//! back the same way; between batches the system owns every engine again,
//! so stats, reports, checkpoints and single-access calls need no protocol
//! with the workers. Every engine is replayed by exactly one thread,
//! through the same [`replay`] as the inline path, over runs laid out
//! serially before any worker started.

use std::io;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::BankEngine;

/// The run marker of an epoch boundary: every bank's `on_epoch_end`
/// fires there. No bank index reaches it (geometries are capped far
/// below `u32::MAX` banks).
const CUT: u32 = u32::MAX;

/// Bucketing chunk bounds, in accesses: a chunk ends at its first epoch
/// cut past `CHUNK_MIN` accesses, and at `CHUNK_MAX` at the latest. A
/// segment is replayed while its rows are still cache-warm, small
/// segments share a chunk, and the scratch stays bounded for any batch.
const CHUNK_MIN: usize = 1 << 16;
const CHUNK_MAX: usize = 1 << 23;

/// A bank-bucketed chunk of a batch: per epoch segment, one run per
/// touched bank in ascending bank order, each run that bank's rows in
/// stream order.
#[derive(Clone, Default)]
pub(crate) struct Runs {
    /// Every access's row, run after run.
    rows: Vec<u32>,
    /// `(bank, length)` per run, the bank relative to the bucketing base;
    /// `(CUT, 0)` marks an epoch boundary.
    runs: Vec<(u32, u32)>,
}

/// The count-then-place pass and its scratch, reused across batches.
#[derive(Default)]
pub(crate) struct Bucketer {
    /// Per bank of the bucketed range: the segment's access count, then
    /// its placement cursor. Dense, but only the segment's touched banks
    /// are ever nonzero, and they are reset before the next segment.
    tally: Vec<u32>,
    /// Banks the current segment touched.
    touched: Vec<u32>,
    /// The bucketed chunk, shared with the shard workers during a replay.
    runs: Arc<Runs>,
}

impl Bucketer {
    /// Buckets `batch` chunk by chunk and hands each chunk's runs to
    /// `replay`. Bank `b` of the batch is bucket `b - base`, which must be
    /// below `banks`: a bank outside `base..base + banks` panics, naming
    /// the bank, before its chunk is replayed. `cuts` are epoch cut
    /// positions: nondecreasing, at most `batch.len()`, `0` and duplicates
    /// allowed. `replay` must drop every handle on the runs it clones
    /// before it returns.
    pub(crate) fn run(
        &mut self,
        batch: &[(u32, u32)],
        cuts: &[usize],
        base: u32,
        banks: usize,
        mut replay: impl FnMut(&Arc<Runs>),
    ) {
        // Exactly the bucketed range: the count loop's bounds check is the
        // range check, at no extra pass over the batch.
        self.tally.resize(banks, 0);
        let (mut start, mut first_cut) = (0, 0);
        loop {
            let cap = batch.len().min(start + CHUNK_MAX);
            let end = cuts[first_cut..]
                .iter()
                .find(|&&c| c >= start + CHUNK_MIN)
                .map_or(cap, |&c| c.min(cap));
            let n = cuts[first_cut..].partition_point(|&c| c <= end);
            self.bucket(batch, start..end, &cuts[first_cut..first_cut + n], base);
            replay(&self.runs);
            (start, first_cut) = (end, first_cut + n);
            if start == batch.len() && first_cut == cuts.len() {
                return;
            }
        }
    }

    /// Buckets `batch[chunk]`, whose epoch cuts are `cuts`, into the runs.
    fn bucket(&mut self, batch: &[(u32, u32)], chunk: Range<usize>, cuts: &[usize], base: u32) {
        let (tally, touched) = (&mut self.tally, &mut self.touched);
        let out = Arc::make_mut(&mut self.runs);
        out.runs.clear();
        // Every slot gets exactly one row below, so stale rows of the
        // recycled buffer are never read and only growth is zero-filled.
        out.rows.resize(chunk.len(), 0);
        let mut end = 0u32;
        let mut segment = |seg: &[(u32, u32)], on_boundary: bool| {
            // Count, noting each bank at its first touch so the reset is
            // O(touched), not O(banks).
            for &(bank, _) in seg {
                let b = bank.wrapping_sub(base);
                let Some(n) = tally.get_mut(b as usize) else {
                    crate::bank_out_of_range(bank as usize, base as usize, tally.len())
                };
                if *n == 0 {
                    touched.push(b);
                }
                *n += 1;
            }
            // Lay the runs out in ascending bank order, turning each
            // count into its run's cursor; then place.
            touched.sort_unstable();
            for &b in touched.iter() {
                let n = std::mem::replace(&mut tally[b as usize], end);
                out.runs.push((b, n));
                end += n;
            }
            for &(bank, row) in seg {
                let c = &mut tally[bank.wrapping_sub(base) as usize];
                out.rows[*c as usize] = row;
                *c += 1;
            }
            for &b in touched.iter() {
                tally[b as usize] = 0;
            }
            touched.clear();
            if on_boundary {
                out.runs.push((CUT, 0));
            }
        };
        let mut prev = chunk.start;
        for &cut in cuts {
            segment(&batch[prev..cut], true);
            prev = cut;
        }
        segment(&batch[prev..chunk.end], false);
    }

    /// Capacity high-water marks, in elements: tally, touched, rows, runs
    /// (the checkpoint image records them).
    pub(crate) fn marks(&self) -> [usize; 4] {
        [
            self.tally.capacity(),
            self.touched.capacity(),
            self.runs.rows.capacity(),
            self.runs.runs.capacity(),
        ]
    }

    /// Reserves saved [`marks`](Self::marks) on a fresh bucketer: exact
    /// capacities on empty `Vec`s, which the rest of the run (bounded by
    /// the original's high-water marks) never regrows.
    pub(crate) fn reserve(&mut self, [tally, touched, rows, runs]: [usize; 4]) {
        self.tally.reserve_exact(tally);
        self.touched.reserve_exact(touched);
        let out = Arc::make_mut(&mut self.runs);
        out.rows.reserve_exact(rows);
        out.runs.reserve_exact(runs);
    }

    /// Resident bytes of the scratch.
    pub(crate) fn heap_bytes(&self) -> usize {
        let [tally, touched, rows, runs] = self.marks();
        (tally + touched + rows) * std::mem::size_of::<u32>()
            + runs * std::mem::size_of::<(u32, u32)>()
    }
}

/// Replays `runs` on `engines`, a contiguous group in ascending bank
/// order. `origin` is the global bank of run bank 0. Runs outside the
/// group are skipped; every boundary fires on every engine of the group.
pub(crate) fn replay(engines: &mut [BankEngine], runs: &Runs, origin: u32) {
    let mut rows = runs.rows.as_slice();
    // Banks ascend within a segment, so the owning engine only moves
    // forward until the next boundary.
    let mut e = 0;
    for &(bank, len) in &runs.runs {
        if bank == CUT {
            engines.iter_mut().for_each(BankEngine::end_epoch);
            e = 0;
            continue;
        }
        let (run, rest) = rows.split_at(len as usize);
        rows = rest;
        let bank = origin + bank;
        while e < engines.len() && bank >= engines[e].end_bank() {
            e += 1;
        }
        if let Some(engine) = engines.get_mut(e) {
            if let Some(local) = bank.checked_sub(engine.banks.base()) {
                engine.replay_run(local as usize, run);
            }
        }
    }
}

/// Running (refresh events, refreshed rows) over the engines' materialized
/// banks: differencing two snapshots gives a batch's outcome with no
/// accounting in the per-activation loops.
pub(crate) fn refresh_totals(engines: &[BankEngine]) -> (u64, u64) {
    let schemes = engines.iter().flat_map(BankEngine::schemes);
    schemes.fold((0, 0), |(events, rows), scheme| {
        let stats = scheme.stats();
        (events + stats.refresh_events, rows + stats.refreshed_rows)
    })
}

/// One worker's batch: its engine group, moved in by value and handed
/// back, and the runs. The engine vector is recycled, so a batch
/// allocates nothing.
#[derive(Default)]
struct Job {
    engines: Vec<BankEngine>,
    runs: Option<Arc<Runs>>,
    origin: u32,
}

struct Worker {
    tx: Sender<Job>,
    rx: Receiver<Job>,
    handle: JoinHandle<()>,
    /// The recycled job buffers, home between batches.
    job: Job,
    /// Engines in this worker's group (groups are contiguous, in order).
    engines: usize,
}

/// Persistent shard threads, each owning a contiguous group of engines
/// (see the module docs).
pub(crate) struct ShardWorkers {
    workers: Vec<Worker>,
}

impl ShardWorkers {
    /// Spawns `shards` workers, at most one per engine, over `engines`
    /// engines in contiguous groups of near-equal size.
    ///
    /// # Errors
    ///
    /// The spawn error, if the host cannot start a thread.
    pub(crate) fn new(shards: usize, engines: usize) -> io::Result<Self> {
        let shards = shards.min(engines);
        // On a spawn error the partial pool drops, which joins the
        // workers already running.
        let mut pool = ShardWorkers {
            workers: Vec::with_capacity(shards),
        };
        for w in 0..shards {
            let (tx, worker_rx) = channel::<Job>();
            let (worker_tx, rx) = channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("cat-shard-{w}"))
                .spawn(move || worker_loop(worker_rx, worker_tx))?;
            pool.workers.push(Worker {
                tx,
                rx,
                handle,
                job: Job::default(),
                engines: (w + 1) * engines / shards - w * engines / shards,
            });
        }
        Ok(pool)
    }

    /// [`replay`] on the workers: moves each group's engines out, lets
    /// every worker replay its group, and moves them back in order. On
    /// return `engines` holds exactly what it held before, in the same
    /// order, with the batch applied.
    pub(crate) fn replay(&mut self, engines: &mut Vec<BankEngine>, runs: &Arc<Runs>, origin: u32) {
        let mut pending = engines.drain(..);
        for worker in &mut self.workers {
            let mut job = std::mem::take(&mut worker.job);
            job.engines.extend(pending.by_ref().take(worker.engines));
            job.runs = Some(Arc::clone(runs));
            job.origin = origin;
            // cat-lint: allow(panic-path) -- a worker's channel closes only when its thread unwound out of a replay, a panic the inline replay raises on this thread too
            worker.tx.send(job).expect("shard worker panicked");
        }
        drop(pending);
        for worker in &mut self.workers {
            // cat-lint: allow(panic-path) -- as for the send above
            let mut job = worker.rx.recv().expect("shard worker panicked");
            engines.append(&mut job.engines);
            worker.job = job;
        }
    }
}

impl Drop for ShardWorkers {
    fn drop(&mut self) {
        // Closing a worker's channel ends its receive loop; join so no
        // thread outlives its system.
        for worker in self.workers.drain(..) {
            drop(worker.tx);
            let _ = worker.handle.join();
        }
    }
}

fn worker_loop(rx: Receiver<Job>, tx: Sender<Job>) {
    while let Ok(mut job) = rx.recv() {
        // The runs handle is dropped before the job goes back, so the
        // next batch rewrites the runs in place.
        if let Some(runs) = job.runs.take() {
            replay(&mut job.engines, &runs, job.origin);
        }
        if tx.send(job).is_err() {
            return;
        }
    }
}
