//! The replay step of [`MemorySystem`](crate::MemorySystem)'s batch path,
//! inline or on persistent shard workers.
//!
//! A shard is a slice of engines, and an engine is a slice of banks. CAT's
//! counter trees are per-bank state and no scheme ever observes another
//! bank's activations (`DESIGN.md §7`, invariant 1), so each
//! [`BankEngine`] is already a complete, independent unit of parallel
//! work. The system scatters a batch **once** into one [`Route`] per
//! engine (the engine-local sub-batch plus its epoch cut positions), and
//! every engine then replays its route through
//! [`BankEngine::process_with_cuts`] — the same call whether it runs on the
//! calling thread ([`replay`], one shard) or on a worker.
//!
//! With `n > 1` shards, [`ShardWorkers`] spawns `n` threads **once** and
//! gives each a contiguous group of engines. Per batch the engines and
//! their routes travel to the workers **by value** and come back the same
//! way. A `BankEngine` move is an O(1) struct move; nothing is re-indexed,
//! and between batches the system owns every engine again. That is why
//! stats, reports, checkpoints and single-access calls need no protocol
//! with the workers.
//!
//! Determinism is untouched. Every engine is replayed by exactly one
//! thread, through the same call as the inline path, on a route whose cut
//! positions were computed serially before any worker started.

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::BankEngine;

/// One engine's share of a batch: its accesses in stream order, with
/// engine-local bank indices, and the positions inside them where a
/// global epoch boundary falls.
#[derive(Default)]
pub(crate) struct Route {
    pub(crate) batch: Vec<(u32, u32)>,
    pub(crate) cuts: Vec<usize>,
}

/// Replays every engine's route and returns the (refresh events,
/// refreshed rows) the batch triggered. An engine with no accesses and no
/// boundary is skipped.
pub(crate) fn replay(engines: &mut [BankEngine], routes: &[Route]) -> (u64, u64) {
    let mut refreshes = (0u64, 0u64);
    for (engine, route) in engines.iter_mut().zip(routes) {
        if route.batch.is_empty() && route.cuts.is_empty() {
            continue;
        }
        let out = engine.process_with_cuts(&route.batch, &route.cuts);
        refreshes.0 += out.refresh_events;
        refreshes.1 += out.refreshed_rows;
    }
    refreshes
}

/// One worker's batch: its engine group and their routes, moved in by
/// value and handed back with the replay's refresh totals. The vectors are
/// recycled, so a batch allocates nothing.
#[derive(Default)]
struct Job {
    engines: Vec<BankEngine>,
    routes: Vec<Route>,
    refreshes: (u64, u64),
}

struct Worker {
    tx: Option<Sender<Job>>,
    rx: Receiver<Job>,
    handle: Option<JoinHandle<()>>,
    /// The recycled job buffers, home between batches.
    job: Job,
    /// The engines this worker replays, as indices into the system's list.
    engines: Range<usize>,
}

/// Persistent shard threads, each owning a contiguous group of engines
/// (see the module docs).
pub(crate) struct ShardWorkers {
    workers: Vec<Worker>,
}

impl ShardWorkers {
    /// Spawns `shards` workers, at most one per engine, over `engines`
    /// engines in contiguous groups of near-equal size.
    pub(crate) fn new(shards: usize, engines: usize) -> Self {
        let shards = shards.min(engines);
        let workers = (0..shards)
            .map(|w| {
                let (tx, worker_rx) = channel::<Job>();
                let (worker_tx, rx) = channel::<Job>();
                let handle = std::thread::Builder::new()
                    .name(format!("cat-shard-{w}"))
                    .spawn(move || worker_loop(worker_rx, worker_tx))
                    .expect("spawn shard worker");
                Worker {
                    tx: Some(tx),
                    rx,
                    handle: Some(handle),
                    job: Job::default(),
                    engines: w * engines / shards..(w + 1) * engines / shards,
                }
            })
            .collect();
        ShardWorkers { workers }
    }

    /// [`replay`] on the workers: moves each group's engines and routes
    /// out, lets every worker replay its group, and moves them back in
    /// order. On return `engines` and `routes` hold exactly what they held
    /// before, in the same order, with the batch applied.
    pub(crate) fn replay(
        &mut self,
        engines: &mut Vec<BankEngine>,
        routes: &mut [Route],
    ) -> (u64, u64) {
        let mut pending = engines.drain(..);
        for worker in &mut self.workers {
            let mut job = std::mem::take(&mut worker.job);
            job.engines
                .extend(pending.by_ref().take(worker.engines.len()));
            job.routes.extend(
                routes[worker.engines.clone()]
                    .iter_mut()
                    .map(std::mem::take),
            );
            worker.send(job);
        }
        drop(pending);
        let mut refreshes = (0u64, 0u64);
        for worker in &mut self.workers {
            let mut job = worker.recv();
            engines.append(&mut job.engines);
            for (slot, route) in routes[worker.engines.clone()]
                .iter_mut()
                .zip(job.routes.drain(..))
            {
                *slot = route;
            }
            refreshes.0 += job.refreshes.0;
            refreshes.1 += job.refreshes.1;
            worker.job = job;
        }
        refreshes
    }
}

impl Worker {
    fn send(&self, job: Job) {
        self.tx
            .as_ref()
            .expect("workers not shut down")
            .send(job)
            .expect("shard worker panicked");
    }

    fn recv(&self) -> Job {
        self.rx.recv().expect("shard worker panicked")
    }
}

impl Drop for ShardWorkers {
    fn drop(&mut self) {
        // Closing the channels ends each worker's receive loop; join so no
        // thread outlives its system.
        for worker in &mut self.workers {
            worker.tx = None;
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(rx: Receiver<Job>, tx: Sender<Job>) {
    while let Ok(mut job) = rx.recv() {
        job.refreshes = replay(&mut job.engines, &job.routes);
        if tx.send(job).is_err() {
            return;
        }
    }
}
