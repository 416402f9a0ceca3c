//! End-to-end sessions against the real `catd`/`catd_router` binaries over
//! loopback. One load-generator process (this one) drives
//! [`PRODUCERS`] producer connections, each on its own thread, closed loop:
//! a connection sends its next frame only once the previous one is
//! written, and the session ends when every producer holds the stats
//! snapshot and has checked it against the local replay.

use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use catree::engine::ingest::{deal, IngestClient};
use catree::engine::wire::StatsSnapshot;

use crate::clock::Stamp;
use crate::procs::{Server, Usage};
use crate::spans::{SpanId, Tracer};
use crate::workload::{Kind, Workload, FRAME, PRODUCERS, SHARDS, SPEC};

/// A streaming phase that runs longer than this is declared hung: its
/// servers are killed, which fails the session instead of the run.
const SESSION_DEADLINE_S: f64 = 90.0;
/// How often the session thread samples the servers' resident memory
/// (and checks whether the producers are done).
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// The release binaries under test.
#[derive(Clone, Debug)]
pub struct Binaries {
    /// `catd`.
    pub catd: PathBuf,
    /// `catd_router`.
    pub router: PathBuf,
}

/// One verified session's measurements.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Accesses streamed.
    pub accesses: u64,
    /// Seconds from the first frame written to the last verified snapshot.
    pub wall_s: f64,
    /// Seconds from spawning the server(s) until every listener was bound.
    pub setup_s: f64,
    /// CPU seconds of every server process.
    pub cpu_s: f64,
    /// Peak resident memory of the servers, summed over concurrent ones.
    pub peak_kib: u64,
}

/// Everything a session needs.
pub struct Session<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Binaries to spawn.
    pub bins: &'a Binaries,
    /// The whole trace.
    pub trace: &'a [(u32, u32)],
    /// The local replay at `[split, end]`.
    pub expected: &'a [StatsSnapshot; 2],
}

/// Removes a scratch directory on every exit path.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Session<'_> {
    /// Runs one session of the workload; `tracer` (traced runs only)
    /// receives a span per phase and per client send.
    ///
    /// # Errors
    ///
    /// Any connect, serve or exit failure, or a snapshot that differs from
    /// the local replay.
    pub fn run(&self, mut tracer: Option<&mut Tracer>) -> Result<Sample, String> {
        let w = self.workload;
        let root = tracer.as_deref_mut().map(|t| t.open("e2e.session", None));
        let sample = match w.kind {
            Kind::Serve => self.single(
                &catd_args(PRODUCERS, w.epoch),
                self.trace,
                &self.expected[1],
                tracer.as_deref_mut().zip(root),
            )?,
            Kind::Fleet => {
                let start = Stamp::now();
                let mut servers = Vec::with_capacity(3);
                for k in 0..2 {
                    let mut args = catd_args(1, 0);
                    args.extend(["--slice".to_string(), format!("{k}/2")]);
                    servers.push(Server::spawn(&self.bins.catd, "catd", &args).map_err(str_err)?);
                }
                for s in &mut servers {
                    s.wait_listening().map_err(str_err)?;
                }
                let mut args = vec![
                    "127.0.0.1:0".to_string(),
                    PRODUCERS.to_string(),
                    w.epoch.to_string(),
                ];
                args.extend(servers.iter().map(|s| s.addr().to_string()));
                let mut router =
                    Server::spawn(&self.bins.router, "catd_router", &args).map_err(str_err)?;
                router.wait_listening().map_err(str_err)?;
                let setup_s = start.elapsed_s();
                let addr = router.addr().to_string();
                servers.insert(0, router);
                let wall_s = stream(
                    &addr,
                    self.trace,
                    &self.expected[1],
                    &mut servers,
                    tracer.as_deref_mut().zip(root),
                )?;
                let mut cpu_s = 0.0;
                let mut peak_kib = 0;
                for s in servers {
                    let usage = s.finish().map_err(str_err)?;
                    cpu_s += usage.cpu_s;
                    peak_kib += usage.peak_kib;
                }
                Sample {
                    accesses: self.trace.len() as u64,
                    wall_s,
                    setup_s,
                    cpu_s,
                    peak_kib,
                }
            }
        };
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        Ok(sample)
    }

    /// One `catd` session: spawn, stream `part`, reap.
    fn single(
        &self,
        args: &[String],
        part: &[(u32, u32)],
        expected: &StatsSnapshot,
        tracer: Option<(&mut Tracer, SpanId)>,
    ) -> Result<Sample, String> {
        let start = Stamp::now();
        let mut catd = Server::spawn(&self.bins.catd, "catd", args).map_err(str_err)?;
        catd.wait_listening().map_err(str_err)?;
        let setup_s = start.elapsed_s();
        let addr = catd.addr().to_string();
        let wall_s = stream(
            &addr,
            part,
            expected,
            std::slice::from_mut(&mut catd),
            tracer,
        )?;
        let Usage { cpu_s, peak_kib } = catd.finish().map_err(str_err)?;
        Ok(Sample {
            accesses: part.len() as u64,
            wall_s,
            setup_s,
            cpu_s,
            peak_kib,
        })
    }
}

/// `catd` positionals: listen address, spec, producers, epoch, shards.
fn catd_args(producers: usize, epoch: u64) -> Vec<String> {
    vec![
        "127.0.0.1:0".to_string(),
        SPEC.to_string(),
        producers.to_string(),
        epoch.to_string(),
        SHARDS.to_string(),
    ]
}

fn str_err(e: std::io::Error) -> String {
    e.to_string()
}

/// Streams `part` to `addr` over [`PRODUCERS`] connections and verifies
/// every producer's snapshot against `expected`. Returns the seconds from
/// the first frame written until the last producer held its verified
/// snapshot. While the producers stream, this thread samples the servers'
/// resident memory and kills them if the session overruns its deadline.
fn stream(
    addr: &str,
    part: &[(u32, u32)],
    expected: &StatsSnapshot,
    servers: &mut [Server],
    tracer: Option<(&mut Tracer, SpanId)>,
) -> Result<f64, String> {
    // Handshakes happen before the clock starts: `catd` accepts every
    // producer before it reads a frame.
    let mut clients = Vec::with_capacity(PRODUCERS);
    for id in 0..PRODUCERS {
        let client = IngestClient::connect_with_retry(addr, id as u32, 30)
            .map_err(|e| format!("connect producer {id} to {addr}: {e}"))?;
        if client.server_hello().accesses != 0 {
            return Err(format!(
                "{addr} holds {} accesses, expected a fresh server",
                client.server_hello().accesses
            ));
        }
        clients.push(client);
    }
    let traced = tracer.is_some();
    let lanes = deal(part, PRODUCERS, FRAME);
    let start = Stamp::now();
    type Lane = Result<(Stamp, Vec<(Stamp, Stamp)>), String>;
    let results: Vec<Lane> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(lanes)
            .enumerate()
            .map(|(id, (mut client, lane))| {
                scope.spawn(move || -> Lane {
                    let mut sends = Vec::new();
                    for batch in lane {
                        let t0 = Stamp::now();
                        client
                            .send(batch)
                            .map_err(|e| format!("producer {id}: send: {e}"))?;
                        if traced {
                            sends.push((t0, Stamp::now()));
                        }
                    }
                    let snap = client
                        .finish_with_stats()
                        .map_err(|e| format!("producer {id}: stats: {e}"))?;
                    if snap != *expected {
                        return Err(format!(
                            "producer {id}: snapshot differs from the local replay\n  \
                             server:    {snap:?}\n  reference: {expected:?}"
                        ));
                    }
                    Ok((Stamp::now(), sends))
                })
            })
            .collect();
        let mut killed = false;
        while !handles.iter().all(|h| h.is_finished()) {
            for s in servers.iter_mut() {
                s.sample_rss();
            }
            if !killed && start.elapsed_s() > SESSION_DEADLINE_S {
                for s in servers.iter_mut() {
                    s.kill();
                }
                killed = true;
            }
            thread::sleep(SAMPLE_EVERY);
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("producer thread panicked".into()))
            })
            .collect()
    });
    for s in servers.iter_mut() {
        s.sample_rss();
    }
    let mut end = start;
    let mut sends = Vec::new();
    for r in results {
        let (done, spans) = r?;
        if done.secs_since(end) > 0.0 {
            end = done;
        }
        sends.extend(spans);
    }
    if let Some((t, parent)) = tracer {
        let id = t.record("e2e.stream", Some(parent), start, end);
        for (s, e) in sends {
            t.record("client.send", Some(id), s, e);
        }
    }
    Ok(end.secs_since(start))
}
