//! `repro serve`: a concurrent query service over [`SnapshotEngine`].
//!
//! This is the serving front-end the snapshot layer exists for
//! (library/bin split: everything lives here, the `repro` binary is a
//! thin driver). Two front doors share one spine:
//!
//! * an **in-process closed-loop load generator** (the measured mode):
//!   `clients` threads each submit a read, wait for the reply, record
//!   the end-to-end latency, and go again — with a configured fraction
//!   of operations going to the writer API instead;
//! * a **local TCP socket** ([`serve_socket`]) speaking a line
//!   protocol (`Q`/`I`/`D`), for driving the service from outside the
//!   process. Socket input is untrusted: rankings are validated with
//!   the non-panicking [`ranksim_rankings::validate_items`] and bad
//!   requests get an `ERR` line instead of a worker panic.
//!
//! The spine is [`ServeCore`]: a bounded request queue with
//! **admission control** (submissions beyond `queue_capacity` are shed
//! immediately — the client gets `Shed`, the queue never grows without
//! bound) and a dispatcher thread that drains up to `batch_max`
//! waiting requests at a time, pins **one snapshot** for the whole
//! drain, groups the requests by threshold, and runs each group
//! through the engine's existing work-stealing batch driver
//! ([`ranksim_core::engine::Engine::query_batch_reported`]). Writes
//! bypass the queue and go straight to the snapshot engine's writer
//! API — that is safe by construction, the whole point of the RCU
//! layer.
//!
//! Mid-run, the driver forces a full [`SnapshotEngine::compact`] and
//! tags every read completed while the rebuild is in flight: the
//! `during_compaction` percentile block in `BENCH_serve.json` is the
//! direct evidence for "readers never block on writers".
//!
//! The spine is hardened for unattended operation:
//!
//! * every read carries a **deadline** (`read_budget`): requests that
//!   expire in the queue or are not started by the batch driver before
//!   the budget elapses fail individually with
//!   [`ReadReply::TimedOut`] (socket: a `TIMEOUT` line) instead of
//!   holding their client hostage;
//! * the engine runs on a **write-ahead log** (see
//!   [`ranksim_core::wal`]); graceful shutdown drains the admission
//!   queue and syncs the WAL, so an orderly exit loses nothing;
//! * the dispatcher polls [`SnapshotEngine::health`] every drain —
//!   publisher death or a WAL failure is reported (and surfaced in
//!   `BENCH_serve.json`) instead of silently serving ever-staler
//!   snapshots;
//! * the socket front door bounds line length, rejects non-UTF-8 and
//!   oversized frames with `ERR`, and hangs up on idle connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::{env_or, json_obj, Bench, ExpConfig, Family, Json};
use ranksim_core::engine::{Algorithm, EngineBuilder};
use ranksim_core::{SnapshotEngine, SyncPolicy, WalError};
use ranksim_datasets::{perturb_ranking, PerturbParams};
use ranksim_rankings::{raw_threshold, validate_items, ItemId, RankingId};

/// Configuration of one `repro serve` run.
#[derive(Debug, Clone, Copy)]
pub struct ServeRunConfig {
    /// Closed-loop client threads (`RANKSIM_SERVE_CLIENTS`, default 4).
    pub clients: usize,
    /// Worker threads of the batch dispatcher
    /// (`RANKSIM_SERVE_THREADS`, default 2).
    pub batch_threads: usize,
    /// Measured wall time in seconds (`RANKSIM_SERVE_SECS`, default 3).
    pub duration_s: f64,
    /// Fraction of client operations that are writes
    /// (`RANKSIM_SERVE_WRITE_PCT` in percent, default 10 — the 90/10
    /// mix).
    pub write_fraction: f64,
    /// Normalized threshold θ of every read.
    pub theta: f64,
    /// The algorithm reads run (default `Auto`).
    pub algorithm: Algorithm,
    /// Admission-control bound: reads waiting in the queue beyond this
    /// are shed (`RANKSIM_SERVE_QUEUE`, default 1024).
    pub queue_capacity: usize,
    /// Most requests coalesced into one batch-driver call
    /// (`RANKSIM_SERVE_BATCH`, default 64).
    pub batch_max: usize,
    /// Per-read deadline in milliseconds, enqueue to start-of-execution
    /// (`RANKSIM_SERVE_BUDGET_MS`, default 2000). Expired reads get
    /// [`ReadReply::TimedOut`].
    pub read_budget_ms: u64,
    /// Socket connections idle longer than this many seconds are hung
    /// up on (`RANKSIM_SERVE_IDLE_S`, default 60).
    pub idle_timeout_s: u64,
}

impl ServeRunConfig {
    /// Defaults plus environment overrides.
    pub fn from_env() -> Self {
        ServeRunConfig {
            clients: env_or("RANKSIM_SERVE_CLIENTS", 4usize).max(1),
            batch_threads: env_or("RANKSIM_SERVE_THREADS", 2usize).max(1),
            duration_s: env_or("RANKSIM_SERVE_SECS", 3usize).max(1) as f64,
            write_fraction: env_or("RANKSIM_SERVE_WRITE_PCT", 10usize).min(90) as f64 / 100.0,
            theta: 0.1,
            algorithm: Algorithm::Auto,
            queue_capacity: env_or("RANKSIM_SERVE_QUEUE", 1024usize).max(1),
            batch_max: env_or("RANKSIM_SERVE_BATCH", 64usize).max(1),
            read_budget_ms: env_or("RANKSIM_SERVE_BUDGET_MS", 2000u64).max(1),
            idle_timeout_s: env_or("RANKSIM_SERVE_IDLE_S", 60u64).max(1),
        }
    }
}

/// A read request in flight: the query, its threshold, when it was
/// admitted (for the deadline), and the reply channel the submitting
/// front-end blocks on.
struct ReadRequest {
    query: Vec<ItemId>,
    theta_raw: u32,
    enqueued: Instant,
    reply: SyncSender<ReadReply>,
}

/// The dispatcher's answer to one admitted read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadReply {
    /// The result set.
    Done(Vec<RankingId>),
    /// The read's deadline elapsed before execution started (in the
    /// queue, or claimed past the batch deadline). It failed
    /// individually; the rest of its batch completed.
    TimedOut,
}

/// Why a read submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the queue was at capacity.
    Shed,
    /// The service is shutting down.
    Stopped,
}

/// The serving spine: the snapshot engine, the bounded read queue, and
/// the dispatch/shedding counters. Shared (via `Arc`) between the
/// front-ends and the dispatcher thread.
pub struct ServeCore {
    engine: SnapshotEngine,
    queue: Mutex<VecDeque<ReadRequest>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    batch_max: usize,
    batch_threads: usize,
    algorithm: Algorithm,
    read_budget: Duration,
    stop: AtomicBool,
    /// Reads shed by admission control.
    pub shed: AtomicU64,
    /// Batched queries whose worker panicked (empty result returned).
    pub batch_failures: AtomicU64,
    /// Reads that missed their deadline ([`ReadReply::TimedOut`]).
    pub timeouts: AtomicU64,
    /// Set by the dispatcher when [`SnapshotEngine::health`] first
    /// reports an unhealthy engine (publisher death / WAL failure).
    pub unhealthy: AtomicBool,
}

impl ServeCore {
    /// Wraps a snapshot engine in the serving spine.
    pub fn new(engine: SnapshotEngine, rc: &ServeRunConfig) -> Self {
        ServeCore {
            engine,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: rc.queue_capacity,
            batch_max: rc.batch_max,
            batch_threads: rc.batch_threads,
            algorithm: rc.algorithm,
            read_budget: Duration::from_millis(rc.read_budget_ms),
            stop: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            batch_failures: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            unhealthy: AtomicBool::new(false),
        }
    }

    /// The wrapped snapshot engine (writer API + snapshots).
    pub fn engine(&self) -> &SnapshotEngine {
        &self.engine
    }

    /// Submits a read; the returned channel yields a [`ReadReply`] once
    /// the dispatcher has served (or timed out) it. Sheds instead of
    /// queueing past the capacity bound.
    pub fn submit_read(
        &self,
        query: Vec<ItemId>,
        theta_raw: u32,
    ) -> Result<Receiver<ReadReply>, SubmitError> {
        if self.stop.load(Ordering::Acquire) {
            return Err(SubmitError::Stopped);
        }
        let (tx, rx) = sync_channel(1);
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= self.queue_capacity {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Shed);
            }
            q.push_back(ReadRequest {
                query,
                theta_raw,
                enqueued: Instant::now(),
                reply: tx,
            });
        }
        self.queue_cv.notify_one();
        Ok(rx)
    }

    /// Stops the dispatcher once the queue drains; pending requests
    /// are still served, later submissions get `Stopped`.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.queue_cv.notify_all();
    }

    /// Graceful-shutdown epilogue: forces the WAL to stable storage.
    /// Call after [`ServeCore::shutdown`] **and** after joining the
    /// dispatcher thread, so everything the dispatcher drained — and
    /// every writer-API call — is on disk before the process exits.
    pub fn sync_wal(&self) -> Result<(), WalError> {
        self.engine.sync_wal()
    }

    /// The dispatcher loop (run it on its own thread): drains up to
    /// `batch_max` waiting reads, pins one snapshot for the drain,
    /// groups by threshold, and answers each group through the
    /// work-stealing batch driver. Returns when [`ServeCore::shutdown`]
    /// was called and the queue is empty.
    ///
    /// Deadlines are enforced in two places: a request that already
    /// expired while queued is answered [`ReadReply::TimedOut`] without
    /// execution, and each batch-driver call runs under
    /// [`ranksim_core::engine::Engine::query_batch_deadline`] so a
    /// slow batch times out its unstarted tail individually instead of
    /// stalling every queued request behind it.
    pub fn dispatch_loop(&self) {
        let mut drained: Vec<ReadRequest> = Vec::new();
        loop {
            {
                let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                while q.is_empty() && !self.stop.load(Ordering::Acquire) {
                    q = self.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
                }
                if q.is_empty() {
                    return; // stopped and drained
                }
                let take = q.len().min(self.batch_max);
                drained.extend(q.drain(..take));
            }

            // Liveness check once per drain: a dead publisher or failed
            // WAL is latched for the operator; reads keep being served
            // from the last published generation either way.
            if !self.unhealthy.load(Ordering::Relaxed) && !self.engine.health().is_healthy() {
                self.unhealthy.store(true, Ordering::Relaxed);
            }

            // One frozen world for the whole coalesced batch: every
            // request in it sees the same consistent corpus, and the
            // batch driver's workers share it without synchronization.
            let snapshot = self.engine.snapshot();
            let drain_start = Instant::now();

            // Requests whose deadline already passed in the queue fail
            // now, without burning batch capacity on them.
            let mut expired = 0u64;
            drained.retain(|req| {
                if drain_start.duration_since(req.enqueued) >= self.read_budget {
                    let _ = req.reply.send(ReadReply::TimedOut);
                    expired += 1;
                    false
                } else {
                    true
                }
            });
            if expired > 0 {
                self.timeouts.fetch_add(expired, Ordering::Relaxed);
            }

            // Group by threshold so each batch-driver call runs one θ
            // (requests overwhelmingly share the workload θ; the sort
            // is over at most `batch_max` elements).
            let mut order: Vec<usize> = (0..drained.len()).collect();
            order.sort_unstable_by_key(|&i| drained[i].theta_raw);
            let mut start = 0;
            while start < order.len() {
                let theta = drained[order[start]].theta_raw;
                let mut end = start + 1;
                while end < order.len() && drained[order[end]].theta_raw == theta {
                    end += 1;
                }
                let group = &order[start..end];
                let queries: Vec<Vec<ItemId>> =
                    group.iter().map(|&i| drained[i].query.clone()).collect();
                let (results, reports) = snapshot.query_batch_deadline(
                    self.algorithm,
                    &queries,
                    theta,
                    self.batch_threads,
                    self.read_budget,
                );
                let failed: u64 = reports.iter().map(|r| r.failed).sum();
                if failed > 0 {
                    self.batch_failures.fetch_add(failed, Ordering::Relaxed);
                }
                let timed_out: Vec<usize> = reports
                    .iter()
                    .flat_map(|r| r.timed_out.iter().copied())
                    .collect();
                if !timed_out.is_empty() {
                    self.timeouts
                        .fetch_add(timed_out.len() as u64, Ordering::Relaxed);
                }
                for (gi, (&i, result)) in group.iter().zip(results).enumerate() {
                    let reply = if timed_out.contains(&gi) {
                        ReadReply::TimedOut
                    } else {
                        ReadReply::Done(result)
                    };
                    // A vanished client is its own problem.
                    let _ = drained[i].reply.send(reply);
                }
                start = end;
            }
            drained.clear();
        }
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyUs {
    /// Samples the block summarizes.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Worst observed.
    pub max: f64,
}

impl LatencyUs {
    /// Summarizes raw nanosecond samples (sorts in place).
    pub fn from_ns(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencyUs::default();
        }
        samples.sort_unstable();
        let pct = |p: f64| -> f64 {
            let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
            samples[idx] as f64 / 1_000.0
        };
        LatencyUs {
            count: samples.len(),
            p50: pct(50.0),
            p99: pct(99.0),
            p999: pct(99.9),
            max: *samples.last().unwrap() as f64 / 1_000.0,
        }
    }

    fn json(&self) -> Json {
        json_obj! {
            "count": self.count, "p50": Json::fixed(self.p50, 1), "p99": Json::fixed(self.p99, 1),
            "p999": Json::fixed(self.p999, 1), "max": Json::fixed(self.max, 1),
        }
    }
}

/// Everything one serve run measured (the `BENCH_serve.json` artifact).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Dataset name.
    pub dataset: String,
    /// Corpus size at build.
    pub n: usize,
    /// Ranking size.
    pub k: usize,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes (inserts + removes, including remove misses).
    pub writes: u64,
    /// Reads shed by admission control.
    pub shed: u64,
    /// Removes that lost the race to another client (id already dead).
    pub remove_misses: u64,
    /// Batched queries that failed by worker panic.
    pub batch_failures: u64,
    /// Reads that missed their deadline.
    pub timeouts: u64,
    /// Generations the publisher abandoned to straggler readers.
    pub abandoned_generations: u64,
    /// Final WAL length in bytes (0 when the run was volatile).
    pub wal_bytes: u64,
    /// Whether the engine was healthy (publisher alive, WAL clean) at
    /// the end of the run.
    pub healthy_at_end: bool,
    /// Sustained read throughput (completed reads / wall time).
    pub read_qps: f64,
    /// Sustained write throughput.
    pub write_qps: f64,
    /// End-to-end read latency (enqueue → reply), all reads.
    pub read_latency: LatencyUs,
    /// Read latency for reads completed while the forced compaction
    /// was rebuilding — the reads-never-block-on-writes evidence.
    pub read_latency_during_compaction: LatencyUs,
    /// Writer-API call latency.
    pub write_latency: LatencyUs,
    /// Wall time of the forced mid-run compaction (master apply +
    /// replica publication).
    pub compact_s: f64,
    /// Live corpus size at the end.
    pub final_live_len: usize,
    /// The run configuration.
    pub config: ServeRunConfig,
}

impl ServeReport {
    /// The report as JSON (the CI artifact).
    pub fn to_json(&self) -> Json {
        let c = &self.config;
        json_obj! {
            "bench": "serve",
            "workload": json_obj! {
                "dataset": self.dataset.as_str(), "n": self.n, "k": self.k, "theta": c.theta,
                "algorithm": c.algorithm.to_string(), "write_fraction": c.write_fraction,
                "clients": c.clients, "batch_threads": c.batch_threads,
                "duration_s": c.duration_s, "queue_capacity": c.queue_capacity,
                "batch_max": c.batch_max,
            },
            "reads": self.reads, "writes": self.writes, "shed": self.shed,
            "remove_misses": self.remove_misses, "batch_failures": self.batch_failures,
            "timeouts": self.timeouts, "abandoned_generations": self.abandoned_generations,
            "wal_bytes": self.wal_bytes, "healthy_at_end": self.healthy_at_end,
            "read_qps": Json::fixed(self.read_qps, 1),
            "write_qps": Json::fixed(self.write_qps, 1),
            "read_latency_us": self.read_latency.json(),
            "read_latency_during_compaction_us": self.read_latency_during_compaction.json(),
            "write_latency_us": self.write_latency.json(),
            "compact_s": Json::fixed(self.compact_s, 3), "final_live_len": self.final_live_len,
        }
    }
}

/// What one closed-loop client measured.
#[derive(Default)]
struct ClientTally {
    reads: u64,
    writes: u64,
    remove_misses: u64,
    timeouts: u64,
    read_ns: Vec<u64>,
    read_ns_during_compaction: Vec<u64>,
    write_ns: Vec<u64>,
}

/// The serve experiment: builds the NYT-family engine, wraps it in
/// [`SnapshotEngine`] + [`ServeCore`], drives the closed-loop 90/10
/// read/write mix for the configured duration, and forces a full
/// compaction at the halfway point while the clients keep hammering.
pub fn run_serve(cfg: &ExpConfig, rc: ServeRunConfig) -> ServeReport {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let bench = Bench::load(cfg, Family::Nyt, 10);
    let k = bench.store().k();
    let n = bench.store().len();
    let domain = bench.ds.params.domain;
    let dataset = bench.ds.params.name.clone();
    let queries = &bench.queries;
    let theta_raw = raw_threshold(rc.theta, k);

    let engine = EngineBuilder::new(bench.ds.store)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .kernel(cfg.kernel)
        .algorithms(&[
            rc.algorithm,
            Algorithm::Fv,
            Algorithm::ListMerge,
            Algorithm::Coarse,
        ])
        .compaction_threshold(f64::INFINITY) // compaction is forced mid-run
        .build();
    // Serve durably: every accepted write hits the WAL before it is
    // acknowledged, group-committed so the latency tax stays small.
    let wal_path = std::env::temp_dir().join(format!("ranksim-serve-{}.wal", std::process::id()));
    let policy = SyncPolicy::GroupCommit {
        max_ops: 64,
        max_delay: Duration::from_millis(5),
    };
    let snapshot_engine = SnapshotEngine::with_wal(engine, &wal_path, policy)
        .expect("create the serve run's write-ahead log");
    let core = ServeCore::new(snapshot_engine, &rc);

    let deadline = Instant::now() + Duration::from_secs_f64(rc.duration_s);
    let compact_at = Instant::now() + Duration::from_secs_f64(rc.duration_s / 2.0);
    let compacting = AtomicBool::new(false);
    let perturb = PerturbParams {
        max_swaps: 3,
        replace_prob: 0.5,
    };

    let mut compact_s = 0.0;
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let dispatcher = scope.spawn(|| core.dispatch_loop());
        let clients: Vec<_> = (0..rc.clients)
            .map(|ci| {
                let core = &core;
                let compacting = &compacting;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(cfg.seed + 1000 + ci as u64);
                    let mut tally = ClientTally::default();
                    let mut op = 0usize;
                    while Instant::now() < deadline {
                        op += 1;
                        let write = rng.random_range(0.0..1.0) < rc.write_fraction;
                        if write {
                            let snap = core.engine().snapshot();
                            let victim = loop {
                                let id = RankingId(rng.random_range(0..snap.store().len() as u32));
                                if snap.is_live(id) {
                                    break id;
                                }
                            };
                            let t = Instant::now();
                            if op.is_multiple_of(2) {
                                let mut items = snap.store().items(victim).to_vec();
                                perturb_ranking(&mut items, domain, perturb, &mut rng);
                                core.engine().insert_ranking(&items);
                            } else if !core.engine().remove_ranking(victim) {
                                // Raced another client's remove of the
                                // same (snapshot-stale) victim.
                                tally.remove_misses += 1;
                            }
                            tally.write_ns.push(t.elapsed().as_nanos() as u64);
                            tally.writes += 1;
                        } else {
                            let q = queries[rng.random_range(0..queries.len())].clone();
                            let t = Instant::now();
                            match core.submit_read(q, theta_raw) {
                                Ok(rx) => {
                                    let reply = rx.recv().expect("dispatcher dropped a reply");
                                    let ns = t.elapsed().as_nanos() as u64;
                                    match reply {
                                        ReadReply::Done(_) => {
                                            tally.read_ns.push(ns);
                                            if compacting.load(Ordering::Relaxed) {
                                                tally.read_ns_during_compaction.push(ns);
                                            }
                                            tally.reads += 1;
                                        }
                                        ReadReply::TimedOut => tally.timeouts += 1,
                                    }
                                }
                                Err(SubmitError::Shed) => {
                                    // Back off a touch so a saturated
                                    // queue is not hammered in a spin.
                                    std::thread::yield_now();
                                }
                                Err(SubmitError::Stopped) => break,
                            }
                        }
                    }
                    tally
                })
            })
            .collect();

        // The driver thread: force a compaction at the halfway point
        // while the clients keep going, and time it to full
        // publication (master apply + replica rebuild).
        std::thread::sleep(compact_at.saturating_duration_since(Instant::now()));
        compacting.store(true, Ordering::Relaxed);
        let t = Instant::now();
        core.engine().compact();
        core.engine().flush();
        compact_s = t.elapsed().as_secs_f64();
        compacting.store(false, Ordering::Relaxed);

        let tallies: Vec<ClientTally> = clients
            .into_iter()
            .map(|h| h.join().expect("serve client panicked"))
            .collect();
        // Graceful shutdown: stop admission, let the dispatcher drain
        // the queue, then force the WAL's group-commit window to disk.
        core.shutdown();
        dispatcher.join().expect("serve dispatcher panicked");
        core.sync_wal().expect("sync the serve WAL on shutdown");
        tallies
    });

    let mut read_ns = Vec::new();
    let mut read_ns_dc = Vec::new();
    let mut write_ns = Vec::new();
    let (mut reads, mut writes, mut remove_misses, mut client_timeouts) = (0u64, 0u64, 0u64, 0u64);
    for mut t in tallies {
        reads += t.reads;
        writes += t.writes;
        remove_misses += t.remove_misses;
        client_timeouts += t.timeouts;
        read_ns.append(&mut t.read_ns);
        read_ns_dc.append(&mut t.read_ns_during_compaction);
        write_ns.append(&mut t.write_ns);
    }
    let _ = client_timeouts; // the core's counter is authoritative

    let health = core.engine().health();
    let wal_bytes = core.engine().wal_bytes().unwrap_or(0);
    let report = ServeReport {
        dataset,
        n,
        k,
        reads,
        writes,
        shed: core.shed.load(Ordering::Relaxed),
        remove_misses,
        batch_failures: core.batch_failures.load(Ordering::Relaxed),
        timeouts: core.timeouts.load(Ordering::Relaxed),
        abandoned_generations: core.engine().abandoned_generations(),
        wal_bytes,
        healthy_at_end: health.is_healthy() && !core.unhealthy.load(Ordering::Relaxed),
        read_qps: reads as f64 / rc.duration_s,
        write_qps: writes as f64 / rc.duration_s,
        read_latency: LatencyUs::from_ns(&mut read_ns),
        read_latency_during_compaction: LatencyUs::from_ns(&mut read_ns_dc),
        write_latency: LatencyUs::from_ns(&mut write_ns),
        compact_s,
        final_live_len: core.engine().snapshot().live_len(),
        config: rc,
    };
    // The bench WAL is scratch; a real deployment would keep it.
    drop(core);
    let _ = std::fs::remove_file(&wal_path);
    report
}

// ---------------------------------------------------------------------
// Socket front-end
// ---------------------------------------------------------------------

/// Longest request line the socket front door accepts. A legitimate
/// request is a few hundred bytes (one size-`k` ranking); anything
/// approaching this bound is malformed or hostile, and the read loop
/// must never buffer an attacker-controlled unbounded line.
const MAX_LINE: usize = 64 * 1024;

/// How often the accept loop re-checks [`ServeCore::shutdown`] while
/// no connection is arriving.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// One framing outcome of [`read_frame`].
enum Frame {
    /// A complete line (without its terminator), valid UTF-8.
    Line(String),
    /// A complete line that was not valid UTF-8 (answer `ERR`, keep
    /// the connection — framing is still line-aligned).
    NotUtf8,
    /// The line exceeded [`MAX_LINE`] before a terminator arrived
    /// (answer `ERR` and hang up; the remainder is unbounded).
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated frame with a hard length bound, never
/// buffering more than [`MAX_LINE`] bytes no matter what the peer
/// sends. Split out over `BufRead` so tests can drive it with a
/// cursor instead of a socket.
fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Frame> {
    buf.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if buf.is_empty() {
                return Ok(Frame::Eof);
            }
            // Final unterminated line.
            break;
        }
        if let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..nl]);
            reader.consume(nl + 1);
            if buf.len() > MAX_LINE {
                return Ok(Frame::TooLong);
            }
            break;
        }
        buf.extend_from_slice(chunk);
        let n = chunk.len();
        reader.consume(n);
        if buf.len() > MAX_LINE {
            return Ok(Frame::TooLong);
        }
    }
    match std::str::from_utf8(buf) {
        Ok(s) => Ok(Frame::Line(s.to_string())),
        Err(_) => Ok(Frame::NotUtf8),
    }
}

/// Serves the line protocol on `listener` until [`ServeCore::shutdown`]
/// (one thread per connection; the dispatcher must be running):
///
/// * `Q <theta> <i1,i2,...>` → `R <id1,id2,...>` | `SHED` | `TIMEOUT`
///   | `ERR <why>`
/// * `I <i1,i2,...>` → `OK <id>` | `ERR <why>`
/// * `D <id>` → `OK` | `MISS` | `ERR <why>`
///
/// `theta` is the normalized threshold in `[0, 1]`. All ranking input
/// is validated before it can reach the engine's panicking asserts;
/// frames are length-bounded, non-UTF-8 input gets `ERR`, and a
/// connection idle past the configured timeout is hung up on.
pub fn serve_socket(core: &Arc<ServeCore>, listener: TcpListener) {
    let idle = Duration::from_secs(ServeRunConfig::from_env().idle_timeout_s);
    // Accept in a poll loop: a blocking `accept()` would hold this
    // thread hostage after `shutdown()` until one more peer happened
    // to connect. (If nonblocking mode is unavailable the loop
    // degrades to the blocking behavior.)
    let polling = listener.set_nonblocking(true).is_ok();
    std::thread::scope(|scope| loop {
        if core.stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Connection I/O is blocking (bounded by the idle
                // timeout), whatever mode the listener is in.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let core = Arc::clone(core);
                scope.spawn(move || handle_connection(&core, stream, idle));
            }
            Err(e) if polling && e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => continue,
        }
    });
}

fn handle_connection(core: &ServeCore, stream: TcpStream, idle_timeout: Duration) {
    // An idle peer holds a thread and a file descriptor; bound it.
    let _ = stream.set_read_timeout(Some(idle_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let response = match read_frame(&mut reader, &mut buf) {
            Ok(Frame::Line(line)) => handle_line(core, line.trim()),
            Ok(Frame::NotUtf8) => "ERR request is not utf-8".to_string(),
            Ok(Frame::TooLong) => {
                // Cannot resync framing on an unbounded line: say why,
                // then hang up.
                let _ = writer.write_all(b"ERR line too long\n");
                return;
            }
            // Idle timeout (WouldBlock/TimedOut, platform-dependent)
            // or a broken peer: hang up either way.
            Ok(Frame::Eof) | Err(_) => return,
        };
        if writer.write_all(response.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            return;
        }
    }
}

/// Parses a comma-separated item list into a validated size-`k`
/// ranking.
fn parse_items(list: &str, k: usize) -> Result<Vec<ItemId>, String> {
    let items: Result<Vec<ItemId>, _> = list
        .split(',')
        .map(|s| s.trim().parse::<u32>().map(ItemId))
        .collect();
    let items = items.map_err(|e| format!("bad item id: {e}"))?;
    validate_items(&items, k).map_err(|e| e.to_string())?;
    Ok(items)
}

/// One request line → one response line (no I/O; unit-testable).
fn handle_line(core: &ServeCore, line: &str) -> String {
    let k = core.engine.snapshot().store().k();
    let mut parts = line.splitn(3, ' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("Q"), Some(theta), Some(items)) => {
            let theta: f64 = match theta.parse() {
                Ok(t) if (0.0..=1.0).contains(&t) => t,
                _ => return "ERR theta must be a number in [0, 1]".into(),
            };
            let query = match parse_items(items, k) {
                Ok(q) => q,
                Err(e) => return format!("ERR {e}"),
            };
            match core.submit_read(query, raw_threshold(theta, k)) {
                Ok(rx) => match rx.recv() {
                    Ok(ReadReply::Done(ids)) => {
                        let ids: Vec<String> = ids.iter().map(|id| id.0.to_string()).collect();
                        format!("R {}", ids.join(","))
                    }
                    Ok(ReadReply::TimedOut) => "TIMEOUT".into(),
                    Err(_) => "ERR service stopped".into(),
                },
                Err(SubmitError::Shed) => "SHED".into(),
                Err(SubmitError::Stopped) => "ERR service stopped".into(),
            }
        }
        (Some("I"), Some(items), None) => match parse_items(items, k) {
            // The typed writer API: a WAL fail-stop comes back as ERR,
            // never as a panic inside the connection thread.
            Ok(items) => match core.engine.try_insert_ranking(&items) {
                Ok(id) => format!("OK {}", id.0),
                Err(e) => format!("ERR {e}"),
            },
            Err(e) => format!("ERR {e}"),
        },
        (Some("D"), Some(id), None) => match id.parse::<u32>() {
            Ok(id) => match core.engine.try_remove_ranking(RankingId(id)) {
                Ok(true) => "OK".into(),
                Ok(false) => "MISS".into(),
                Err(e) => format!("ERR {e}"),
            },
            Err(e) => format!("ERR bad ranking id: {e}"),
        },
        _ => "ERR expected Q <theta> <items> | I <items> | D <id>".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ranksim_datasets::nyt_like;
    use ranksim_rankings::QueryStats;

    fn tiny_core_with_budget(queue_capacity: usize, read_budget_ms: u64) -> ServeCore {
        let ds = nyt_like(200, 8, 11);
        let engine = EngineBuilder::new(ds.store)
            .algorithms(&[Algorithm::Fv])
            .build();
        let rc = ServeRunConfig {
            clients: 1,
            batch_threads: 1,
            duration_s: 1.0,
            write_fraction: 0.1,
            theta: 0.1,
            algorithm: Algorithm::Fv,
            queue_capacity,
            batch_max: 8,
            read_budget_ms,
            idle_timeout_s: 60,
        };
        ServeCore::new(SnapshotEngine::new(engine), &rc)
    }

    fn tiny_core(queue_capacity: usize) -> ServeCore {
        tiny_core_with_budget(queue_capacity, 2000)
    }

    #[test]
    fn admission_control_sheds_past_capacity() {
        // No dispatcher running: the queue fills and must shed.
        let core = tiny_core(2);
        let q: Vec<ItemId> = core
            .engine()
            .snapshot()
            .store()
            .items(RankingId(0))
            .to_vec();
        assert!(core.submit_read(q.clone(), 10).is_ok());
        assert!(core.submit_read(q.clone(), 10).is_ok());
        assert!(matches!(
            core.submit_read(q.clone(), 10),
            Err(SubmitError::Shed)
        ));
        assert_eq!(core.shed.load(Ordering::Relaxed), 1);
        core.shutdown();
        assert!(matches!(core.submit_read(q, 10), Err(SubmitError::Stopped)));
        // Drain the queue so pending replies do not leak: the
        // dispatcher serves what was admitted, then returns.
        core.dispatch_loop();
    }

    #[test]
    fn dispatcher_answers_match_direct_queries() {
        let core = tiny_core(64);
        let snap = core.engine().snapshot();
        let theta = raw_threshold(0.2, 8);
        std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| core.dispatch_loop());
            let mut expected_scratch = snap.scratch();
            let mut stats = QueryStats::new();
            for i in 0..20u32 {
                let q: Vec<ItemId> = snap.store().items(RankingId(i * 7 % 200)).to_vec();
                let rx = core.submit_read(q.clone(), theta).expect("admitted");
                let got = match rx.recv().expect("reply") {
                    ReadReply::Done(ids) => ids,
                    ReadReply::TimedOut => panic!("query {i} timed out"),
                };
                let expect =
                    snap.query_items(Algorithm::Fv, &q, theta, &mut expected_scratch, &mut stats);
                assert_eq!(got, expect, "query {i}");
            }
            core.shutdown();
            dispatcher.join().unwrap();
        });
    }

    #[test]
    fn socket_protocol_round_trips() {
        let core = Arc::new(tiny_core(64));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let dispatcher = {
                let core = Arc::clone(&core);
                scope.spawn(move || core.dispatch_loop())
            };
            let server = {
                let core = Arc::clone(&core);
                scope.spawn(move || serve_socket(&core, listener))
            };

            // Scoped so the connection closes (EOF for the handler
            // thread) before the server is asked to wind down.
            {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut send = |line: &str| -> String {
                    let mut s = stream.try_clone().unwrap();
                    s.write_all(line.as_bytes()).unwrap();
                    s.write_all(b"\n").unwrap();
                    let mut response = String::new();
                    reader.read_line(&mut response).unwrap();
                    response.trim_end().to_string()
                };

                // A self-query at θ = 0 must find the ranking itself.
                let items: Vec<String> = core
                    .engine()
                    .snapshot()
                    .store()
                    .items(RankingId(3))
                    .iter()
                    .map(|i| i.0.to_string())
                    .collect();
                let q = items.join(",");
                let r = send(&format!("Q 0.0 {q}"));
                assert!(r.starts_with("R "), "got: {r}");
                assert!(r[2..].split(',').any(|id| id == "3"), "got: {r}");

                // Malformed input degrades to ERR — never a panic.
                assert!(send("Q 0.1 1,2,3").starts_with("ERR"), "wrong length");
                assert!(
                    send("Q 0.1 1,1,2,3,4,5,6,7").starts_with("ERR"),
                    "duplicate"
                );
                assert!(send(&format!("Q 7 {q}")).starts_with("ERR"), "bad theta");
                assert!(send("nonsense").starts_with("ERR"));

                // Insert a fresh ranking, find it, delete it, miss it.
                let fresh = "900,901,902,903,904,905,906,907";
                let r = send(&format!("I {fresh}"));
                assert!(r.starts_with("OK "), "got: {r}");
                let id: u32 = r[3..].parse().unwrap();
                core.engine().flush();
                let r = send(&format!("Q 0.0 {fresh}"));
                assert!(r[2..].split(',').any(|x| x == id.to_string()), "got: {r}");
                assert_eq!(send(&format!("D {id}")), "OK");
                assert_eq!(send(&format!("D {id}")), "MISS");
            }

            core.shutdown();
            dispatcher.join().unwrap();
            // The accept loop polls the stop flag; no nudge connection
            // is needed for the server thread to exit.
            server.join().unwrap();
        });
    }

    #[test]
    fn reads_expired_in_the_queue_get_timeout_not_results() {
        // A 1 ms budget and no dispatcher while requests age: by the
        // time the dispatcher drains them they are long expired.
        let core = tiny_core_with_budget(64, 1);
        let q: Vec<ItemId> = core
            .engine()
            .snapshot()
            .store()
            .items(RankingId(0))
            .to_vec();
        let rx1 = core.submit_read(q.clone(), 10).expect("admitted");
        let rx2 = core.submit_read(q, 10).expect("admitted");
        std::thread::sleep(Duration::from_millis(20));
        core.shutdown();
        core.dispatch_loop();
        assert_eq!(rx1.recv().unwrap(), ReadReply::TimedOut);
        assert_eq!(rx2.recv().unwrap(), ReadReply::TimedOut);
        assert_eq!(core.timeouts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn read_frame_bounds_hostile_input() {
        use std::io::Cursor;
        let mut buf = Vec::new();

        // A normal line round-trips.
        let mut r = Cursor::new(b"Q 0.1 1,2,3\nrest".to_vec());
        match read_frame(&mut r, &mut buf).unwrap() {
            Frame::Line(l) => assert_eq!(l, "Q 0.1 1,2,3"),
            _ => panic!("expected a line"),
        }

        // An endless unterminated line is cut at the bound, not
        // buffered to exhaustion.
        let mut r = Cursor::new(vec![b'x'; MAX_LINE + 100]);
        assert!(matches!(
            read_frame(&mut r, &mut buf).unwrap(),
            Frame::TooLong
        ));

        // A terminated-but-oversized line is also rejected.
        let mut big = vec![b'y'; MAX_LINE + 1];
        big.push(b'\n');
        let mut r = Cursor::new(big);
        assert!(matches!(
            read_frame(&mut r, &mut buf).unwrap(),
            Frame::TooLong
        ));

        // Non-UTF-8 is detected, framing stays aligned.
        let mut r = Cursor::new(b"\xff\xfe\xfd\nQ next\n".to_vec());
        assert!(matches!(
            read_frame(&mut r, &mut buf).unwrap(),
            Frame::NotUtf8
        ));
        match read_frame(&mut r, &mut buf).unwrap() {
            Frame::Line(l) => assert_eq!(l, "Q next"),
            _ => panic!("framing lost alignment after a bad line"),
        }

        // Clean EOF.
        let mut r = Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut r, &mut buf).unwrap(), Frame::Eof));
    }

    /// One engine shared across all proptest cases: `queue_capacity: 0`
    /// sheds every admitted read instantly, so no dispatcher is needed
    /// and `rx.recv()` inside `handle_line` can never block.
    fn fuzz_core() -> &'static ServeCore {
        static CORE: std::sync::OnceLock<ServeCore> = std::sync::OnceLock::new();
        CORE.get_or_init(|| tiny_core(0))
    }

    /// Every reply `handle_line` may legitimately produce.
    fn known_reply(r: &str) -> bool {
        r.starts_with("ERR")
            || r.starts_with("OK")
            || r.starts_with("R ")
            || r == "SHED"
            || r == "TIMEOUT"
            || r == "MISS"
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        // Structured-ish garbage: a (possibly wrong) verb, a numeric
        // field and a comma-joined item list with printable noise.
        #[test]
        fn handle_line_never_panics_on_structured_garbage(
            verb in proptest::sample::subsequence(
                vec!["Q", "I", "D", "X", "QQ", ""], 1),
            theta in -3.0f64..9.0,
            items in proptest::collection::vec(0u32..1500, 0..12),
            noise in proptest::collection::vec(32u8..127, 0..24),
        ) {
            let items: Vec<String> = items.iter().map(u32::to_string).collect();
            let noise = String::from_utf8(noise).unwrap();
            let line = format!("{} {theta} {}{noise}", verb[0], items.join(","));
            let r = handle_line(fuzz_core(), line.trim());
            prop_assert!(known_reply(&r), "unrecognized response {r:?} to {line:?}");
        }

        // Unstructured byte soup over the printable-ASCII range plus
        // tab (valid UTF-8 by construction; non-UTF-8 is rejected by
        // the framing layer and never reaches handle_line).
        #[test]
        fn handle_line_never_panics_on_byte_soup(
            bytes in proptest::collection::vec(9u8..127, 0..120),
        ) {
            let line = String::from_utf8(bytes).unwrap();
            let r = handle_line(fuzz_core(), line.trim());
            prop_assert!(known_reply(&r), "unrecognized response {r:?} to {line:?}");
        }
    }
}
