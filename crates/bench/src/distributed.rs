//! The distributed-serving experiment (`repro distributed`): what the
//! process boundary costs, what medoid pruning saves, and how fast the
//! router heals from a dead worker.
//!
//! The run streams an NYT-family corpus into a medoid-routed
//! [`ShardedEngine`], saves it as a sharded `RSSN` snapshot, and
//! launches a [`RemoteShardedEngine`] over it — one worker process per
//! shard, spawned from the snapshot (the hidden `repro shard-worker`
//! subcommand is the worker body). Three measurements:
//!
//! 1. **Fan-out reduction** — threshold queries at the configured θ,
//!    counting `(query, worker)` requests actually sent against the
//!    broadcast fan-out `queries × workers`; the difference is what
//!    the pivot/radius bound pruned.
//! 2. **Scaling vs in-process** — the identical serial query loop
//!    through the in-process `ShardedEngine` and through the router,
//!    reported as queries/s each; the gap is protocol + syscall cost.
//! 3. **Kill-a-worker recovery** — one worker is SIGKILLed and the
//!    next broadcast query is timed end to end: death detection (EOF),
//!    respawn from the snapshot, reissue, merge.
//!
//! The run self-checks: every distributed answer — threshold and
//! top-k, before and after the kill — is asserted bit-identical to the
//! in-process engine, so a wrong merge fails the benchmark rather than
//! producing pretty numbers.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ranksim_core::engine::Algorithm;
use ranksim_core::shard::{ShardStrategy, ShardedEngine, ShardedEngineBuilder};
use ranksim_core::{save_sharded, RemoteOptions, RemoteShardedEngine, RemoteStats, WorkerSpec};
use ranksim_datasets::{perturb_ranking, ClusteredZipfGenerator, PerturbParams};
use ranksim_rankings::{raw_threshold, ItemId, QueryStats};

use crate::{env_or, json_obj, ExpConfig, Json};

/// Configuration of one `repro distributed` run.
#[derive(Debug, Clone, Copy)]
pub struct DistRunConfig {
    /// Shard count = worker-process count (`RANKSIM_DIST_SHARDS`).
    pub shards: usize,
    /// Normalized query threshold θ of the measured loop.
    pub theta: f64,
    /// The algorithm every worker runs.
    pub algorithm: Algorithm,
    /// Whether to SIGKILL a worker and measure the healing query
    /// (`RANKSIM_DIST_KILL`, default on).
    pub kill_worker: bool,
}

impl DistRunConfig {
    /// Defaults plus environment overrides.
    pub fn from_env() -> Self {
        DistRunConfig {
            shards: env_or("RANKSIM_DIST_SHARDS", 4usize).max(1),
            theta: 0.1,
            algorithm: Algorithm::Fv,
            kill_worker: env_or("RANKSIM_DIST_KILL", 1usize) != 0,
        }
    }
}

/// Everything one distributed run measured (the
/// `BENCH_distributed.json` artifact).
#[derive(Debug, Clone)]
pub struct DistBenchReport {
    /// Dataset name.
    pub dataset: String,
    /// Corpus size.
    pub n: usize,
    /// Ranking size.
    pub k: usize,
    /// Worker processes launched (present shards).
    pub workers: usize,
    /// Queries in the measured loop.
    pub queries: usize,
    /// Sharded build time (s).
    pub build_s: f64,
    /// Sharded snapshot save time (s).
    pub save_s: f64,
    /// Worker fleet spawn + handshake time (s).
    pub launch_s: f64,
    /// Serial in-process queries/s over the identical loop.
    pub inproc_qps: f64,
    /// Serial distributed queries/s over the identical loop.
    pub dist_qps: f64,
    /// Router fan-out counters over the measured loop.
    pub stats: RemoteStats,
    /// Per-worker `(shard, live, pivot balls, max radius)` bounds.
    pub worker_bounds: Vec<(usize, u32, usize, u32)>,
    /// Router counters of the kill/heal arm (deaths, respawns).
    pub heal_stats: RemoteStats,
    /// End-to-end healing time of the post-SIGKILL query (ms; 0 when
    /// the kill arm is disabled).
    pub kill_recovery_ms: f64,
    /// The run configuration.
    pub config: DistRunConfig,
}

impl DistBenchReport {
    /// Broadcast fan-out: what every query would cost without pruning.
    pub fn broadcast_fanout(&self) -> u64 {
        self.queries as u64 * self.workers as u64
    }

    /// Fraction of the broadcast fan-out the pivot/radius bound saved.
    pub fn fanout_reduction(&self) -> f64 {
        let broadcast = self.broadcast_fanout();
        if broadcast == 0 {
            return 0.0;
        }
        self.stats.fanout_pruned as f64 / broadcast as f64
    }

    /// Distributed throughput as a fraction of in-process throughput.
    pub fn relative_throughput(&self) -> f64 {
        if self.inproc_qps <= 0.0 {
            return 0.0;
        }
        self.dist_qps / self.inproc_qps
    }

    /// The report as JSON (the CI artifact).
    pub fn to_json(&self) -> Json {
        let (c, heal) = (&self.config, &self.heal_stats);
        let bounds = self.worker_bounds.iter().map(|&(shard, live, balls, r)| {
            json_obj! {"shard": shard, "live": live, "pivots": balls, "max_radius": r}
        });
        json_obj! {
            "bench": "distributed",
            "workload": json_obj! {
                "dataset": self.dataset.as_str(), "n": self.n, "k": self.k,
                "queries": self.queries, "theta": c.theta, "algorithm": c.algorithm.to_string(),
            },
            "shards": c.shards, "workers": self.workers,
            "build_s": Json::fixed(self.build_s, 3),
            "save_s": Json::fixed(self.save_s, 3),
            "launch_s": Json::fixed(self.launch_s, 3),
            "inproc_qps": Json::fixed(self.inproc_qps, 1),
            "dist_qps": Json::fixed(self.dist_qps, 1),
            "relative_throughput": Json::fixed(self.relative_throughput(), 3),
            "fanout": json_obj! {
                "broadcast": self.broadcast_fanout(), "sent": self.stats.fanout_sent,
                "pruned": self.stats.fanout_pruned,
                "reduction": Json::fixed(self.fanout_reduction(), 3),
            },
            "worker_bounds": Json::arr(bounds),
            "failover": json_obj! {
                "killed": c.kill_worker, "worker_deaths": heal.worker_deaths,
                "respawns": heal.respawns, "hedges": heal.hedges,
                "recovery_ms": Json::fixed(self.kill_recovery_ms, 2),
            },
        }
    }
}

/// Streams the corpus into a medoid-routed sharded engine (medoid
/// routing gives the pivot/radius bound clustered shards to prune).
fn build_sharded(
    cfg: &ExpConfig,
    rc: DistRunConfig,
    k: usize,
) -> (ShardedEngine, Vec<Vec<ItemId>>, String, usize) {
    let params = ranksim_datasets::nyt_like_params(cfg.nyt_n, k, cfg.seed);
    let n = params.n;
    let domain = params.domain;
    let dataset = params.name.clone();
    let generator = ClusteredZipfGenerator::new(params);
    let mut builder = ShardedEngineBuilder::new(k, rc.shards, ShardStrategy::Medoid)
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .kernel(cfg.kernel)
        .algorithms(&[rc.algorithm]);
    let stride = (n / cfg.queries.max(1)).max(1);
    let mut bases: Vec<Vec<ItemId>> = Vec::with_capacity(cfg.queries);
    let mut i = 0usize;
    generator.for_each(|items| {
        if i.is_multiple_of(stride) && bases.len() < cfg.queries {
            bases.push(items.to_vec());
        }
        builder.push_ranking(items);
        i += 1;
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed + 7);
    let perturb = PerturbParams {
        max_swaps: 3,
        replace_prob: 0.5,
    };
    for q in &mut bases {
        perturb_ranking(q, domain, perturb, &mut rng);
    }
    (builder.build(), bases, dataset, n)
}

/// The distributed experiment (see the module docs). `worker` is how
/// the router starts each shard process — the `repro` binary passes
/// itself with the hidden `shard-worker` subcommand.
pub fn run_distributed(cfg: &ExpConfig, rc: DistRunConfig, worker: WorkerSpec) -> DistBenchReport {
    let k = 10usize;
    let t_build = Instant::now();
    let (sharded, queries, dataset, n) = build_sharded(cfg, rc, k);
    let build_s = t_build.elapsed().as_secs_f64();
    let raw = raw_threshold(rc.theta, k);

    let dir = std::env::temp_dir().join(format!("ranksim-dist-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t_save = Instant::now();
    save_sharded(&dir, &sharded).expect("save sharded snapshot");
    let save_s = t_save.elapsed().as_secs_f64();

    let t_launch = Instant::now();
    let mut remote = RemoteShardedEngine::launch(&dir, worker, RemoteOptions::default())
        .expect("launch shard workers");
    let launch_s = t_launch.elapsed().as_secs_f64();

    // --- Arm 1: in-process oracle + baseline throughput --------------
    let mut scratch = sharded.scratch();
    let mut qstats = QueryStats::new();
    let t_in = Instant::now();
    let oracle: Vec<_> = queries
        .iter()
        .map(|q| sharded.query_items(rc.algorithm, q, raw, &mut scratch, &mut qstats))
        .collect();
    let inproc_s = t_in.elapsed().as_secs_f64();

    // --- Arm 2: the identical loop through the worker fleet ----------
    let t_dist = Instant::now();
    for (q, expect) in queries.iter().zip(&oracle) {
        let got = remote
            .query_threshold(rc.algorithm, q, raw)
            .expect("distributed threshold query");
        assert_eq!(&got, expect, "distributed answer diverged from in-process");
    }
    let dist_s = t_dist.elapsed().as_secs_f64();
    let loop_stats = remote.take_stats();

    let worker_bounds: Vec<(usize, u32, usize, u32)> = remote
        .worker_hellos()
        .map(|h| (h.shard as usize, h.live, h.bounds.len(), h.max_radius()))
        .collect();

    // --- Arm 3: SIGKILL one worker, time the healing query -----------
    let mut kill_recovery_ms = 0.0;
    let mut heal_stats = RemoteStats::default();
    if rc.kill_worker && !queries.is_empty() {
        assert!(remote.kill_worker(0), "shard 0 has a worker to kill");
        // Top-k broadcasts, so the dead worker cannot be pruned around:
        // the query below *must* detect the death, respawn, reissue.
        let expect = sharded.query_topk(&queries[0], 10, &mut scratch, &mut qstats);
        let t_kill = Instant::now();
        let got = remote
            .query_topk(&queries[0], 10)
            .expect("healing query after SIGKILL");
        kill_recovery_ms = t_kill.elapsed().as_secs_f64() * 1e3;
        assert_eq!(got, expect, "post-respawn answer diverged");
        heal_stats = remote.take_stats();
        assert!(heal_stats.worker_deaths >= 1, "the SIGKILL went undetected");
        assert!(
            heal_stats.respawns >= 1,
            "the dead worker was never respawned"
        );
    }

    let workers = remote.num_workers();
    drop(remote);
    let _ = std::fs::remove_dir_all(&dir);

    DistBenchReport {
        dataset,
        n,
        k,
        workers,
        queries: queries.len(),
        build_s,
        save_s,
        launch_s,
        inproc_qps: queries.len() as f64 / inproc_s.max(1e-9),
        dist_qps: queries.len() as f64 / dist_s.max(1e-9),
        stats: loop_stats,
        worker_bounds,
        heal_stats,
        kill_recovery_ms,
        config: rc,
    }
}
