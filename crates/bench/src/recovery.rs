//! The durability experiment (`repro recovery`): what crash safety
//! costs on the write path, and what it buys back at recovery time.
//!
//! Two measurements, both against the WAL-backed
//! [`SnapshotEngine`](ranksim_core::SnapshotEngine) over the NYT-family
//! corpus:
//!
//! 1. **Sync-policy write cost** — the identical write sequence is
//!    driven through an engine with no WAL (the baseline), then under
//!    [`SyncPolicy::PerOp`], `GroupCommit` and `SyncPolicy::None`,
//!    reporting µs per acknowledged write. The gap between the baseline
//!    and `None` is the codec + append cost; the gap to `PerOp` is the
//!    price of an fsync per acknowledgment.
//! 2. **Recovery time vs log length** — logs of increasing length are
//!    written, then [`SnapshotEngine::recover`] is timed cold: scan,
//!    checksum, decode and replay. Recovery must scale linearly in the
//!    log, which is what the per-point ops/s column shows.
//!
//! The run self-checks: every recovery's `applied` count, truncation
//! and resulting live-corpus size are asserted against the op sequence
//! it was given, so a silently wrong recovery fails the benchmark run
//! rather than producing pretty numbers.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_core::{SnapshotEngine, SyncPolicy};
use ranksim_datasets::{perturb_ranking, PerturbParams};
use ranksim_rankings::{ItemId, RankingId};

use crate::{env_or, json_obj, Bench, ExpConfig, Family, Json};

/// Configuration of one `repro recovery` run.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRunConfig {
    /// Writes in the measured sequence (`RANKSIM_RECOVERY_OPS`;
    /// default `nyt_n / 10`, at least 1000). The recovery sweep times
    /// logs of a quarter, half and the full length.
    pub ops: usize,
    /// Group-commit window used for the `GroupCommit` arm.
    pub group_max_ops: u32,
    /// Group-commit max delay in milliseconds.
    pub group_max_delay_ms: u64,
}

impl RecoveryRunConfig {
    /// Defaults plus environment overrides.
    pub fn from_env(cfg: &ExpConfig) -> Self {
        RecoveryRunConfig {
            ops: env_or("RANKSIM_RECOVERY_OPS", (cfg.nyt_n / 10).max(1000)),
            group_max_ops: 64,
            group_max_delay_ms: 5,
        }
    }
}

/// One write of the deterministic sequence (3:1 inserts to removes, so
/// the corpus grows and removes always target a live id).
enum WriteOp {
    Insert(Vec<ItemId>),
    Remove(RankingId),
}

/// Write cost of one durability arm.
#[derive(Debug, Clone)]
pub struct PolicyCost {
    /// Arm label (`no_wal`, `wal_none`, `wal_group_commit`, `wal_per_op`).
    pub arm: String,
    /// Microseconds per acknowledged write (including the final sync).
    pub us_per_op: f64,
    /// Final WAL size in bytes (0 for the no-WAL baseline).
    pub wal_bytes: u64,
}

/// One point of the recovery-time sweep.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// Log length in records.
    pub ops: u64,
    /// Log length in bytes.
    pub wal_bytes: u64,
    /// Cold recovery wall time (scan + checksum + decode + replay), s.
    pub recover_s: f64,
    /// Records replayed per second.
    pub ops_per_s: f64,
}

/// Everything one recovery run measured (the `BENCH_recovery.json`
/// artifact).
#[derive(Debug, Clone)]
pub struct RecoveryBenchReport {
    /// Dataset name.
    pub dataset: String,
    /// Base corpus size.
    pub n: usize,
    /// Ranking size.
    pub k: usize,
    /// Writes in the measured sequence.
    pub ops: usize,
    /// Write cost per durability arm.
    pub policy_costs: Vec<PolicyCost>,
    /// Recovery time at increasing log lengths.
    pub points: Vec<RecoveryPoint>,
    /// The run configuration.
    pub config: RecoveryRunConfig,
}

impl RecoveryBenchReport {
    /// The slowest measured recovery (the CI budget's subject).
    pub fn worst_recover_s(&self) -> f64 {
        self.points.iter().map(|p| p.recover_s).fold(0.0, f64::max)
    }

    /// The report as JSON (the CI artifact).
    pub fn to_json(&self) -> Json {
        let per_arm = |f: fn(&PolicyCost) -> Json| {
            Json::map(self.policy_costs.iter().map(|c| (&c.arm, f(c))))
        };
        let points = self.points.iter().map(|p| {
            json_obj! {
                "ops": p.ops, "wal_bytes": p.wal_bytes,
                "recover_s": Json::fixed(p.recover_s, 4), "ops_per_s": Json::fixed(p.ops_per_s, 0),
            }
        });
        json_obj! {
            "bench": "recovery",
            "workload": json_obj! {
                "dataset": self.dataset.as_str(), "n": self.n, "k": self.k, "ops": self.ops,
            },
            "group_commit": json_obj! {
                "max_ops": self.config.group_max_ops,
                "max_delay_ms": self.config.group_max_delay_ms,
            },
            "write_us_per_op": per_arm(|c| Json::fixed(c.us_per_op, 3)),
            "wal_bytes": per_arm(|c| c.wal_bytes.into()),
            "recovery": Json::arr(points),
            "worst_recover_s": Json::fixed(self.worst_recover_s(), 4),
        }
    }
}

/// Derives the deterministic write sequence: inserts of perturbed
/// copies of live rankings (the data distribution) against removals of
/// random live ids, 3:1.
fn derive_writes(bench: &Bench, ops: usize, seed: u64) -> Vec<WriteOp> {
    let store = bench.store();
    let domain = bench.ds.params.domain;
    let mut rng = StdRng::seed_from_u64(seed);
    let perturb = PerturbParams {
        max_swaps: 3,
        replace_prob: 0.5,
    };
    // Live tracking mirrors what every arm will replay.
    let mut live: Vec<u32> = (0..store.len() as u32).collect();
    let mut next_id = store.len() as u32;
    let mut writes = Vec::with_capacity(ops);
    for _ in 0..ops {
        if rng.random_range(0..4u32) < 3 || live.len() < 16 {
            let donor = live[rng.random_range(0..live.len())];
            let mut items = if (donor as usize) < store.len() && store.is_live(RankingId(donor)) {
                store.items(RankingId(donor)).to_vec()
            } else {
                // Donor was inserted during the sequence; synthesize
                // from the domain instead of tracking every payload.
                let mut v = Vec::with_capacity(store.k());
                while v.len() < store.k() {
                    let cand = ItemId(rng.random_range(0..domain));
                    if !v.contains(&cand) {
                        v.push(cand);
                    }
                }
                v
            };
            perturb_ranking(&mut items, domain, perturb, &mut rng);
            live.push(next_id);
            next_id += 1;
            writes.push(WriteOp::Insert(items));
        } else {
            let slot = rng.random_range(0..live.len());
            let victim = live.swap_remove(slot);
            writes.push(WriteOp::Remove(RankingId(victim)));
        }
    }
    writes
}

fn build_base(bench: &Bench) -> Engine {
    EngineBuilder::new(bench.ds.store.clone())
        .coarse_threshold(0.5)
        .coarse_drop_threshold(0.06)
        .algorithms(&[Algorithm::Fv])
        .compaction_threshold(f64::INFINITY) // pure write-path timings
        .build()
}

/// Applies `writes[..len]` through `service`, returning µs per op
/// (wall time including the final WAL sync).
fn apply_writes(service: &SnapshotEngine, writes: &[WriteOp], len: usize) -> f64 {
    let t = Instant::now();
    for w in &writes[..len] {
        match w {
            WriteOp::Insert(items) => {
                service.insert_ranking(items);
            }
            WriteOp::Remove(id) => {
                assert!(service.remove_ranking(*id), "removes target live ids");
            }
        }
    }
    service.sync_wal().expect("final sync");
    t.elapsed().as_secs_f64() * 1e6 / len.max(1) as f64
}

/// Live-corpus size after `writes[..len]` on a base of `n` rankings.
fn expected_live(n: usize, writes: &[WriteOp], len: usize) -> usize {
    let removes = writes[..len]
        .iter()
        .filter(|w| matches!(w, WriteOp::Remove(_)))
        .count();
    n + (len - removes) - removes
}

/// The recovery experiment (see the module docs).
pub fn run_recovery(cfg: &ExpConfig, rc: RecoveryRunConfig) -> RecoveryBenchReport {
    let bench = Bench::load(cfg, Family::Nyt, 10);
    let n = bench.store().len();
    let k = bench.store().k();
    let writes = derive_writes(&bench, rc.ops, cfg.seed + 1300);
    let wal_path =
        std::env::temp_dir().join(format!("ranksim-recovery-{}.wal", std::process::id()));

    // --- Arm 1: sync-policy write cost over the identical sequence ---
    let group = SyncPolicy::GroupCommit {
        max_ops: rc.group_max_ops,
        max_delay: std::time::Duration::from_millis(rc.group_max_delay_ms),
    };
    let mut policy_costs = Vec::new();
    {
        let service = SnapshotEngine::new(build_base(&bench));
        let us = apply_writes(&service, &writes, rc.ops);
        policy_costs.push(PolicyCost {
            arm: "no_wal".into(),
            us_per_op: us,
            wal_bytes: 0,
        });
    }
    for (arm, policy) in [
        ("wal_none", SyncPolicy::None),
        ("wal_group_commit", group),
        ("wal_per_op", SyncPolicy::PerOp),
    ] {
        let service = SnapshotEngine::with_wal(build_base(&bench), &wal_path, policy)
            .expect("create bench WAL");
        let us = apply_writes(&service, &writes, rc.ops);
        let wal_bytes = service.wal_bytes().expect("WAL-backed engine");
        assert!(
            service.health().is_healthy(),
            "write arm '{arm}' left the engine unhealthy"
        );
        policy_costs.push(PolicyCost {
            arm: arm.into(),
            us_per_op: us,
            wal_bytes,
        });
    }

    // --- Arm 2: recovery time vs log length ---
    let mut points = Vec::new();
    for len in [rc.ops / 4, rc.ops / 2, rc.ops] {
        let len = len.max(1);
        {
            let service = SnapshotEngine::with_wal(build_base(&bench), &wal_path, SyncPolicy::None)
                .expect("create sweep WAL");
            apply_writes(&service, &writes, len);
        }
        let wal_bytes = std::fs::metadata(&wal_path)
            .expect("sweep WAL exists")
            .len();
        let base = build_base(&bench);
        let t = Instant::now();
        let (recovered, report) = SnapshotEngine::recover(base, &wal_path, SyncPolicy::None)
            .expect("recover the sweep WAL");
        let recover_s = t.elapsed().as_secs_f64();
        assert_eq!(report.applied, len as u64, "every record must replay");
        assert_eq!(report.truncated_bytes, 0, "clean log has no torn tail");
        assert_eq!(
            recovered.snapshot().live_len(),
            expected_live(n, &writes, len),
            "recovered live-corpus size at log length {len}"
        );
        points.push(RecoveryPoint {
            ops: len as u64,
            wal_bytes,
            recover_s,
            ops_per_s: len as f64 / recover_s.max(1e-9),
        });
    }
    let _ = std::fs::remove_file(&wal_path);

    RecoveryBenchReport {
        dataset: bench.ds.params.name.clone(),
        n,
        k,
        ops: rc.ops,
        policy_costs,
        points,
        config: rc,
    }
}
