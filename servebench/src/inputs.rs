//! Seeded inputs of the two workloads.
//!
//! Everything the client sends — dataset, query stream, commit script and
//! the exact request bytes — is built here from `--seed` before the server
//! starts. Op counts derive from the seed and `--seconds`, never from the
//! clock, so one seed always yields the same requests, the same WAL bytes
//! and the same final generation.

use fairnn_data::{lastfm_like, movielens_like, SetDataConfig, Zipf};
use fairnn_engine::{QueryRequest, WriteBatch};
use fairnn_lsh::{LshParams, OneBitMinHash, ParamsBuilder};
use fairnn_snapshot::{Codec, Encoder};
use fairnn_space::{Dataset, PointId, SparseSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Near threshold: Jaccard similarity ≥ 0.2, as in the paper's Section 6.
pub const R: f64 = 0.2;
/// Shards of every engine the benchmark builds.
pub const SHARDS: usize = 4;
/// Query requests sent after the last commit of a run; the benchmark
/// replays them against the reopened engine.
const LAST_REQUESTS: usize = 8;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A large MovieLens-like index, eight Zipf-skewed queries per request
    /// on one keep-alive connection: the engine dominates.
    ReadLarge,
    /// The paper-size Last.FM-like index with a commit after every nine
    /// query requests: the writer, WAL and replay dominate.
    ChurnPaper,
}

impl Workload {
    const ALL: [Self; 2] = [Self::ReadLarge, Self::ChurnPaper];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ReadLarge => "read-large",
            Self::ChurnPaper => "churn-paper",
        }
    }
}

/// One client request, kept both as a value (for in-process comparison)
/// and as the exact HTTP bytes the client writes.
#[derive(Debug, Clone)]
pub enum Op {
    /// `POST /v1/query`.
    Query {
        request: QueryRequest<SparseSet>,
        wire: Vec<u8>,
    },
    /// `POST /v1/commit`, with the global ids its inserts will receive.
    Commit {
        batch: WriteBatch<SparseSet>,
        assigned: Vec<PointId>,
        wire: Vec<u8>,
    },
}

impl Op {
    /// The HTTP request bytes.
    pub fn wire(&self) -> &[u8] {
        match self {
            Op::Query { wire, .. } | Op::Commit { wire, .. } => wire,
        }
    }
}

/// Everything one run sends, in order: warm-up queries (untimed), the
/// measured ops, a commit tail on the read workloads, and a few final
/// queries that are replayed after reopen.
#[derive(Debug)]
pub struct Inputs {
    pub dataset: Dataset<SparseSet>,
    pub params: LshParams,
    /// Root seed of the engine's hashers, sketches and answer streams.
    pub engine_seed: u64,
    pub warmup: Vec<Op>,
    pub measured: Vec<Op>,
    pub tail: Vec<Op>,
    pub last: Vec<Op>,
    /// Every point by global id: the dataset followed by each insert of
    /// the script.
    pub points: Vec<SparseSet>,
    /// Share of measured queries that repeat an earlier measured query.
    pub repeat_share: f64,
}

impl Inputs {
    /// Number of commits in the whole script.
    pub fn commits(&self) -> usize {
        self.all_ops()
            .filter(|op| matches!(op, Op::Commit { .. }))
            .count()
    }

    /// Every op in send order.
    pub fn all_ops(&self) -> impl Iterator<Item = &Op> {
        self.warmup
            .iter()
            .chain(&self.measured)
            .chain(&self.tail)
            .chain(&self.last)
    }
}

/// Builds the inputs of `workload` for `seed`, sized for a measured phase
/// of about `seconds` seconds on the reference machine.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e11_e5c1_7e57_0001);
    let engine_seed = rng.random::<u64>();
    match workload {
        Workload::ReadLarge => read_large(seed, seconds, engine_seed, &mut rng),
        Workload::ChurnPaper => churn_paper(seed, seconds, engine_seed, &mut rng),
    }
}

/// MovieLens-like sets at n = 10 000 under full MinHash with explicit
/// (K, L) = (4, 100); eight queries per request drawn Zipf(0.6) from the
/// clustered users. A tail of one-shard commits follows the read-only
/// measured phase.
fn read_large(seed: u64, seconds: u64, engine_seed: u64, rng: &mut StdRng) -> Inputs {
    const N: usize = 10_000;
    const QUERIES_PER_REQUEST: usize = 8;
    const REQUESTS_PER_SECOND: u64 = 200;
    const WARMUP: usize = 40;
    const COMMITS: usize = 60;
    let requests = (seconds * REQUESTS_PER_SECOND) as usize;
    let mut cfg = movielens_like();
    // The paper's 2 112 users form 16 clusters: keep ~132 users per
    // cluster so a query's neighbourhood stays paper-sized as n grows.
    cfg.num_clusters = N / 132;
    let users = split_users(cfg, N, COMMITS + LAST_REQUESTS, seed, rng);
    let params = LshParams::explicit(4, 100, R, 0.1);

    let mut pool: Vec<usize> = (0..N).filter(|&i| users.clustered[i]).collect();
    shuffle(&mut pool, rng);
    let zipf = Zipf::new(pool.len(), 0.6);
    let mut script = Script::new(users);
    let draw = |script: &Script, rng: &mut StdRng| -> Vec<SparseSet> {
        (0..QUERIES_PER_REQUEST)
            .map(|_| script.points[pool[zipf.sample(rng)]].clone())
            .collect()
    };
    for i in 0..WARMUP {
        let queries = draw(&script, rng);
        script
            .warmup
            .push(script.query(queries, WARMUP_BATCH + i as u64));
    }
    for i in 0..requests {
        let queries = draw(&script, rng);
        let op = script.query(queries, i as u64);
        script.measured.push(op);
    }
    for _ in 0..COMMITS {
        let op = script.commit(rng, Shape::OneShard, false);
        script.tail.push(op);
    }
    let last = (0..LAST_REQUESTS).map(|_| draw(&script, rng)).collect();
    script.finish(params, engine_seed, last)
}

/// The paper's Last.FM-like size (n = 1 892, K = 10, L = 760 from the
/// Section 6 recipe). One commit — 2 fresh inserts, 2 deletes of live ids,
/// plus `Compact` on every 20th — follows every 9 query requests of 2
/// queries: one fresh user and one user inserted by a recent commit.
fn churn_paper(seed: u64, seconds: u64, engine_seed: u64, rng: &mut StdRng) -> Inputs {
    const N: usize = 1_892;
    const COMMITS_PER_SECOND: u64 = 4;
    const REQUESTS_PER_COMMIT: usize = 9;
    const WARMUP: usize = 45;
    let commits = (seconds * COMMITS_PER_SECOND) as usize;
    // Slot 0 of every request and both inserts of every commit take a
    // fresh user; so does slot 1 until the first commit.
    let fresh =
        WARMUP + commits * (REQUESTS_PER_COMMIT + 2) + 2 * REQUESTS_PER_COMMIT + LAST_REQUESTS;
    let users = split_users(lastfm_like(), N, fresh, seed, rng);
    let params = ParamsBuilder::new(N, R, 0.1).empirical(&OneBitMinHash);
    let mut script = Script::new(users);
    for i in 0..WARMUP {
        let q = script.fresh();
        script
            .warmup
            .push(script.query(vec![q], WARMUP_BATCH + i as u64));
    }
    let mut batch = 0u64;
    for c in 0..commits {
        for _ in 0..REQUESTS_PER_COMMIT {
            let queries = vec![script.fresh(), script.recent(rng)];
            let op = script.query(queries, batch);
            script.measured.push(op);
            batch += 1;
        }
        let op = script.commit(rng, Shape::AllShards, c % 20 == 19);
        script.measured.push(op);
    }
    let last = (0..LAST_REQUESTS)
        .map(|_| vec![script.fresh(), script.recent(rng)])
        .collect();
    script.finish(params, engine_seed, last)
}

/// Which shards a commit touches. Either way the shard loads stay level
/// and the shards touched do not depend on the seed, so a commit's cost
/// does not depend on which shards a seed happens to hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Two inserts into the two least-loaded shards, two deletes drawn at
    /// random from the two fullest shards the inserts do not reach.
    AllShards,
    /// One insert into the least-loaded shard and one delete drawn at
    /// random from the same shard.
    OneShard,
}

/// Batch numbers of warm-up and final requests sit far above the measured
/// ones, so no two requests of a run share an answer stream.
const WARMUP_BATCH: u64 = 1 << 40;
const LAST_BATCH: u64 = 2 << 40;

/// A generated population split into the indexed dataset and a queue of
/// fresh users (queries and inserts).
struct Users {
    dataset: Vec<SparseSet>,
    /// Whether each dataset user belongs to an interest cluster.
    clustered: Vec<bool>,
    fresh: Vec<SparseSet>,
}

/// Generates `n + extra` users from `cfg` (cluster count kept) and splits
/// them at random, so fresh users come from the same clusters as the
/// indexed ones.
fn split_users(
    mut cfg: SetDataConfig,
    n: usize,
    extra: usize,
    seed: u64,
    rng: &mut StdRng,
) -> Users {
    cfg.num_users = n + extra;
    let num_clustered = (cfg.num_users as f64 * cfg.clustered_fraction).round() as usize;
    let all = cfg.generate(seed).points().to_vec();
    let mut order: Vec<usize> = (0..all.len()).collect();
    shuffle(&mut order, rng);
    Users {
        dataset: order[..n].iter().map(|&i| all[i].clone()).collect(),
        clustered: order[..n].iter().map(|&i| i < num_clustered).collect(),
        fresh: order[n..].iter().map(|&i| all[i].clone()).collect(),
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Builder state of one script: the id model (which ids are live in which
/// shard, which id the next insert gets) advances with every commit it
/// emits.
struct Script {
    points: Vec<SparseSet>,
    n: usize,
    fresh: Vec<SparseSet>,
    next_fresh: usize,
    /// Live ids per shard, mirroring the engine's routing: round-robin at
    /// build time, inserts to the least-loaded shard (lowest index on
    /// ties).
    shard_live: Vec<Vec<u32>>,
    /// Points inserted by the most recent commits.
    recent: Vec<SparseSet>,
    warmup: Vec<Op>,
    measured: Vec<Op>,
    tail: Vec<Op>,
}

impl Script {
    fn new(users: Users) -> Self {
        let n = users.dataset.len();
        Self {
            points: users.dataset,
            n,
            fresh: users.fresh,
            next_fresh: 0,
            shard_live: (0..SHARDS)
                .map(|s| (s as u32..n as u32).step_by(SHARDS).collect())
                .collect(),
            recent: Vec::new(),
            warmup: Vec::new(),
            measured: Vec::new(),
            tail: Vec::new(),
        }
    }

    fn fresh(&mut self) -> SparseSet {
        let user = self.fresh[self.next_fresh].clone();
        self.next_fresh += 1;
        user
    }

    /// A user inserted by one of the last few commits (a read after a
    /// write), or a fresh user before the first commit.
    fn recent(&mut self, rng: &mut StdRng) -> SparseSet {
        if self.recent.is_empty() {
            self.fresh()
        } else {
            self.recent[rng.random_range(0..self.recent.len())].clone()
        }
    }

    fn query(&self, queries: Vec<SparseSet>, batch: u64) -> Op {
        let request = QueryRequest::new(queries).with_batch(batch);
        let wire = http_request("/v1/query", &encode(&request));
        Op::Query { request, wire }
    }

    /// Fresh inserts and as many deletes of live ids, placed by `shape`
    /// (plus `Compact` when asked); advances the id model.
    fn commit(&mut self, rng: &mut StdRng, shape: Shape, compact: bool) -> Op {
        const RECENT_WINDOW: usize = 8;
        let mut batch = WriteBatch::new();
        let mut loads: Vec<usize> = self.shard_live.iter().map(Vec::len).collect();
        let mut inserts = Vec::new();
        let count = match shape {
            Shape::AllShards => 2,
            Shape::OneShard => 1,
        };
        for _ in 0..count {
            let user = self.fresh();
            let id = PointId(self.points.len() as u32);
            let shard = (0..SHARDS).min_by_key(|&s| loads[s]).expect("shards");
            loads[shard] += 1;
            self.points.push(user.clone());
            self.recent.push(user.clone());
            batch = batch.insert(user);
            inserts.push((id, shard));
        }
        let targets: Vec<usize> = match shape {
            Shape::AllShards => {
                let mut others: Vec<usize> = (0..SHARDS)
                    .filter(|s| inserts.iter().all(|(_, t)| t != s))
                    .collect();
                others.sort_by_key(|&s| std::cmp::Reverse(loads[s]));
                others.truncate(count);
                others
            }
            Shape::OneShard => inserts.iter().map(|&(_, shard)| shard).collect(),
        };
        for s in targets {
            let live = &mut self.shard_live[s];
            let at = rng.random_range(0..live.len());
            batch = batch.delete(PointId(live.swap_remove(at)));
        }
        for &(id, shard) in &inserts {
            self.shard_live[shard].push(id.0);
        }
        let assigned: Vec<PointId> = inserts.iter().map(|&(id, _)| id).collect();
        if compact {
            batch = batch.compact();
        }
        let excess = self.recent.len().saturating_sub(RECENT_WINDOW);
        self.recent.drain(..excess);
        let wire = http_request("/v1/commit", &encode(&batch));
        Op::Commit {
            batch,
            assigned,
            wire,
        }
    }

    fn finish(
        mut self,
        params: LshParams,
        engine_seed: u64,
        last_queries: Vec<Vec<SparseSet>>,
    ) -> Inputs {
        let last = last_queries
            .into_iter()
            .enumerate()
            .map(|(i, queries)| self.query(queries, LAST_BATCH + i as u64))
            .collect();
        let repeat_share = repeat_share(&self.measured);
        let dataset = Dataset::new(self.points[..self.n].to_vec());
        Inputs {
            dataset,
            params,
            engine_seed,
            warmup: std::mem::take(&mut self.warmup),
            measured: std::mem::take(&mut self.measured),
            tail: std::mem::take(&mut self.tail),
            last,
            points: self.points,
            repeat_share,
        }
    }
}

fn repeat_share(ops: &[Op]) -> f64 {
    let mut seen: HashSet<&[u32]> = HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for op in ops {
        if let Op::Query { request, .. } = op {
            for q in &request.queries {
                total += 1;
                if !seen.insert(q.items()) {
                    repeats += 1;
                }
            }
        }
    }
    repeats as f64 / total.max(1) as f64
}

pub fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// A complete keep-alive `POST` request with a `Content-Length`-framed
/// body.
fn http_request(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: servebench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}
