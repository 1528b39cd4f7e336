//! Synthetic workload generation.
//!
//! The paper's trade-offs are parameterized by the workload: the
//! conflict-free optimism of Q/U (design choice 9) depends on the *conflict
//! rate*; fairness experiments need *adversarially interesting request
//! streams*; load-balancing results depend on *demand*. [`Workload`]
//! generates transactions with explicit knobs for all of these, driven by a
//! seeded deterministic RNG.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use bft_types::{Key, Op, Transaction};

/// Which workload family to generate. Each family drives a different
/// application state machine (`bft-state`'s composed app) and comes with
/// its own consistency checker in `bft-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WorkloadKind {
    /// The original read/write key-value mix (`Get`/`Add`).
    #[default]
    KvMix,
    /// Append-only log: producers `Append` uniquely tagged records,
    /// consumers `ReadAt` fixed offsets.
    LogAppend,
    /// Grow-only counter: commutative `GAdd` increments and `GRead`s
    /// (the DC9 conflict-freedom story).
    CounterInc,
}

/// How the non-hot part of the key space is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum KeyDist {
    /// Uniform over the key space (the original behavior; draws exactly the
    /// same RNG sequence as before this knob existed).
    #[default]
    Uniform,
    /// Zipfian (YCSB-style): rank 0 is the most popular key. `theta` in
    /// (0, 1) controls skew; YCSB's default is 0.99.
    Zipfian {
        /// Skew exponent θ.
        theta: f64,
    },
}

/// How clients pace their requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Arrival {
    /// One request in flight per client; the next is submitted when the
    /// previous completes (the original behavior).
    #[default]
    ClosedLoop,
    /// Requests are submitted on a fixed virtual-time schedule regardless
    /// of completions — arbitrarily many may be in flight. This is the mode
    /// for million-request throughput runs: offered load is a knob, not an
    /// emergent property of latency.
    OpenLoop {
        /// Virtual nanoseconds between consecutive submissions per client.
        interarrival_ns: u64,
    },
}

impl Arrival {
    /// Open-loop arrival at `rate` requests per virtual second (per
    /// client).
    pub fn per_second(rate: u64) -> Arrival {
        Arrival::OpenLoop {
            interarrival_ns: 1_000_000_000 / rate.max(1),
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Size of the key space (per tenant).
    pub keys: u64,
    /// Fraction of transactions that target the single "hot" key (driving
    /// conflicts): 0.0 = uniform, 1.0 = everything conflicts. Each tenant
    /// has its own hot key (key 0 of its range).
    pub hot_fraction: f64,
    /// Fraction of read-only transactions.
    pub read_fraction: f64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Virtual-time execution cost units per transaction (adds an
    /// [`Op::Work`] operation when > 0).
    pub work_units: u32,
    /// Which workload family to generate.
    pub kind: WorkloadKind,
    /// How non-hot keys are sampled.
    pub key_dist: KeyDist,
    /// Number of disjoint tenant key ranges. Client streams are assigned
    /// round-robin (`stream % tenants`), and each tenant's keys occupy
    /// `[tenant * keys, (tenant + 1) * keys)`. 1 = the original shared key
    /// space.
    pub tenants: u64,
    /// Request pacing (closed loop vs. open loop).
    pub arrival: Arrival,
}

impl WorkloadConfig {
    /// Uniform single-op read/write mix over a large key space —
    /// effectively conflict-free.
    pub fn uniform() -> Self {
        WorkloadConfig {
            keys: 100_000,
            hot_fraction: 0.0,
            read_fraction: 0.5,
            ops_per_txn: 1,
            work_units: 0,
            kind: WorkloadKind::KvMix,
            key_dist: KeyDist::Uniform,
            tenants: 1,
            arrival: Arrival::ClosedLoop,
        }
    }

    /// Read-heavy key-value tier: 90% read-only transactions, exercising
    /// the optimized read path (ABL-3) under whatever network profile the
    /// scenario selects (geo/WAN in the suite).
    pub fn read_heavy() -> Self {
        WorkloadConfig::uniform().with_reads(0.9)
    }

    /// Append-only log workload over a handful of named logs: appends carry
    /// stream-unique record tags; consumer reads probe fixed offsets.
    pub fn log_append() -> Self {
        WorkloadConfig {
            keys: 4,
            hot_fraction: 0.0,
            read_fraction: 0.3,
            ops_per_txn: 1,
            work_units: 0,
            kind: WorkloadKind::LogAppend,
            key_dist: KeyDist::Uniform,
            tenants: 1,
            arrival: Arrival::ClosedLoop,
        }
    }

    /// Grow-only counter workload over a small counter set: contended but
    /// commutative increments plus occasional total reads.
    pub fn counter_inc() -> Self {
        WorkloadConfig {
            keys: 4,
            hot_fraction: 0.0,
            read_fraction: 0.25,
            ops_per_txn: 1,
            work_units: 0,
            kind: WorkloadKind::CounterInc,
            key_dist: KeyDist::Uniform,
            tenants: 1,
            arrival: Arrival::ClosedLoop,
        }
    }

    /// A contended workload: the given fraction of transactions write the
    /// hot key.
    pub fn contended(hot_fraction: f64) -> Self {
        WorkloadConfig {
            hot_fraction,
            read_fraction: 0.0,
            ..WorkloadConfig::uniform()
        }
    }

    /// Builder-style: set the read fraction.
    pub fn with_reads(mut self, read_fraction: f64) -> Self {
        self.read_fraction = read_fraction;
        self
    }

    /// Builder-style: set per-transaction compute cost.
    pub fn with_work(mut self, units: u32) -> Self {
        self.work_units = units;
        self
    }

    /// Builder-style: set the key-space size.
    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keys = keys;
        self
    }

    /// Builder-style: set the key distribution.
    pub fn with_key_dist(mut self, key_dist: KeyDist) -> Self {
        self.key_dist = key_dist;
        self
    }

    /// Builder-style: Zipfian key popularity with skew θ.
    pub fn zipfian(self, theta: f64) -> Self {
        self.with_key_dist(KeyDist::Zipfian { theta })
    }

    /// Builder-style: set the number of tenant key ranges.
    pub fn with_tenants(mut self, tenants: u64) -> Self {
        self.tenants = tenants.max(1);
        self
    }

    /// Builder-style: set the arrival process.
    pub fn with_arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Builder-style: open-loop arrivals at the given per-client rate
    /// (requests per virtual second).
    pub fn open_loop(self, rate_per_sec: u64) -> Self {
        self.with_arrival(Arrival::per_second(rate_per_sec))
    }
}

/// YCSB-style bounded Zipfian sampler (Gray et al.'s rejection-free
/// inversion): returns ranks in `[0, n)` where rank 0 is most popular.
/// Construction is O(n) — the harmonic normalizer — and sampling is O(1).
#[derive(Debug, Clone)]
struct ZipfSampler {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl ZipfSampler {
    fn new(n: u64, theta: f64) -> ZipfSampler {
        let n = n.max(1);
        let theta = theta.clamp(1e-6, 0.999_999);
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> u64 {
        use rand::RngCore;
        // 53 uniform bits → u in [0, 1)
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < self.zeta2 {
            1
        } else {
            let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            r.min(self.n - 1)
        }
    }
}

/// A deterministic transaction generator.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The parameters.
    pub config: WorkloadConfig,
    rng: ChaCha8Rng,
    /// Stream tag (normally the client id): makes appended records unique
    /// across generators so the log checker can attribute every record.
    stream: u64,
    /// Appends generated so far by this stream (offset guesses for
    /// consumer reads; the record tag's low half).
    appends: u64,
    /// Precomputed Zipfian state (only when `config.key_dist` is Zipfian).
    zipf: Option<ZipfSampler>,
}

impl Workload {
    /// Create a workload from a config and seed (stream tag 0).
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        Workload::for_stream(config, seed, 0)
    }

    /// Create a workload bound to a stream tag (normally the client id).
    /// The tag does not perturb the RNG, so `KvMix` generation is identical
    /// to [`Workload::new`] at the same seed.
    pub fn for_stream(config: WorkloadConfig, seed: u64, stream: u64) -> Self {
        let zipf = match config.key_dist {
            KeyDist::Uniform => None,
            KeyDist::Zipfian { theta } => Some(ZipfSampler::new(config.keys.max(2) - 1, theta)),
        };
        Workload {
            config,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            stream,
            appends: 0,
            zipf,
        }
    }

    /// The tenant this stream belongs to.
    pub fn tenant(&self) -> u64 {
        self.stream % self.config.tenants.max(1)
    }

    /// Generate the next transaction.
    pub fn next_txn(&mut self) -> Transaction {
        let work = usize::from(self.config.work_units > 0);
        let mut ops = Vec::with_capacity(self.config.ops_per_txn + work);
        let read_only = self.rng.gen_bool(self.config.read_fraction.clamp(0.0, 1.0));
        for _ in 0..self.config.ops_per_txn {
            let key = self.pick_key();
            match self.config.kind {
                WorkloadKind::KvMix => {
                    if read_only {
                        ops.push(Op::Get(key));
                    } else {
                        // read-modify-write: conflicts both ways on the key
                        ops.push(Op::Add(key, self.rng.gen_range(-5..=5)));
                    }
                }
                WorkloadKind::LogAppend => {
                    if read_only {
                        // probe an offset this stream believes exists
                        let guess = self.rng.gen_range(0..self.appends.max(1));
                        ops.push(Op::ReadAt(key, guess));
                    } else {
                        // stream-unique record tag: (stream, per-stream counter)
                        let record =
                            ((self.stream as i64) << 32) | (self.appends as i64 & 0xffff_ffff);
                        self.appends += 1;
                        ops.push(Op::Append(key, record));
                    }
                }
                WorkloadKind::CounterInc => {
                    if read_only {
                        ops.push(Op::GRead(key));
                    } else {
                        ops.push(Op::GAdd(key, self.rng.gen_range(1..=8)));
                    }
                }
            }
        }
        if self.config.work_units > 0 {
            ops.push(Op::Work(self.config.work_units));
        }
        Transaction { ops }
    }

    fn pick_key(&mut self) -> Key {
        // With one tenant (the default) the base is 0 and every draw below
        // is identical to the pre-tenant behavior.
        let base = self.tenant() * self.config.keys;
        if self.config.hot_fraction > 0.0
            && self.rng.gen_bool(self.config.hot_fraction.clamp(0.0, 1.0))
        {
            return base;
        }
        // the non-hot part avoids the tenant's hot key (offset 0)
        base + match &self.zipf {
            None => self.rng.gen_range(1..self.config.keys.max(2)),
            Some(z) => 1 + z.sample(&mut self.rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Workload::new(WorkloadConfig::uniform(), 7);
        let mut b = Workload::new(WorkloadConfig::uniform(), 7);
        for _ in 0..100 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }

    #[test]
    fn hot_fraction_drives_conflicts() {
        let sample_conflict_rate = |hot: f64| -> f64 {
            let mut w = Workload::new(WorkloadConfig::contended(hot), 3);
            let txns: Vec<Transaction> = (0..200).map(|_| w.next_txn()).collect();
            let mut conflicts = 0usize;
            let mut pairs = 0usize;
            for i in 0..txns.len() {
                for j in (i + 1)..txns.len().min(i + 10) {
                    pairs += 1;
                    if txns[i].conflicts_with(&txns[j]) {
                        conflicts += 1;
                    }
                }
            }
            conflicts as f64 / pairs as f64
        };
        let low = sample_conflict_rate(0.0);
        let high = sample_conflict_rate(0.8);
        assert!(low < 0.01, "uniform workload nearly conflict-free ({low})");
        assert!(high > 0.5, "hot workload heavily conflicted ({high})");
    }

    #[test]
    fn read_fraction_respected() {
        let mut w = Workload::new(WorkloadConfig::uniform().with_reads(1.0), 5);
        for _ in 0..50 {
            assert!(w.next_txn().is_read_only());
        }
        let mut w = Workload::new(WorkloadConfig::uniform().with_reads(0.0), 5);
        for _ in 0..50 {
            assert!(!w.next_txn().is_read_only());
        }
    }

    #[test]
    fn work_units_add_work_op() {
        let mut w = Workload::new(WorkloadConfig::uniform().with_work(42), 5);
        let txn = w.next_txn();
        assert!(txn.ops.iter().any(|op| matches!(op, Op::Work(42))));
    }

    fn touched_keys(txn: &Transaction) -> Vec<Key> {
        txn.ops
            .iter()
            .filter_map(|op| match op {
                Op::Get(k) | Op::Add(k, _) => Some(*k),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn zipfian_skews_toward_low_ranks() {
        let cfg = WorkloadConfig::uniform()
            .with_keys(10_000)
            .with_reads(0.0)
            .zipfian(0.99);
        let mut w = Workload::new(cfg, 11);
        let mut low = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            for k in touched_keys(&w.next_txn()) {
                total += 1;
                if k <= 100 {
                    low += 1;
                }
            }
        }
        // under uniform sampling ~1% of draws would land in the first 100
        // keys; θ=0.99 Zipf concentrates the majority there
        assert!(
            low * 2 > total,
            "zipf not skewed: {low}/{total} in the hot 1%"
        );
        // and every key stays in range
        let mut w = Workload::new(cfg, 12);
        for _ in 0..500 {
            for k in touched_keys(&w.next_txn()) {
                assert!(k < 10_000);
            }
        }
    }

    #[test]
    fn tenants_partition_the_key_space() {
        let cfg = WorkloadConfig::uniform().with_keys(100).with_tenants(4);
        for stream in 0..8u64 {
            let mut w = Workload::for_stream(cfg, 9, stream);
            let lo = (stream % 4) * 100;
            for _ in 0..200 {
                for k in touched_keys(&w.next_txn()) {
                    assert!(k >= lo && k < lo + 100, "stream {stream} drew key {k}");
                }
            }
        }
    }

    #[test]
    fn single_tenant_is_byte_identical_to_no_tenant_knob() {
        // tenants=1 must not perturb the draw sequence: same txns as the
        // plain uniform config at any stream tag
        let a_cfg = WorkloadConfig::uniform();
        let b_cfg = WorkloadConfig::uniform().with_tenants(1);
        let mut a = Workload::for_stream(a_cfg, 7, 3);
        let mut b = Workload::for_stream(b_cfg, 7, 3);
        for _ in 0..200 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }

    #[test]
    fn arrival_rate_helper() {
        assert_eq!(
            Arrival::per_second(1000),
            Arrival::OpenLoop {
                interarrival_ns: 1_000_000
            }
        );
        assert_eq!(WorkloadConfig::uniform().arrival, Arrival::ClosedLoop);
        let ol = WorkloadConfig::uniform().open_loop(10_000);
        assert_eq!(
            ol.arrival,
            Arrival::OpenLoop {
                interarrival_ns: 100_000
            }
        );
    }
}
