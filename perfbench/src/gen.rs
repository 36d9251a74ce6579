//! Seeded input generation. Every request body and recipe input is a
//! pure function of the run seed, the connection index and the op
//! index, so the same seed always produces the same traffic.

use andi_core::incremental::{apply_edits_to_summary, DeltaBatch, Edit};
use andi_core::BeliefFunction;
use andi_data::stats::FrequencyGroups;
use andi_data::synth::Analog;
use andi_oracle::instance::{Instance, Regime};

/// The interval half-width multipliers `k` of `δ_med × k`.
pub const WIDTHS: [f64; 3] = [0.5, 1.0, 2.0];

/// The analogs a cold `/assess` draws from.
pub const COLD_ANALOGS: [Analog; 3] = [Analog::Chess, Analog::Mushroom, Analog::Connect];

/// Size of the `assess_hot` instance pool.
pub const HOT_POOL: usize = 24;

/// Databases each `update_mix` connection owns.
pub const DBS_PER_CONN: usize = 2;

/// Domain sizes of the `update_mix` databases, by database id. Fixed,
/// so the exact rung's `2^n` cost mix is the same for every seed.
pub const UPDATE_DB_SIZES: [u64; 4] = [12, 16, 14, 15];

/// `update_mix` cycle: one `/update`, then `UPDATE_CYCLE - 1` reads.
pub const UPDATE_CYCLE: u64 = 8;

/// splitmix64 finalizer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a tuple of words into one seed.
pub fn key(words: &[u64]) -> u64 {
    words.iter().fold(0x5eed_ba5e_u64, |h, &w| mix(h ^ w))
}

/// A small deterministic RNG (splitmix64 stream).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// The recipe's compliant belief `[f - δ_med·k, f + δ_med·k]` for a
/// summary, as an oracle instance.
pub fn widened_instance(label: String, supports: Vec<u64>, m: u64, k: f64) -> Instance {
    let delta = FrequencyGroups::from_supports(&supports, m)
        .median_gap()
        .unwrap_or(0.0)
        * k;
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
    let intervals = BeliefFunction::widened(&freqs, delta)
        .expect("frequencies lie in [0, 1]")
        .intervals()
        .to_vec();
    Instance {
        label,
        regime: Regime::AlphaCompliant,
        supports,
        m,
        intervals,
        mask: None,
    }
}

/// Op `i` of connection `conn` in `assess_cold`: a freshly
/// synthesized CHESS/MUSHROOM/CONNECT-scale summary.
pub fn cold_instance(seed: u64, conn: u64, i: u64) -> Instance {
    // Round-robin over analog × width, so every seed sends the same
    // mix; only the synthesized profiles differ.
    let analog = COLD_ANALOGS[(i % 3) as usize];
    let k = WIDTHS[((i / 3) % 3) as usize];
    let supports = analog.supports_seeded(key(&[seed, 0xc01d, conn, i]));
    widened_instance(
        format!("perfbench cold {analog}"),
        supports,
        analog.spec().n_transactions,
        k,
    )
}

/// A random small database summary with `n` items.
pub fn small_summary(rng: &mut Rng, n: u64) -> (Vec<u64>, u64) {
    let m = rng.range(64, 256);
    let supports = (0..n).map(|_| rng.range(1, m - 1)).collect();
    (supports, m)
}

/// The `assess_hot` pool: exact-rung (n ≤ 16) instances.
pub fn hot_pool(seed: u64) -> Vec<Instance> {
    let mut rng = Rng::new(key(&[seed, 0x407]));
    (0..HOT_POOL)
        .map(|i| {
            // Sizes and widths cycle, so every seed has the same mix.
            let (supports, m) = small_summary(&mut rng, 10 + (i % 7) as u64);
            let k = WIDTHS[i % WIDTHS.len()];
            widened_instance(format!("perfbench hot {i}"), supports, m, k)
        })
        .collect()
}

/// One `update_mix` database: its current summary and how many
/// transactions have been appended to it.
#[derive(Clone, Debug)]
pub struct Db {
    pub supports: Vec<u64>,
    pub m: u64,
    pub version: u64,
}

impl Db {
    /// The read instance for belief `b` on the current summary.
    pub fn read(&self, id: usize, b: usize) -> Instance {
        widened_instance(
            format!("perfbench db{id} v{} b{b}", self.version),
            self.supports.clone(),
            self.m,
            WIDTHS[b],
        )
    }

    /// Appends one random transaction; each item joins it with its
    /// current frequency, and at least one item is always present.
    /// Returns the `/update` body, the edited database and the
    /// transaction's items.
    pub fn append(&self, rng: &mut Rng) -> (String, Db, Vec<usize>) {
        let n = self.supports.len();
        let mut items: Vec<usize> = (0..n)
            .filter(|&x| rng.below(self.m) < self.supports[x])
            .collect();
        if items.is_empty() {
            items.push(rng.below(n as u64) as usize);
        }
        let item_text: Vec<String> = items.iter().map(usize::to_string).collect();
        let support_text: Vec<String> = self.supports.iter().map(u64::to_string).collect();
        let body = format!(
            "andi-serve update v1\nm: {}\nsupports: {}\nedit: insert {}\n",
            self.m,
            support_text.join(" "),
            item_text.join(" ")
        );
        let batch = DeltaBatch::new(vec![Edit::Insert {
            items: items.clone(),
        }]);
        let (supports, m) = apply_edits_to_summary(&self.supports, self.m, &batch)
            .expect("an insert of distinct in-range items always applies");
        let next = Db {
            supports,
            m,
            version: self.version + 1,
        };
        (body, next, items)
    }
}

/// The databases connection `conn` owns in `update_mix`.
pub fn update_dbs(seed: u64, conn: u64) -> Vec<Db> {
    let mut rng = Rng::new(key(&[seed, 0xdb, conn]));
    (0..DBS_PER_CONN)
        .map(|d| {
            let (supports, m) =
                small_summary(&mut rng, UPDATE_DB_SIZES[conn as usize * DBS_PER_CONN + d]);
            Db {
                supports,
                m,
                version: 0,
            }
        })
        .collect()
}

/// Seeded support profiles per analog that `recipe_batch` draws
/// from. Every call re-synthesizes its profile; the finite pool lets
/// the answer check memoize one reference per profile.
pub const RECIPE_POOL: u64 = 32;

/// Recipe op `i`: the analog (round-robin over all six) and the seed
/// its support profile is synthesized from (one of `RECIPE_POOL`,
/// drawn with replacement).
pub fn recipe_op(seed: u64, i: u64) -> (usize, u64) {
    let analog = i % Analog::ALL.len() as u64;
    let slot = key(&[seed, 0x4ec1, i]) % RECIPE_POOL;
    (analog as usize, key(&[seed, 0x9001, analog, slot]))
}

/// The warm-up recipe ops, one per analog, disjoint from timed ops.
pub fn recipe_warmup(seed: u64) -> Vec<(usize, u64)> {
    (0..Analog::ALL.len())
        .map(|a| (a, key(&[seed, 0x3a4e, a as u64])))
        .collect()
}
