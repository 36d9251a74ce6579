//! In-process replays through the program's public functions: the
//! reference answers the served bodies are checked against, the
//! convex-exact risk reference, and the per-layer timings of the
//! traced run.

use andi_core::recipe::{ladder_crack_probabilities, RecipeConfig};
use andi_core::{BeliefFunction, Provenance};
use andi_data::stats::FrequencyGroups;
use andi_graph::convex::{crack_probabilities_convex, DEFAULT_STATE_BUDGET};
use andi_graph::grouped::Matching;
use andi_graph::{Budget, FrequencyScaffold, GroupedBigraph, MAX_PERMANENT_N};
use andi_oracle::instance::Instance;
use andi_oracle::serial::{provenance_to_json, Json};

use crate::trace::Recorder;

/// Largest domain given a convex-exact reference. Above it the DP
/// takes 1.5 s (PUMSB) to over 30 s (RETAIL) per instance, or exceeds
/// its state budget (ACCIDENTS).
pub const REFERENCE_MAX_N: usize = 130;

/// A served or in-process answer, reduced to what the check compares.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Provenance rung name, as the oracle serializer writes it.
    pub rung: String,
    /// Whether a rung below exact answered.
    pub degraded: bool,
    /// Number of rungs that tripped on the way down.
    pub trips: usize,
    /// FNV-1a over the bits of the per-item probabilities, in order.
    pub probs_hash: u64,
    /// Expected cracks (the sum of the probabilities).
    pub expected: f64,
}

/// The reference for one distinct instance.
#[derive(Clone, Debug)]
pub struct Reference {
    pub answer: Answer,
    /// Convex-exact expected cracks, when the instance has one.
    pub exact: Option<f64>,
}

/// FNV-1a over the bit patterns of a probability vector.
pub fn probs_hash(probs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in probs {
        for b in p.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Reduces an in-process ladder result to an [`Answer`]. The rung
/// name goes through the oracle serializer, the same one the server
/// renders with.
pub fn answer_of(provenance: &Provenance, probs: &[f64]) -> Answer {
    let json = provenance_to_json(provenance);
    let parsed = Json::parse(&json).ok();
    let rung = parsed
        .as_ref()
        .and_then(|v| v.get("rung"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    Answer {
        rung,
        degraded: provenance.degraded,
        trips: provenance.trips.len(),
        probs_hash: probs_hash(probs.iter().copied()),
        expected: probs.iter().sum(),
    }
}

/// Parses a served `/assess` body. Unknown fields are ignored, so the
/// check keeps working when the body grows.
pub fn parse_served(body: &[u8]) -> Option<Answer> {
    let v = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let prov = v.get("provenance")?;
    let rung = prov.get("rung")?.as_str()?.to_string();
    let degraded = matches!(prov.get("degraded")?, Json::Bool(true));
    let trips = match prov.get("trips") {
        Some(Json::Arr(items)) => items.len(),
        _ => 0,
    };
    let probs: Vec<f64> = match v.get("probs")? {
        Json::Arr(items) => items
            .iter()
            .map(|p| p.as_num()?.parse::<f64>().ok())
            .collect::<Option<Vec<f64>>>()?,
        _ => return None,
    };
    let expected = match v.get("expected_cracks").and_then(Json::as_num) {
        Some(text) => text.parse::<f64>().ok()?,
        None => probs.iter().sum(),
    };
    Some(Answer {
        rung,
        degraded,
        trips,
        probs_hash: probs_hash(probs),
        expected,
    })
}

/// The ladder the server runs, in process: one thread, no deadline.
pub fn ladder(graph: &GroupedBigraph, threads: usize) -> Result<Answer, String> {
    ladder_crack_probabilities(
        graph,
        &RecipeConfig::default(),
        threads,
        &Budget::unlimited(),
    )
    .map(|(prov, probs)| answer_of(&prov, &probs))
    .map_err(|e| format!("in-process ladder failed: {e}"))
}

/// Convex-exact expected cracks, for domains up to
/// [`REFERENCE_MAX_N`] whose DP fits [`DEFAULT_STATE_BUDGET`].
pub fn convex_reference(graph: &GroupedBigraph) -> Option<f64> {
    if graph.n() > REFERENCE_MAX_N {
        return None;
    }
    crack_probabilities_convex(graph, DEFAULT_STATE_BUDGET)
        .ok()
        .map(|p| p.iter().sum())
}

/// Reference answer for a served `/assess` request body.
pub fn served_reference(text: &str) -> Result<Reference, String> {
    let inst = Instance::from_text(text).map_err(|e| format!("unparseable request: {e}"))?;
    let graph = FrequencyScaffold::new(&inst.supports, inst.m).graph_for(&inst.intervals);
    Ok(Reference {
        answer: ladder(&graph, 1)?,
        exact: convex_reference(&graph),
    })
}

/// The recipe's own graph: frequency groups → `δ_med` → widened
/// compliant belief → grouped graph (steps 1–5 of Figure 8).
pub fn recipe_graph(supports: &[u64], m: u64) -> GroupedBigraph {
    let delta = FrequencyGroups::from_supports(supports, m)
        .median_gap()
        .unwrap_or(0.0);
    let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
    BeliefFunction::widened(&freqs, delta)
        .expect("frequencies lie in [0, 1]")
        .build_graph(supports, m)
}

/// Which served layers an op's chain went through, as the client can
/// tell from outside the server.
#[derive(Clone, Copy, Debug)]
pub struct Chain {
    /// The result was computed (a cache miss or an uncacheable
    /// answer), not served from the cache or a joined flight.
    pub computed: bool,
    /// The scaffold for this database had to be built.
    pub scaffold: bool,
}

/// Replays one served `/assess` op's layer chain with spans under
/// `parent`, returning the in-process time of the blocking chain in
/// nanoseconds; the traced run subtracts it from the client latency
/// to get the wire share.
pub fn trace_assess(rec: &mut Recorder, parent: usize, op: u32, text: &str, chain: Chain) -> u64 {
    let span = rec.open("instance.parse", op, Some(parent));
    let inst = Instance::from_text(text).expect("request text parsed once already");
    let mut blocking = rec.close(span);
    if !chain.computed {
        return blocking;
    }
    let span = rec.open("grouped.scaffold", op, Some(parent));
    let scaffold = FrequencyScaffold::new(&inst.supports, inst.m);
    let took = rec.close(span);
    if chain.scaffold {
        blocking += took;
    } else {
        rec.discard(span);
    }
    let span = rec.open("grouped.graph", op, Some(parent));
    let graph = scaffold.graph_for(&inst.intervals);
    blocking += rec.close(span);
    blocking += trace_ladder(rec, parent, op, &graph, 1);
    let span = rec.open("convex", op, Some(parent));
    if convex_reference(&graph).is_some() {
        rec.close(span);
    } else {
        rec.discard(span);
    }
    blocking
}

/// Times the ladder, then each rung it tried through the rungs' own
/// public functions. Returns the ladder's time in nanoseconds.
pub fn trace_ladder(
    rec: &mut Recorder,
    parent: usize,
    op: u32,
    graph: &GroupedBigraph,
    threads: usize,
) -> u64 {
    let budget = Budget::unlimited();
    let span = rec.open("ladder", op, Some(parent));
    let answer = ladder(graph, threads);
    let ladder_ns = rec.close(span);
    let Ok(answer) = answer else {
        return ladder_ns;
    };
    let n = graph.n();
    if n <= MAX_PERMANENT_N {
        let span = rec.open("exact", op, Some(parent));
        let dense = graph.to_dense();
        let _ = andi_graph::exact::crack_probabilities_budgeted(&dense, threads, &budget);
        rec.close(span);
    }
    if answer.rung != "exact-permanent" {
        let span = rec.open("sampler", op, Some(parent));
        let seed = if (0..n).all(|i| graph.has_edge(i, i)) {
            Matching::identity(n)
        } else {
            andi_graph::hopcroft_karp(&graph.to_dense())
        };
        let config = RecipeConfig::default();
        let _ = andi_graph::sample_crack_probabilities_budgeted(
            graph,
            &seed,
            &config.sampler_schedule,
            config.seed,
            threads,
            &budget,
        );
        rec.close(span);
    }
    ladder_ns
}

/// Most ops a traced run replays in process; larger phases replay an
/// evenly spaced subset, so replay time stays bounded as the program
/// gets faster.
pub const MAX_REPLAYED_OPS: usize = 400;

/// The ops a traced run replays, with their op ids.
pub fn replayed<T>(ops: &[T]) -> impl Iterator<Item = (u32, &T)> {
    let step = ops.len().div_ceil(MAX_REPLAYED_OPS).max(1);
    ops.iter()
        .enumerate()
        .step_by(step)
        .map(|(i, op)| (i as u32, op))
}

/// Maps `f` over `items` on `threads` scoped threads, keeping order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                s.spawn(move || part.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    })
}
