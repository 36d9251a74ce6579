//! `recipe_batch`: the Figure 8 recipe (`assess_risk_budgeted`) in a
//! host process of its own, so its CPU time, peak RSS and start-up
//! are measured apart from the load generator's bookkeeping.
//!
//! The host (`perfbench --recipe-host`) reads `op <analog> <seed>`
//! lines, synthesizes the support profile, times one recipe call and
//! answers `ok <ns> <full_compliance_oe bits> <rung> <degraded>
//! <trips>`.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use andi_core::recipe::{assess_risk_budgeted, assess_risk_budgeted_with_threads, RecipeConfig};
use andi_core::BeliefFunction;
use andi_data::stats::FrequencyGroups;
use andi_data::synth::Analog;
use andi_graph::Budget;

use crate::gen;
use crate::metrics::{mean, median, median_ns, Report};
use crate::procs::Proc;
use crate::replay::{self, answer_of, convex_reference, ladder, par_map, recipe_graph, replayed};
use crate::trace::Recorder;
use crate::{window_count, Outcome, RunArgs, Window, PER_LAYER, SETUP_REPS};

/// Worker threads of the recipe host (`ANDI_THREADS`).
pub const HOST_THREADS: &str = "2";

/// The host side: serves recipe calls until `quit` or EOF.
pub fn host() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    let config = RecipeConfig::default();
    writeln!(out, "ready").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let reply = match words.as_slice() {
            ["quit"] => break,
            ["op", a, s] => {
                let analog = a
                    .parse::<usize>()
                    .ok()
                    .and_then(|a| Analog::ALL.get(a).copied());
                match (analog, s.parse::<u64>()) {
                    (Some(analog), Ok(seed)) => {
                        let supports = analog.supports_seeded(seed);
                        let m = analog.spec().n_transactions;
                        let t0 = Instant::now();
                        let result =
                            assess_risk_budgeted(&supports, m, &config, &Budget::unlimited());
                        let ns = t0.elapsed().as_nanos();
                        match result {
                            Ok(r) => {
                                let a = answer_of(&r.provenance, &[]);
                                format!(
                                    "ok {ns} {:x} {} {} {}",
                                    r.assessment.full_compliance_oe.to_bits(),
                                    a.rung,
                                    u8::from(r.provenance.degraded),
                                    r.provenance.trips.len()
                                )
                            }
                            Err(e) => format!("err {}", e.to_string().replace('\n', " ")),
                        }
                    }
                    _ => "err bad op".to_string(),
                }
            }
            _ => "err unknown command".to_string(),
        };
        writeln!(out, "{reply}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One recipe call as the host reported it.
#[derive(Clone, Debug)]
struct Call {
    analog: usize,
    seed: u64,
    ns: u64,
    oe_bits: u64,
    rung: String,
    degraded: bool,
    trips: usize,
    failure: Option<String>,
}

fn call(host: &mut Proc, analog: usize, seed: u64) -> Result<Call, String> {
    host.write_line(&format!("op {analog} {seed}"))?;
    let line = host.read_line()?;
    let words: Vec<&str> = line.split_whitespace().collect();
    let mut c = Call {
        analog,
        seed,
        ns: 0,
        oe_bits: 0,
        rung: String::new(),
        degraded: false,
        trips: 0,
        failure: None,
    };
    match words.as_slice() {
        ["ok", ns, bits, rung, degraded, trips] => {
            c.ns = ns.parse().map_err(|_| "bad host reply")?;
            c.oe_bits = u64::from_str_radix(bits, 16).map_err(|_| "bad host reply")?;
            c.rung = rung.to_string();
            c.degraded = *degraded == "1";
            c.trips = trips.parse().map_err(|_| "bad host reply")?;
        }
        _ => c.failure = Some(line.clone()),
    }
    Ok(c)
}

fn launch(args: &RunArgs) -> Result<(Proc, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let t0 = Instant::now();
    let mut host = Proc::spawn(&exe, &["--recipe-host"], &[("ANDI_THREADS", HOST_THREADS)])?;
    let banner = host.read_line()?;
    if banner != "ready" {
        return Err(format!("unexpected recipe-host banner {banner:?}"));
    }
    for (a, s) in gen::recipe_warmup(args.seed) {
        let c = call(&mut host, a, s)?;
        if let Some(why) = c.failure {
            return Err(format!("warm-up recipe call failed: {why}"));
        }
    }
    Ok((host, t0.elapsed().as_secs_f64()))
}

struct Phase {
    calls: Vec<Call>,
    windows: Vec<Window>,
}

fn timed_phase(host: &mut Proc, seed: u64, next: &mut u64, seconds: f64) -> Result<Phase, String> {
    let clock = host.cpu_clock();
    let n_windows = window_count(seconds);
    let window = Duration::from_secs_f64(seconds / f64::from(n_windows));
    let start = Instant::now();
    let mut mark = (start, clock.read());
    let (mut calls, mut windows, mut ops) = (Vec::new(), Vec::new(), 0);
    loop {
        let now = Instant::now();
        if now >= start + window * (windows.len() as u32 + 1) {
            let reading = clock.read();
            windows.push(Window {
                secs: (now - mark.0).as_secs_f64(),
                ops,
                cpu_ns: reading.since(mark.1),
            });
            (mark, ops) = ((now, reading), 0);
            if windows.len() as u32 == n_windows {
                break;
            }
        }
        let (a, s) = gen::recipe_op(seed, *next);
        *next += 1;
        let c = call(host, a, s)?;
        ops += u64::from(c.failure.is_none());
        calls.push(c);
    }
    Ok(Phase { calls, windows })
}

/// Each call's `full_compliance_oe` must equal, bit for bit, the sum
/// of the ladder probabilities on the recipe's own graph, and the
/// rung must agree. Returns (mismatches, relative risk errors).
fn check(calls: &mut [Call]) -> Result<(usize, Vec<f64>), String> {
    let mut inputs: Vec<(usize, u64)> = calls.iter().map(|c| (c.analog, c.seed)).collect();
    inputs.sort_unstable();
    inputs.dedup();
    let computed = par_map(&inputs, 2, |&(a, seed): &(usize, u64)| {
        let analog = Analog::ALL[a];
        let supports = analog.supports_seeded(seed);
        let graph = recipe_graph(&supports, analog.spec().n_transactions);
        ladder(&graph, 1).map(|answer| (answer, convex_reference(&graph)))
    });
    let refs: HashMap<(usize, u64), _> = inputs.into_iter().zip(computed).collect();
    let mut mismatches = 0;
    let mut rel = Vec::new();
    for c in calls.iter_mut() {
        if c.failure.is_some() {
            continue;
        }
        let (want, exact) = refs[&(c.analog, c.seed)].clone()?;
        if c.oe_bits != want.expected.to_bits() || c.rung != want.rung {
            mismatches += 1;
            c.failure = Some(format!(
                "answer mismatch on {}: recipe {} vs ladder {}",
                Analog::ALL[c.analog],
                f64::from_bits(c.oe_bits),
                want.expected
            ));
            continue;
        }
        if let Some(e) = exact.filter(|&e| e > 0.0) {
            rel.push((f64::from_bits(c.oe_bits) - e).abs() / e);
        }
    }
    Ok((mismatches, rel))
}

/// Replays each traced call's recipe stages in process.
fn trace_report(untraced: &Phase, traced: &Phase, rec: &mut Recorder) -> Report {
    let threads: usize = HOST_THREADS.parse().expect("a number");
    let config = RecipeConfig::default();
    let (mut groups_ns, mut belief_ns, mut ladder_ns, mut mask_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (op, c) in replayed(&traced.calls) {
        if c.failure.is_some() {
            continue;
        }
        let analog = Analog::ALL[c.analog];
        let supports = analog.supports_seeded(c.seed);
        let m = analog.spec().n_transactions;
        let root = rec.open("recipe.assess", op, None);
        let _ =
            assess_risk_budgeted_with_threads(&supports, m, &config, &Budget::unlimited(), threads);
        let whole = rec.close(root);
        let span = rec.open("recipe.groups", op, Some(root));
        let delta = FrequencyGroups::from_supports(&supports, m)
            .median_gap()
            .unwrap_or(0.0);
        let g = rec.close(span);
        let span = rec.open("recipe.belief", op, Some(root));
        let freqs: Vec<f64> = supports.iter().map(|&s| s as f64 / m as f64).collect();
        let graph = BeliefFunction::widened(&freqs, delta)
            .expect("frequencies lie in [0, 1]")
            .build_graph(&supports, m);
        let b = rec.close(span);
        let l = replay::trace_ladder(rec, root, op, &graph, threads);
        let span = rec.open("convex", op, Some(root));
        if convex_reference(&graph).is_some() {
            rec.close(span);
        } else {
            rec.discard(span);
        }
        groups_ns.push(g);
        belief_ns.push(b);
        ladder_ns.push(l);
        mask_ns.push(whole.saturating_sub(g + b + l));
    }
    let mut report = Report::zeroed(&PER_LAYER);
    crate::served::layer_times(&mut report, rec);
    report.add("recipe.groups_us", "us", median_ns(&groups_ns, 1e3));
    report.add("recipe.belief_us", "us", median_ns(&belief_ns, 1e3));
    report.add("recipe.ladder_ms", "ms", median_ns(&ladder_ns, 1e6));
    report.add("recipe.mask_ms", "ms", median_ns(&mask_ns, 1e6));
    let ok: Vec<&Call> = traced
        .calls
        .iter()
        .filter(|c| c.failure.is_none())
        .collect();
    let share =
        |rung: &str| ok.iter().filter(|c| c.rung == rung).count() as f64 / ok.len().max(1) as f64;
    report.add("ladder.rung_exact", "ratio", share("exact-permanent"));
    report.add("ladder.rung_sampler", "ratio", share("matching-sampler"));
    report.add("ladder.rung_oestimate", "ratio", share("o-estimate"));
    let trips: Vec<f64> = ok.iter().map(|c| c.trips as f64).collect();
    report.add("ladder.trips", "count/op", mean(&trips));
    let p50 = |p: &Phase| median(&latencies(p));
    report.add(
        "trace.overhead",
        "ratio",
        p50(traced) / p50(untraced).max(1e-12) - 1.0,
    );
    report
}

fn latencies(p: &Phase) -> Vec<f64> {
    p.calls
        .iter()
        .filter(|c| c.failure.is_none())
        .map(|c| c.ns as f64 / 1e6)
        .collect()
}

/// Runs `recipe_batch`.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut host = None;
    for rep in 0..SETUP_REPS {
        let (h, secs) = launch(args)?;
        setups.push(secs);
        if rep + 1 == SETUP_REPS {
            host = Some(h);
        } else {
            drop(h);
        }
    }
    let mut host = host.expect("at least one set-up");
    let origin = Instant::now();
    let mut next = 0u64;
    let (mut untraced, mut traced) = if args.trace {
        let a = timed_phase(&mut host, args.seed, &mut next, args.seconds / 2.0)?;
        let b = timed_phase(&mut host, args.seed, &mut next, args.seconds / 2.0)?;
        (a, Some(b))
    } else {
        (
            timed_phase(&mut host, args.seed, &mut next, args.seconds)?,
            None,
        )
    };
    let rss_mb = host.peak_rss_mb();
    let _ = host.write_line("quit");
    drop(host);

    let (mut mismatches, mut rel) = check(&mut untraced.calls)?;
    if let Some(t) = traced.as_mut() {
        let (m, r) = check(&mut t.calls)?;
        mismatches += m;
        rel.extend(r);
    }
    let all: Vec<&Call> = untraced
        .calls
        .iter()
        .chain(traced.iter().flat_map(|t| t.calls.iter()))
        .collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|c| c.failure.is_some()).count() as u64;
    if let Some(c) = all.iter().find(|c| c.failure.is_some()) {
        eprintln!("perfbench: first failed op: {:?}", c.failure);
    }
    let ok = all.iter().filter(|c| c.failure.is_none());
    let degraded_share =
        ok.clone().filter(|c| c.degraded).count() as f64 / ok.count().max(1) as f64;
    let layers = traced.as_ref().map(|t| {
        let mut rec = Recorder::new(origin);
        (trace_report(&untraced, t, &mut rec), rec)
    });
    Ok(Outcome {
        mismatches,
        attempted,
        failed,
        latencies_ms: latencies(&untraced),
        phase_ops: untraced.calls.len(),
        windows: untraced.windows,
        rss_mb,
        setups_s: setups,
        degraded_share,
        rel_errs: rel,
        layers,
    })
}
