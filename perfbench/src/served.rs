//! The served workloads: a closed-loop load generator over keep-alive
//! connections to a real `andi-serve` process.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use andi_core::incremental::{apply_edits_to_summary, DeltaBatch, Edit};
use andi_graph::FrequencyScaffold;
use andi_oracle::serial::Json;
use andi_serve::http::response_header;
use andi_serve::{Client, WireError};

use crate::gen::{self, Db, Rng};
use crate::metrics::{mean, median, median_ns, Report};
use crate::procs::Proc;
use crate::replay::{
    self, par_map, parse_served, replayed, trace_assess, Answer, Chain, Reference,
};
use crate::trace::Recorder;
use crate::{window_count, Outcome, RunArgs, Window, PER_LAYER, SETUP_REPS};

/// Keep-alive connections (one op in flight on each).
pub const CONNECTIONS: usize = 2;

/// An op whose response has not started after this long is failed.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Hot,
    Update,
}

/// One request as the load generator sends it.
#[derive(Clone, Debug)]
pub enum Req {
    Assess {
        text: Arc<str>,
        /// The client knows the server has not seen this database, so
        /// a computed answer also builds its scaffold.
        new_db: bool,
    },
    Update {
        body: String,
        /// The summary before the edit, and the appended transaction.
        old: Db,
        items: Vec<usize>,
    },
}

/// The op stream of one connection.
pub struct Stream {
    kind: Kind,
    seed: u64,
    conn: u64,
    next: u64,
    rng: Rng,
    pool: Arc<Vec<Arc<str>>>,
    dbs: Vec<Db>,
}

impl Stream {
    pub fn new(kind: Kind, seed: u64, conn: u64, pool: &Arc<Vec<Arc<str>>>) -> Stream {
        Stream {
            kind,
            seed,
            conn,
            next: 0,
            rng: Rng::new(gen::key(&[seed, 0x5eed, conn])),
            pool: Arc::clone(pool),
            dbs: if kind == Kind::Update {
                gen::update_dbs(seed, conn)
            } else {
                Vec::new()
            },
        }
    }

    fn db_id(&self, d: usize) -> usize {
        self.conn as usize * gen::DBS_PER_CONN + d
    }

    /// The next timed op.
    pub fn next_op(&mut self) -> Req {
        let i = self.next;
        self.next += 1;
        match self.kind {
            Kind::Cold => Req::Assess {
                text: gen::cold_instance(self.seed, self.conn, i).to_text().into(),
                new_db: true,
            },
            Kind::Hot => Req::Assess {
                text: Arc::clone(&self.pool[self.rng.below(self.pool.len() as u64) as usize]),
                new_db: false,
            },
            Kind::Update => {
                let d = ((i / gen::UPDATE_CYCLE) % gen::DBS_PER_CONN as u64) as usize;
                if i.is_multiple_of(gen::UPDATE_CYCLE) {
                    let old = self.dbs[d].clone();
                    let (body, next, items) = old.append(&mut self.rng);
                    self.dbs[d] = next;
                    Req::Update { body, old, items }
                } else {
                    // The beliefs cycle, so every cycle asks each one
                    // at least twice: 3 misses, then 4 hits.
                    let b = ((i % gen::UPDATE_CYCLE - 1) % gen::WIDTHS.len() as u64) as usize;
                    Req::Assess {
                        text: self.dbs[d].read(self.db_id(d), b).to_text().into(),
                        new_db: false,
                    }
                }
            }
        }
    }

    /// The warm-up ops this connection sends during set-up.
    pub fn warmup_ops(&self) -> Vec<Req> {
        match self.kind {
            Kind::Cold => (0..3)
                .map(|i| Req::Assess {
                    text: gen::cold_instance(self.seed, 1000 + self.conn, i)
                        .to_text()
                        .into(),
                    new_db: true,
                })
                .collect(),
            Kind::Hot => self
                .pool
                .iter()
                .skip(self.conn as usize)
                .step_by(CONNECTIONS)
                .map(|t| Req::Assess {
                    text: Arc::clone(t),
                    new_db: true,
                })
                .collect(),
            Kind::Update => (0..self.dbs.len())
                .flat_map(|d| (0..gen::WIDTHS.len()).map(move |b| (d, b)))
                .map(|(d, b)| Req::Assess {
                    text: self.dbs[d].read(self.db_id(d), b).to_text().into(),
                    new_db: true,
                })
                .collect(),
        }
    }
}

/// One completed (or failed) op.
#[derive(Clone, Debug)]
pub struct Rec {
    pub req: Req,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The `x-andi-cache` header (`hit`, `miss`, `join`, `uncached`).
    pub cache: String,
    pub answer: Option<Answer>,
    pub failure: Option<String>,
}

impl Rec {
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
    fn is_assess(&self) -> bool {
        matches!(self.req, Req::Assess { .. })
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends one op and waits for its full response. `WireError::Idle`
/// (the client's 200 ms read tick passing with no response bytes yet)
/// means "keep waiting"; any other failure fails the op without a
/// resend, and the connection is replaced.
fn exchange(client: &mut Client, addr: &str, req: Req, origin: Instant) -> Rec {
    let (path, body): (&str, &[u8]) = match &req {
        Req::Assess { text, .. } => ("/assess", text.as_bytes()),
        Req::Update { body, .. } => ("/update", body.as_bytes()),
    };
    let start = Instant::now();
    let sent = client.send("POST", path, body);
    let result = match sent {
        Err(e) => Err(format!("transport: {e}")),
        Ok(()) => loop {
            match client.recv() {
                Ok(resp) => break Ok(resp),
                Err(WireError::Idle) if start.elapsed() < OP_TIMEOUT => continue,
                Err(WireError::Idle) => break Err("timeout".to_string()),
                Err(e) => break Err(format!("transport: {}", e.to_json())),
            }
        },
    };
    let end = Instant::now();
    let mut rec = Rec {
        req,
        start_ns: (start - origin).as_nanos() as u64,
        end_ns: (end - origin).as_nanos() as u64,
        cache: String::new(),
        answer: None,
        failure: None,
    };
    match result {
        Err(why) => {
            rec.failure = Some(why);
            if let Ok(fresh) = connect(addr) {
                *client = fresh;
            }
        }
        Ok(resp) => {
            rec.cache = response_header(&resp, "x-andi-cache")
                .unwrap_or("")
                .to_string();
            if resp.status != 200 {
                rec.failure = Some(format!("status {}", resp.status));
            } else if rec.is_assess() {
                rec.answer = parse_served(&resp.body);
                if rec.answer.is_none() {
                    rec.failure = Some("unparseable /assess body".to_string());
                }
            } else if !update_ok(&resp.body) {
                rec.failure = Some("unexpected /update body".to_string());
            }
        }
    }
    rec
}

/// An `/update` answer must report one applied edit that moved the
/// database to a different fingerprint.
fn update_ok(body: &[u8]) -> bool {
    let Some(v) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return false;
    };
    let field = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    v.get("kind").and_then(Json::as_str) == Some("updated")
        && v.get("edits").and_then(Json::as_num) == Some("1")
        && field("old_db").is_some()
        && field("old_db") != field("new_db")
}

/// Runs each connection's op source on its own thread until
/// `deadline` (or until the fixed op lists run out).
fn run_loop(
    clients: &mut [Client],
    addr: &str,
    origin: Instant,
    work: Vec<Box<dyn FnMut() -> Option<Req> + Send + '_>>,
    deadline: Option<Instant>,
) -> Vec<Rec> {
    let mut recs: Vec<Rec> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(work)
            .map(|(client, mut source)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let Some(req) = source() else { break };
                        out.push(exchange(client, addr, req, origin));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    recs.sort_by_key(|r| r.start_ns);
    recs
}

/// Server counters read from `GET /stats`.
#[derive(Clone, Copy, Debug, Default)]
struct Stats {
    shed: u64,
    result: [u64; 5],
    scaffold: [u64; 5],
}

impl Stats {
    fn delta(self, before: Stats) -> Stats {
        let sub = |a: [u64; 5], b: [u64; 5]| std::array::from_fn(|i| a[i].saturating_sub(b[i]));
        Stats {
            shed: self.shed.saturating_sub(before.shed),
            result: sub(self.result, before.result),
            scaffold: sub(self.scaffold, before.scaffold),
        }
    }
    /// hits ÷ (hits + misses + joins + failures).
    fn hit_ratio(c: [u64; 5]) -> f64 {
        let lookups = c[0] + c[1] + c[2] + c[3];
        if lookups == 0 {
            0.0
        } else {
            c[0] as f64 / lookups as f64
        }
    }
}

fn read_stats(client: &mut Client) -> Result<Stats, String> {
    client
        .send("GET", "/stats", b"")
        .map_err(|e| format!("/stats: {e}"))?;
    let resp = loop {
        match client.recv() {
            Ok(r) => break r,
            Err(WireError::Idle) => continue,
            Err(e) => return Err(format!("/stats: {}", e.to_json())),
        }
    };
    let text = String::from_utf8_lossy(&resp.body).to_string();
    let v = Json::parse(&text).map_err(|e| format!("/stats body: {e}"))?;
    let num = |v: Option<&Json>| -> u64 {
        v.and_then(Json::as_num)
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    };
    let cache = |name: &str| -> [u64; 5] {
        let c = v.get(name);
        ["hits", "misses", "joins", "failures", "invalidations"]
            .map(|k| num(c.and_then(|c| c.get(k))))
    };
    Ok(Stats {
        shed: num(v.get("shed")),
        result: cache("result_cache"),
        scaffold: cache("scaffold_cache"),
    })
}

/// A launched, warmed server with its client connections.
struct Live {
    proc: Proc,
    addr: String,
    clients: Vec<Client>,
}

/// Launch → listening → connect → warm-up pass. Returns the live
/// server and the seconds the whole set-up took.
fn launch(serve_bin: &Path, streams: &[Stream]) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let mut proc = Proc::spawn(
        serve_bin,
        &["--addr", "127.0.0.1:0", "--workers", "2", "--quiet"],
        &[("ANDI_THREADS", "1")],
    )?;
    let line = proc.read_line()?;
    let addr = line
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected server banner {line:?}"))?
        .to_string();
    let mut clients = (0..CONNECTIONS)
        .map(|_| connect(&addr))
        .collect::<Result<Vec<_>, _>>()?;
    let work: Vec<Box<dyn FnMut() -> Option<Req> + Send>> = streams
        .iter()
        .map(|s| {
            let mut ops = s.warmup_ops().into_iter();
            Box::new(move || ops.next()) as Box<dyn FnMut() -> Option<Req> + Send>
        })
        .collect();
    let warm = run_loop(&mut clients, &addr, t0, work, None);
    if let Some(bad) = warm.iter().find(|r| r.failure.is_some()) {
        return Err(format!("warm-up op failed: {:?}", bad.failure));
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Live {
            proc,
            addr,
            clients,
        },
        secs,
    ))
}

/// One timed phase bracketed by `/stats` readings.
struct Phase {
    recs: Vec<Rec>,
    windows: Vec<Window>,
    stats: Stats,
}

fn timed_phase(
    live: &mut Live,
    streams: &mut [Stream],
    origin: Instant,
    seconds: f64,
) -> Result<Phase, String> {
    let before = read_stats(&mut live.clients[0])?;
    let clock = live.proc.cpu_clock();
    let n_windows = window_count(seconds);
    let window = Duration::from_secs_f64(seconds / f64::from(n_windows));
    let start = Instant::now();
    let work: Vec<Box<dyn FnMut() -> Option<Req> + Send + '_>> = streams
        .iter_mut()
        .map(|s| Box::new(move || Some(s.next_op())) as Box<dyn FnMut() -> Option<Req> + Send>)
        .collect();
    let (recs, marks) = std::thread::scope(|s| {
        // Reads the server's CPU clocks at each window boundary while
        // the connections run.
        let monitor = s.spawn(move || {
            let mut marks = vec![(start, clock.read())];
            for k in 1..=n_windows {
                std::thread::sleep((start + window * k).saturating_duration_since(Instant::now()));
                marks.push((Instant::now(), clock.read()));
            }
            marks
        });
        let recs = run_loop(
            &mut live.clients,
            &live.addr,
            origin,
            work,
            Some(start + window * n_windows),
        );
        (recs, monitor.join().expect("cpu monitor panicked"))
    });
    let ns = |t: Instant| (t - origin).as_nanos() as u64;
    let windows = marks
        .windows(2)
        .map(|pair| {
            let ((t0, c0), (t1, c1)) = (pair[0], pair[1]);
            let ops = recs
                .iter()
                .filter(|r| r.failure.is_none() && (ns(t0)..ns(t1)).contains(&r.end_ns))
                .count() as u64;
            Window {
                secs: (t1 - t0).as_secs_f64(),
                ops,
                cpu_ns: c1.since(c0),
            }
        })
        .collect();
    let after = read_stats(&mut live.clients[0])?;
    Ok(Phase {
        recs,
        windows,
        stats: after.delta(before),
    })
}

/// Checks every answered op against its in-process reference and
/// marks mismatches as failed. Returns (mismatches, relative risk
/// errors of the ops that have a convex reference).
fn check(recs: &mut [Rec]) -> Result<(usize, Vec<f64>), String> {
    let mut distinct: Vec<Arc<str>> = Vec::new();
    let mut index: HashMap<Arc<str>, usize> = HashMap::new();
    for r in recs.iter() {
        if let (Req::Assess { text, .. }, Some(_)) = (&r.req, &r.answer) {
            if !index.contains_key(text) {
                index.insert(Arc::clone(text), distinct.len());
                distinct.push(Arc::clone(text));
            }
        }
    }
    let refs: Vec<Result<Reference, String>> =
        par_map(&distinct, 2, |t: &Arc<str>| replay::served_reference(t));
    let mut mismatches = 0;
    let mut rel_errs = Vec::new();
    for r in recs.iter_mut() {
        let (Req::Assess { text, .. }, Some(answer)) = (&r.req, &r.answer) else {
            continue;
        };
        let reference = refs[index[text]].as_ref().map_err(String::clone)?;
        let want = &reference.answer;
        if answer.rung != want.rung
            || answer.degraded != want.degraded
            || answer.probs_hash != want.probs_hash
        {
            mismatches += 1;
            r.failure = Some(format!(
                "answer mismatch: served {} ({} expected cracks) vs in-process {} ({})",
                answer.rung, answer.expected, want.rung, want.expected
            ));
            continue;
        }
        if let Some(exact) = reference.exact.filter(|&e| e > 0.0) {
            rel_errs.push((answer.expected - exact).abs() / exact);
        }
    }
    Ok((mismatches, rel_errs))
}

fn share<'a>(recs: impl IntoIterator<Item = &'a Rec>, pred: impl Fn(&Answer) -> bool) -> f64 {
    let answers: Vec<&Answer> = recs.into_iter().filter_map(|r| r.answer.as_ref()).collect();
    if answers.is_empty() {
        0.0
    } else {
        answers.iter().filter(|a| pred(a)).count() as f64 / answers.len() as f64
    }
}

fn latencies(recs: &[Rec]) -> Vec<f64> {
    recs.iter()
        .filter(|r| r.failure.is_none())
        .map(Rec::latency_ms)
        .collect()
}

/// Replays the traced phase's ops in process and returns the traced
/// per-layer report.
fn trace_report(untraced: &Phase, traced: &Phase, rec: &mut Recorder) -> Report {
    let mut wire_ms = Vec::new();
    let mut apply_ns = Vec::new();
    for (op, r) in replayed(&traced.recs) {
        if r.failure.is_some() {
            continue;
        }
        let http = rec.record("http.request", op, None, r.start_ns, r.end_ns);
        let root = rec.open("replay", op, Some(http));
        let blocking = match &r.req {
            Req::Assess { text, new_db } => {
                let computed = r.cache == "miss" || r.cache == "uncached";
                let chain = Chain {
                    computed,
                    scaffold: *new_db,
                };
                trace_assess(rec, root, op, text, chain)
            }
            Req::Update { old, items, .. } => {
                let span = rec.open("incremental.apply", op, Some(root));
                let batch = DeltaBatch::new(vec![Edit::Insert {
                    items: items.clone(),
                }]);
                let (supports, m) =
                    apply_edits_to_summary(&old.supports, old.m, &batch).expect("edit replays");
                let apply = rec.close(span);
                apply_ns.push(apply);
                let span = rec.open("grouped.scaffold", op, Some(root));
                let _ = FrequencyScaffold::new(&supports, m);
                apply + rec.close(span)
            }
        };
        rec.close(root);
        wire_ms.push((r.end_ns - r.start_ns).saturating_sub(blocking) as f64 / 1e6);
    }
    let s = traced.stats;
    let assess_ops = traced.recs.iter().filter(|r| r.is_assess()).count().max(1);
    let mut report = Report::zeroed(&PER_LAYER);
    report.add("http.wire_ms", "ms", median(&wire_ms));
    report.add("admission.shed", "count", s.shed as f64);
    report.add(
        "cache.result_hit_ratio",
        "ratio",
        Stats::hit_ratio(s.result),
    );
    report.add(
        "cache.result_uncacheable",
        "ratio",
        s.result[3] as f64 / assess_ops as f64,
    );
    report.add(
        "cache.scaffold_hit_ratio",
        "ratio",
        Stats::hit_ratio(s.scaffold),
    );
    report.add(
        "cache.invalidations",
        "count",
        (s.result[4] + s.scaffold[4]) as f64,
    );
    layer_times(&mut report, rec);
    report.add("incremental.apply_us", "us", median_ns(&apply_ns, 1e3));
    answer_shares(&mut report, &traced.recs);
    let p50 = |p: &Phase| median(&latencies(&p.recs));
    report.add(
        "trace.overhead",
        "ratio",
        p50(traced) / p50(untraced).max(1e-12) - 1.0,
    );
    report
}

/// The replayed per-layer times shared by every workload.
pub fn layer_times(report: &mut Report, rec: &Recorder) {
    report.add(
        "instance.parse_us",
        "us",
        median_ns(&rec.durations("instance.parse"), 1e3),
    );
    report.add(
        "grouped.scaffold_us",
        "us",
        median_ns(&rec.durations("grouped.scaffold"), 1e3),
    );
    report.add(
        "grouped.graph_us",
        "us",
        median_ns(&rec.durations("grouped.graph"), 1e3),
    );
    report.add("ladder.ms", "ms", median_ns(&rec.durations("ladder"), 1e6));
    report.add("exact.ms", "ms", median_ns(&rec.durations("exact"), 1e6));
    report.add(
        "sampler.ms",
        "ms",
        median_ns(&rec.durations("sampler"), 1e6),
    );
    report.add("convex.ms", "ms", median_ns(&rec.durations("convex"), 1e6));
}

fn answer_shares(report: &mut Report, recs: &[Rec]) {
    report.add(
        "ladder.rung_exact",
        "ratio",
        share(recs, |a| a.rung == "exact-permanent"),
    );
    report.add(
        "ladder.rung_sampler",
        "ratio",
        share(recs, |a| a.rung == "matching-sampler"),
    );
    report.add(
        "ladder.rung_oestimate",
        "ratio",
        share(recs, |a| a.rung == "o-estimate"),
    );
    let trips: Vec<f64> = recs
        .iter()
        .filter_map(|r| r.answer.as_ref().map(|a| a.trips as f64))
        .collect();
    report.add("ladder.trips", "count/op", mean(&trips));
}

/// Runs one served workload.
pub fn run(kind: Kind, args: &RunArgs) -> Result<Outcome, String> {
    let pool: Arc<Vec<Arc<str>>> = Arc::new(if kind == Kind::Hot {
        gen::hot_pool(args.seed)
            .iter()
            .map(|i| Arc::from(i.to_text()))
            .collect()
    } else {
        Vec::new()
    });
    let mut streams: Vec<Stream> = (0..CONNECTIONS as u64)
        .map(|c| Stream::new(kind, args.seed, c, &pool))
        .collect();

    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (l, secs) = launch(&args.serve_bin, &streams)?;
        setups.push(secs);
        if rep + 1 == SETUP_REPS {
            live = Some(l);
        } else {
            drop(l);
        }
    }
    let mut live = live.expect("at least one set-up");
    let origin = Instant::now();

    let (mut untraced, mut traced) = if args.trace {
        let a = timed_phase(&mut live, &mut streams, origin, args.seconds / 2.0)?;
        let b = timed_phase(&mut live, &mut streams, origin, args.seconds / 2.0)?;
        (a, Some(b))
    } else {
        (
            timed_phase(&mut live, &mut streams, origin, args.seconds)?,
            None,
        )
    };
    let rss_mb = live.proc.peak_rss_mb();
    drop(live);

    let (mut mismatches, mut rel_errs) = check(&mut untraced.recs)?;
    if let Some(t) = traced.as_mut() {
        let (m, e) = check(&mut t.recs)?;
        mismatches += m;
        rel_errs.extend(e);
    }

    let all: Vec<&Rec> = untraced
        .recs
        .iter()
        .chain(traced.iter().flat_map(|t| t.recs.iter()))
        .collect();
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|r| r.failure.is_some()).count() as u64;
    if let Some(r) = all.iter().find(|r| r.failure.is_some()) {
        eprintln!("perfbench: first failed op: {:?}", r.failure);
    }
    let degraded_share = share(all.iter().copied(), |a| a.degraded);
    let layers = traced.as_ref().map(|t| {
        let mut rec = Recorder::new(origin);
        (trace_report(&untraced, t, &mut rec), rec)
    });
    Ok(Outcome {
        mismatches,
        attempted,
        failed,
        latencies_ms: latencies(&untraced.recs),
        phase_ops: untraced.recs.len(),
        windows: untraced.windows,
        rss_mb,
        setups_s: setups,
        degraded_share,
        rel_errs,
        layers,
    })
}
