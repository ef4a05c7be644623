//! `lewisbench` — the LEWIS serving benchmark.
//!
//! ```text
//! lewisbench --workload NAME --seed N --seconds S --trace 0|1 [--small]
//! ```
//!
//! Starts the real `lewis-serve` binary (built next to this one), warms
//! it, drives it from two closed-loop keep-alive connections for `S`
//! seconds of whole request-list rounds, checks every answer, and prints
//! one JSON line: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). `--small` runs the reduced-size
//! self-test mode (1/50 of the rows). A human summary goes to stderr.

mod check;
mod http;
mod load;
mod server;
mod stats;
mod trace;
mod workload;

use check::Verdict;
use http::Conn;
use lewis_serve::wire::Json;
use load::{Ledger, LoadResult};
use server::ServerProc;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Kind, Prepared};

/// Times the serving process is started and warmed per run; `setup_s`
/// is their median.
const SETUP_REPS: usize = 5;
/// First-round answers compared with in-process answers per run.
const PARITY_SAMPLE: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => args.trace = value()? == "1",
            "--small" => args.small = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The serving binaries sit next to this one in the cargo target dir.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("no binary directory")?.to_path_buf();
    if !dir.join("lewis-serve").exists() {
        return Err(format!("lewis-serve is not built in {}", dir.display()));
    }
    Ok(dir)
}

/// Scratch files (the compiled pack) live under the target dir.
fn work_dir(bins: &Path) -> Result<PathBuf, String> {
    let dir = bins.join("lewisbench-work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One explain or append over `conn`, classified.
fn checked(
    conn: &mut Conn,
    prep: &Prepared,
    shape: &check::Shape,
    request: &lewis_core::ExplainRequest,
) -> (Verdict, u16, Vec<u8>) {
    let body = lewis_serve::wire::request_to_json(request).to_json();
    match load::send(conn, &prep.path(Kind::Global), body.as_bytes()) {
        Ok((status, body, _)) => (check::verdict(shape, request, status, &body), status, body),
        Err(e) => (Verdict::Failed(e), 0, Vec::new()),
    }
}

/// In-process answers to the ground-truth requests, computed once.
struct Expected(Vec<Option<(u16, String)>>);

impl Expected {
    fn get(
        &mut self,
        engine: &lewis_core::Engine,
        i: usize,
        request: &lewis_core::ExplainRequest,
    ) -> (u16, String) {
        self.0[i]
            .get_or_insert_with(|| check::in_process(engine, request))
            .clone()
    }
}

/// Hold served answers to the ground-truth requests against the truth
/// and against `engine`'s in-process answers.
fn truth_checks(
    conn: &mut Conn,
    prep: &Prepared,
    shape: &check::Shape,
    engine: &lewis_core::Engine,
    expected: &mut Expected,
    ledger: &mut Ledger,
) {
    for (i, truth) in prep.truths.iter().enumerate() {
        let (mut verdict, status, body) = checked(conn, prep, shape, &truth.request);
        if verdict == Verdict::Answered {
            let response = std::str::from_utf8(&body)
                .ok()
                .and_then(|b| Json::parse(b).ok())
                .and_then(|j| lewis_serve::wire::response_from_json(&j).ok());
            if let Some(response) = response {
                if let Err(e) = check::check_truth(truth, &response) {
                    verdict = Verdict::Failed(e);
                }
            }
            let want = expected.get(engine, i, &truth.request);
            if let (Verdict::Answered, Err(e)) =
                (&verdict, check::same_answer(&want, status, &body))
            {
                verdict = Verdict::Failed(e);
            }
        }
        ledger.record(Kind::of(&truth.request), verdict);
    }
}

/// Start the server, run the warm-up, and return it with the seconds
/// from process start to the end of warm-up.
fn start_and_warm(
    bins: &Path,
    prep: &Prepared,
    shape: &check::Shape,
    expected: &mut Expected,
    ledger: &mut Ledger,
) -> Result<(ServerProc, f64), String> {
    let server = ServerProc::spawn(&bins.join("lewis-serve"), &prep.server_args)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for op in &prep.warmup {
        let request = op.request.as_ref().expect("warm-up ops are reads");
        let (verdict, _, _) = checked(&mut conn, prep, shape, request);
        ledger.record(op.kind, verdict);
    }
    // German-syn: ground truth before the first append
    truth_checks(&mut conn, prep, shape, &prep.reference, expected, ledger);
    let secs = server.started.elapsed().as_secs_f64();
    Ok((server, secs))
}

/// Fold what the writer left in the delta, so background work ends
/// inside the run. Returns the compactions this call performed.
fn drain(addr: std::net::SocketAddr, prep: &Prepared, ledger: &mut Ledger) -> usize {
    let path = format!("/v1/engines/{}/compact", prep.engine);
    let mut folds = 0;
    let Ok(mut conn) = Conn::connect(addr) else {
        ledger.record(
            Kind::Append,
            Verdict::Failed("connect for compaction".into()),
        );
        return 0;
    };
    for _ in 0..2000 {
        let Ok((status, body)) = conn.send("POST", &path, b"") else {
            ledger.record(Kind::Append, Verdict::Failed("compaction transport".into()));
            return folds;
        };
        let json = std::str::from_utf8(&body)
            .ok()
            .and_then(|b| Json::parse(b).ok());
        let field = |name: &str| {
            json.as_ref()
                .and_then(|j| j.get(name))
                .and_then(|v| v.as_f64())
        };
        let skipped = json
            .as_ref()
            .and_then(|j| j.get("skipped"))
            .is_some_and(|v| *v == Json::Bool(true));
        if status != 200 {
            ledger.record(
                Kind::Append,
                Verdict::Failed(format!("compaction answered {status}")),
            );
            return folds;
        }
        if !skipped && field("folded_rows").unwrap_or(0.0) > 0.0 {
            folds += 1;
        }
        if !skipped && field("pending_delta_rows") == Some(0.0) {
            return folds;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    ledger.record(
        Kind::Append,
        Verdict::Failed("the delta never drained".into()),
    );
    folds
}

/// Counting-cache hits, misses and resident entries, and surrogate-cache
/// hits and misses, from `/metrics`.
fn cache_counters(addr: std::net::SocketAddr, engine: &str) -> Option<[f64; 5]> {
    let mut conn = Conn::connect(addr).ok()?;
    let (_, body) = conn.send("GET", "/metrics", b"").ok()?;
    let json = Json::parse(std::str::from_utf8(&body).ok()?).ok()?;
    let e = json.get("engines")?.get(engine)?;
    let c = e.get("counting_cache")?;
    let s = e.get("surrogate_cache")?;
    Some([
        c.get("hits")?.as_f64()?,
        c.get("misses")?.as_f64()?,
        s.get("hits")?.as_f64()?,
        s.get("misses")?.as_f64()?,
        c.get("entries")?.as_f64()?,
    ])
}

/// After the live run: the server's answers match the SCM ground truth
/// and an in-process live engine fed the same batches.
fn live_checks(
    addr: std::net::SocketAddr,
    prep: &Prepared,
    shape: &check::Shape,
    load: &LoadResult,
    ledger: &mut Ledger,
) {
    let mirror = lewis_live::LiveEngine::new(prep.reference.clone());
    for (i, batch) in prep.batches.iter().take(load.batches_sent).enumerate() {
        if mirror.append_rows(&batch.rows).is_err() {
            ledger.record(
                Kind::Append,
                Verdict::Failed("mirror rejected a batch".into()),
            );
        }
        if (i + 1) % workload::LIVE_APPENDS == 0 {
            let _ = mirror.compact();
        }
    }
    let _ = mirror.compact();
    let engine = mirror.engine();
    let mut expected = Expected(vec![None; prep.truths.len()]);
    match Conn::connect(addr) {
        Ok(mut conn) => truth_checks(&mut conn, prep, shape, &engine, &mut expected, ledger),
        Err(e) => ledger.record(Kind::Global, Verdict::Failed(format!("connect: {e}"))),
    }
}

/// A seeded sample of read positions in the connection lists.
fn parity_sample(prep: &Prepared, seed: u64) -> Vec<(usize, usize)> {
    let mut all: Vec<(usize, usize)> = Vec::new();
    for (c, list) in prep.conns.iter().enumerate() {
        for (i, op) in list.iter().enumerate() {
            if op.request.is_some() {
                all.push((c, i));
            }
        }
    }
    let mut rng = stats::Rng::new(seed, 9);
    rng.shuffle(&mut all);
    all.truncate(PARITY_SAMPLE);
    all
}

fn run(args: &Args) -> Result<String, String> {
    let bins = bin_dir()?;
    let work = work_dir(&bins)?;
    let prep = workload::prepare(&args.workload, args.seed, args.small, &bins, &work)?;
    let shape = check::Shape::of(&prep.reference);
    let mut ledger = Ledger::default();
    let mut expected = Expected(vec![None; prep.truths.len()]);

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (s, secs) = start_and_warm(&bins, &prep, &shape, &mut expected, &mut ledger)?;
        setups.push(secs);
        if rep + 1 < SETUP_REPS {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one setup");

    let sample = if prep.batches.is_empty() {
        parity_sample(&prep, args.seed)
    } else {
        Vec::new()
    };
    let caches0 = cache_counters(server.addr, prep.engine);
    let cpu0 = server.cpu_seconds();
    let t0 = Instant::now();
    let mut load = load::run(server.addr, &prep, args.seconds, &sample)?;
    let mut ledger_run = Ledger::default();
    let final_folds = if prep.batches.is_empty() {
        0
    } else {
        drain(server.addr, &prep, &mut ledger_run)
    };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = server.cpu_seconds() - cpu0;
    let caches1 = cache_counters(server.addr, prep.engine);
    let peak_rss = server.peak_rss_mib();
    let ops = load.samples.len() as f64;

    // answer checks outside the timed phase
    for (c, i, status, body) in &load.first_answers {
        let op = &prep.conns[*c][*i];
        let request = op.request.as_ref().expect("sampled ops are reads");
        let want = check::in_process(&prep.reference, request);
        if let Err(e) = check::same_answer(&want, *status, body) {
            ledger_run.record(op.kind, Verdict::Failed(e));
        }
    }
    if !prep.batches.is_empty() {
        live_checks(server.addr, &prep, &shape, &load, &mut ledger_run);
    }

    let traced = if args.trace {
        Some(trace::probes(&server, &prep, &load)?)
    } else {
        None
    };
    server.shutdown();

    ledger.merge(ledger_run);
    ledger.merge(std::mem::take(&mut load.ledger));
    let total = ledger.total();
    let compactions = load.compactions_armed + final_folds;
    report(
        &args.workload,
        &prep,
        &ledger,
        &load,
        &setups,
        caches0,
        caches1,
        compactions,
    );

    let metrics = match traced {
        Some(layers) => layers,
        None => {
            let p50 = |kind: Kind| {
                let v: Vec<f64> = load
                    .concurrent()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.us)
                    .collect();
                stats::median(&v).unwrap_or(0.0)
            };
            let reads: Vec<f64> = load
                .concurrent()
                .filter(|s| s.kind != Kind::Append)
                .map(|s| s.us)
                .collect();
            let mut m = vec![(
                "setup_s".to_string(),
                stats::median(&setups).unwrap_or(0.0),
                "s",
            )];
            for kind in Kind::READS {
                m.push((format!("{}_p50_us", kind.name()), p50(kind), "us"));
            }
            m.push((
                "read_p95_us".into(),
                stats::quantile(&reads, 0.95).unwrap_or(0.0),
                "us",
            ));
            m.push(("qps".into(), ops / wall, "1/s"));
            m.push(("cpu_us_per_op".into(), cpu * 1e6 / ops.max(1.0), "us"));
            m.push(("peak_rss_mb".into(), peak_rss, "MiB"));
            m
        }
    };
    let metrics_json = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(total.failed == 0)),
        ("attempted", Json::num(total.attempted as f64)),
        ("failed", Json::num(total.failed as f64)),
        ("metrics", metrics_json),
    ]);
    Ok(line.to_json())
}

#[allow(clippy::too_many_arguments)]
fn report(
    workload: &str,
    prep: &Prepared,
    ledger: &Ledger,
    load: &LoadResult,
    setups: &[f64],
    caches0: Option<[f64; 5]>,
    caches1: Option<[f64; 5]>,
    compactions: usize,
) {
    eprintln!(
        "workload {workload}: {} rows, rounds {:?}, {:.2} s timed; latency figures from the {} of {} requests answered while both connections ran",
        prep.rows,
        load.rounds,
        load.wall.as_secs_f64(),
        load.concurrent().count(),
        load.samples.len()
    );
    eprintln!("setup seconds: {setups:.3?}");
    eprintln!(
        "{:<11} {:>9} {:>9} {:>11} {:>11} {:>7}",
        "kind", "attempted", "answered", "unsupported", "no_recourse", "failed"
    );
    for kind in Kind::ALL {
        if let Some(t) = ledger.kinds.get(&kind) {
            eprintln!(
                "{:<11} {:>9} {:>9} {:>11} {:>11} {:>7}",
                kind.name(),
                t.attempted,
                t.answered,
                t.unsupported,
                t.no_recourse,
                t.failed
            );
        }
    }
    // a recourse median must not mix found answers with `no_recourse`
    // ones, which walk every escalation rung
    let outcome = |declined: bool| {
        let v: Vec<f64> = load
            .concurrent()
            .filter(|s| s.kind == Kind::Recourse && s.no_recourse == declined)
            .map(|s| s.us)
            .collect();
        (v.len(), stats::median(&v).unwrap_or(0.0))
    };
    let ((found, found_us), (none, none_us)) = (outcome(false), outcome(true));
    eprintln!(
        "timed recourse p50 by outcome: {found} found, {found_us:.1} µs; {none} no_recourse, {none_us:.1} µs"
    );
    if let (Some(a), Some(b)) = (caches0, caches1) {
        let (h, m, sh, sm) = (b[0] - a[0], b[1] - a[1], b[2] - a[2], b[3] - a[3]);
        eprintln!(
            "timed phase: counting cache {h} hits / {m} misses (hit rate {:.3}, {} passes resident at the end); surrogate cache {sh} hits / {sm} misses",
            h / (h + m).max(1.0),
            b[4]
        );
    }
    if !prep.batches.is_empty() {
        eprintln!(
            "appended {} batches of {} rows; {compactions} compactions",
            load.batches_sent,
            workload::BATCH_ROWS
        );
    }
    for f in &ledger.failures {
        eprintln!("FAILED {f}");
    }
}
