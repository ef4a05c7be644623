//! The traced run's per-layer probes. Each times calls into one layer's
//! public functions from this benchmark's own code; the program itself
//! is untouched. The probes start after the timed phase has ended, so
//! the timed phase of a traced run is that of an untraced run.

use crate::http::Conn;
use crate::load::{self, LoadResult};
use crate::server::ServerProc;
use crate::stats::{median, timed_ms};
use crate::workload::{Kind, Prepared, BATCH_ROWS};
use lewis_core::{Engine, ExplainRequest};
use lewis_live::LiveEngine;
use lewis_serve::wire::{self, Json};
use lewis_store::{Pack, PackMeta};
use std::time::Instant;

/// Reads of each kind per connection list replayed in process (the
/// first ones in list order; a live writer's list is replayed whole).
const REPLAY_PER_KIND: usize = 24;
/// Round trips per HTTP probe.
const HEALTHZ_PROBES: usize = 400;

pub type Metric = (String, f64, &'static str);

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// In-process replay of the lists' prefixes. Returns per-kind engine
/// times, reads that directly followed an append, append times, wire
/// timings and response sizes, and the cache and surrogate deltas.
struct Replay {
    engine_us: Vec<(Kind, f64)>,
    after_append_us: Vec<f64>,
    append_us: Vec<f64>,
    decode_us: Vec<(Kind, f64)>,
    encode_us: Vec<(Kind, f64)>,
    /// Sizes of global answers.
    bytes: Vec<f64>,
    cache: (u64, u64),
    surrogates: (u64, u64),
    ops: usize,
    compact_ms: Vec<f64>,
}

fn replay(prep: &Prepared, live: &LiveEngine, batches: &[Vec<Vec<tabular::Value>>]) -> Replay {
    let mut r = Replay {
        engine_us: Vec::new(),
        after_append_us: Vec::new(),
        append_us: Vec::new(),
        decode_us: Vec::new(),
        encode_us: Vec::new(),
        bytes: Vec::new(),
        cache: (0, 0),
        surrogates: (0, 0),
        ops: 0,
        compact_ms: Vec::new(),
    };
    let c0 = live.engine().cache_stats();
    let s0 = live.engine().surrogate_stats();
    let mut next = 0usize;
    for list in &prep.conns {
        let mut after_append = false;
        let mut taken = std::collections::BTreeMap::new();
        let sample = list.iter().filter(|op| {
            let n = taken.entry(op.kind).or_insert(0usize);
            *n += 1;
            op.kind == Kind::Append || !prep.batches.is_empty() || *n <= REPLAY_PER_KIND
        });
        for op in sample {
            r.ops += 1;
            let Some(request) = &op.request else {
                if let Some(rows) = batches.get(next) {
                    next += 1;
                    let t = Instant::now();
                    let _ = live.append_rows(rows);
                    r.append_us.push(us_since(t));
                    if next.is_multiple_of(crate::workload::LIVE_APPENDS) {
                        let (_, ms) = timed_ms(|| live.compact());
                        r.compact_ms.push(ms);
                    }
                }
                after_append = true;
                continue;
            };
            let t = Instant::now();
            let parsed = Json::parse(&op.body)
                .ok()
                .and_then(|j| wire::request_from_json(&j).ok());
            r.decode_us.push((op.kind, us_since(t)));
            std::hint::black_box(parsed);
            let engine = live.engine();
            let t = Instant::now();
            let answer = engine.run(request);
            let us = us_since(t);
            r.engine_us.push((op.kind, us));
            if after_append {
                r.after_append_us.push(us);
            }
            after_append = false;
            if let Ok(response) = answer {
                let t = Instant::now();
                let body = wire::response_to_json(&response).to_json();
                r.encode_us.push((op.kind, us_since(t)));
                if op.kind == Kind::Global {
                    r.bytes.push(body.len() as f64);
                }
            }
        }
    }
    let c1 = live.engine().cache_stats();
    let s1 = live.engine().surrogate_stats();
    r.cache = (c1.hits - c0.hits, c1.misses - c0.misses);
    r.surrogates = (s1.hits - s0.hits, s1.misses - s0.misses);
    r
}

fn rebuild(reference: &Engine) -> Result<Engine, String> {
    let est = reference.estimator();
    let mut builder = Engine::builder(reference.table().clone())
        .prediction(est.pred_attr(), est.positive())
        .features(reference.features())
        .cache_capacity(reference.cache_stats().capacity)
        .shards(reference.shards())
        .index(reference.index_enabled());
    if let Some(graph) = reference.graph() {
        builder = builder.graph(graph);
    }
    builder.build().map_err(|e| e.to_string())
}

fn generate(prep: &Prepared) -> f64 {
    let (_, ms) = timed_ms(|| match prep.workload {
        "german_live_1m" => datasets::german_syn_scaled(prep.rows, crate::workload::DATA_SEED)
            .table
            .n_rows(),
        _ => datasets::AdultDataset::generate(prep.rows, crate::workload::DATA_SEED)
            .table
            .n_rows(),
    });
    ms
}

/// Run every probe and print the reconciliation table; returns the
/// per-layer metrics.
pub fn probes(
    server: &ServerProc,
    prep: &Prepared,
    load: &LoadResult,
) -> Result<Vec<Metric>, String> {
    let mut m: Vec<Metric> = Vec::new();

    // serve: /healthz and append round trips against the live server
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    let mut healthz = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let t = Instant::now();
        conn.send("GET", "/healthz", b"")
            .map_err(|e| e.to_string())?;
        healthz.push(us_since(t));
    }
    let mut serve_append: Vec<f64> = load
        .concurrent()
        .filter(|s| s.kind == Kind::Append)
        .map(|s| s.us)
        .collect();
    let probe_batches: Vec<Vec<Vec<tabular::Value>>> = if prep.batches.is_empty() {
        prep.probe_rows
            .chunks(BATCH_ROWS)
            .map(|c| c.to_vec())
            .collect()
    } else {
        prep.batches
            .iter()
            .take(crate::workload::LIVE_APPENDS)
            .map(|b| b.rows.clone())
            .collect()
    };
    if serve_append.is_empty() {
        for rows in &probe_batches {
            let body = Json::obj([(
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|r| Json::Arr(r.iter().map(|&v| Json::num(v)).collect()))
                        .collect(),
                ),
            )])
            .to_json();
            let (_, _, us) = load::send(&mut conn, &prep.path(Kind::Append), body.as_bytes())?;
            serve_append.push(us);
        }
    }
    drop(conn);

    // engine, wire, cache, live: replay the lists in process
    let rebuilt = {
        let (engine, ms) = timed_ms(|| rebuild(&prep.reference));
        m.push(("engine.build_ms".into(), ms, "ms"));
        engine?
    };
    let live = LiveEngine::new(prep.reference.clone());
    if prep.first_visits {
        live.engine().clear_cache();
    }
    for op in &prep.warmup {
        if let Some(request) = &op.request {
            let _ = live.engine().run(request);
        }
    }
    let r = replay(prep, &live, &probe_batches);
    let by_kind = |kind: Kind| -> Vec<f64> {
        r.engine_us
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, us)| us)
            .collect()
    };
    let of_kind = |v: &[(Kind, f64)], kind: Option<Kind>| -> f64 {
        let v: Vec<f64> = v
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|&(_, us)| us)
            .collect();
        med(&v)
    };
    let decode = of_kind(&r.decode_us, None);
    let encode = of_kind(&r.encode_us, None);
    let healthz_us = med(&healthz);
    m.push(("serve.healthz_us".into(), healthz_us, "us"));
    m.push(("serve.append_us".into(), med(&serve_append), "us"));
    m.push(("wire.decode_us".into(), decode, "us"));
    m.push(("wire.encode_us".into(), encode, "us"));
    m.push(("wire.response_bytes".into(), med(&r.bytes), "bytes"));
    for kind in Kind::READS {
        m.push((
            format!("engine.{}_us", kind.name()),
            med(&by_kind(kind)),
            "us",
        ));
    }
    let (hits, misses) = r.cache;
    m.push((
        "cache.hit_rate".into(),
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    m.push((
        "cache.misses_per_op".into(),
        misses as f64 / r.ops.max(1) as f64,
        "count",
    ));
    let (s_hits, s_misses) = r.surrogates;
    m.push((
        "surrogate.hit_rate".into(),
        s_hits as f64 / (s_hits + s_misses).max(1) as f64,
        "ratio",
    ));
    // live: tables without a writer get the same append-then-read probe
    let (mut append_us, mut after_append_us, mut compact_ms) = (
        r.append_us.clone(),
        r.after_append_us.clone(),
        r.compact_ms.clone(),
    );
    if append_us.is_empty() {
        let read = prep.conns[0].iter().find_map(|op| op.request.clone());
        for rows in &probe_batches {
            let t = Instant::now();
            let _ = live.append_rows(rows);
            append_us.push(us_since(t));
            if let Some(request) = &read {
                let engine = live.engine();
                let t = Instant::now();
                let _ = std::hint::black_box(engine.run(request));
                after_append_us.push(us_since(t));
            }
        }
    }
    if compact_ms.is_empty() {
        compact_ms.push(timed_ms(|| live.compact()).1);
    }
    m.push(("live.append_us".into(), med(&append_us), "us"));
    m.push((
        "live.read_after_append_us".into(),
        med(&after_append_us),
        "us",
    ));
    m.push(("live.compact_ms".into(), med(&compact_ms), "ms"));
    m.push((
        "live.compactions".into(),
        load.compactions_armed as f64,
        "count",
    ));

    // counting: support probes and cold attribute scores
    let engine = live.engine();
    let mut probes_us = Vec::new();
    for op in prep.conns.iter().flatten() {
        if let Some(ExplainRequest::Local { row }) = &op.request {
            for &a in engine.features() {
                let t = Instant::now();
                std::hint::black_box(engine.estimator().local_context(
                    row,
                    a,
                    engine.min_support(),
                ));
                probes_us.push(us_since(t));
            }
        }
        if probes_us.len() >= 256 {
            break;
        }
    }
    m.push(("count.support_probe_us".into(), med(&probes_us), "us"));
    m.push((
        "index.bytes".into(),
        engine.index_memory_bytes() as f64,
        "bytes",
    ));
    engine.clear_cache();
    let mut cold = Vec::new();
    for &a in engine.features() {
        let t = Instant::now();
        let _ = std::hint::black_box(engine.attribute_scores(a, &tabular::Context::empty()));
        cold.push(us_since(t));
        engine.clear_cache();
    }
    m.push(("count.cold_scores_us".into(), med(&cold), "us"));

    // surrogate fit and warm recourse on the freshly built engine
    let (fit, fit_ms) = timed_ms(|| rebuilt.prepare_surrogate(&prep.actionable));
    fit.map_err(|e| e.to_string())?;
    m.push(("surrogate.fit_ms".into(), fit_ms, "ms"));
    let mut solve = Vec::new();
    for op in prep.conns.iter().flatten().chain(&prep.warmup) {
        if let Some(ExplainRequest::Recourse {
            row,
            actionable,
            opts,
        }) = &op.request
        {
            let _ = rebuilt.recourse(row, actionable, opts);
            let t = Instant::now();
            let _ = std::hint::black_box(rebuilt.recourse(row, actionable, opts));
            solve.push(us_since(t));
        }
        if solve.len() >= 8 {
            break;
        }
    }
    m.push(("recourse.solve_us".into(), med(&solve), "us"));

    // store: pack size, decode and restore
    let bytes = match &prep.pack {
        Some(path) => std::fs::read(path).map_err(|e| e.to_string())?,
        None => Pack::from_engine(&prep.reference, PackMeta::default()).to_bytes(),
    };
    m.push(("store.pack_bytes".into(), bytes.len() as f64, "bytes"));
    let (pack, decode_ms) = timed_ms(|| Pack::from_bytes(&bytes));
    let pack = pack.map_err(|e| e.to_string())?;
    m.push(("store.decode_ms".into(), decode_ms, "ms"));
    let (restored, restore_ms) = timed_ms(|| pack.restore_engine());
    restored.map_err(|e| e.to_string())?;
    m.push(("store.restore_ms".into(), restore_ms, "ms"));
    m.push(("datasets.generate_ms".into(), generate(prep), "ms"));

    // reconciliation: HTTP p50 against the sum of its layers' medians;
    // the metric is the gap's size, the table shows its sign
    eprintln!("reconciliation (µs): kind, http p50, healthz + decode + engine + encode, gap");
    let mut http_p50 = Vec::new();
    for kind in Kind::READS {
        let http: Vec<f64> = load
            .concurrent()
            .filter(|s| s.kind == kind)
            .map(|s| s.us)
            .collect();
        let http = med(&http);
        http_p50.push(format!("{} {http:.1}", kind.name()));
        let layers = healthz_us
            + of_kind(&r.decode_us, Some(kind))
            + med(&by_kind(kind))
            + of_kind(&r.encode_us, Some(kind));
        let gap = if http > 0.0 {
            (http - layers) / http * 100.0
        } else {
            0.0
        };
        eprintln!(
            "  {:<10} {http:>12.1} {layers:>12.1} {gap:>+8.1}%",
            kind.name()
        );
        m.push((format!("recon.{}_gap_pct", kind.name()), gap.abs(), "%"));
    }
    eprintln!(
        "tracing overhead on the end-to-end figures: none by construction; this run's timed phase \
         sends the same lists as an untraced run of the same seed, without instrumentation, and \
         the probes start after it ends (its p50s, µs: {})",
        http_p50.join(", ")
    );
    Ok(m)
}
