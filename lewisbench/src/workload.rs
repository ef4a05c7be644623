//! The three workloads: what the server is started with, what warm-up
//! it gets, and the fixed, seeded request list each connection replays.
//!
//! Datasets are generated with a fixed seed ([`DATA_SEED`]) so the
//! 1M-row pack is compiled once per checkout. The individuals asked
//! about (local explanations, recourse) form a fixed panel per workload,
//! also drawn with [`DATA_SEED`]: what one individual costs varies
//! several-fold, and a panel redrawn per seed would make the spread
//! between runs measure the panel instead of the system. `--seed`
//! chooses the contexts, which connection asks what, and the order of
//! every request list.

use crate::stats::Rng;
use causal::Scm;
use lewis_core::groundtruth::GroundTruth;
use lewis_core::ordering::ordered_pairs;
use lewis_core::{Engine, ExplainRequest, RecourseOptions, Scores};
use lewis_serve::wire;
use lewis_serve::EngineRegistry;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabular::{AttrId, Context, Table, Value};

/// Seed of every generated table.
pub const DATA_SEED: u64 = 42;
/// Rows per append batch on the live workload.
pub const BATCH_ROWS: usize = 256;
/// The names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["adult_dashboard_48k", "adult_audit_1m", "german_live_1m"];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Global,
    Contextual,
    Local,
    Recourse,
    Append,
}

impl Kind {
    pub const READS: [Kind; 4] = [Kind::Global, Kind::Contextual, Kind::Local, Kind::Recourse];
    pub const ALL: [Kind; 5] = [
        Kind::Global,
        Kind::Contextual,
        Kind::Local,
        Kind::Recourse,
        Kind::Append,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Global => "global",
            Kind::Contextual => "contextual",
            Kind::Local => "local",
            Kind::Recourse => "recourse",
            Kind::Append => "append",
        }
    }

    pub fn of(request: &ExplainRequest) -> Kind {
        match request {
            ExplainRequest::Global | ExplainRequest::ContextualGlobal { .. } => Kind::Global,
            ExplainRequest::Contextual { .. } => Kind::Contextual,
            ExplainRequest::Local { .. } => Kind::Local,
            ExplainRequest::Recourse { .. } => Kind::Recourse,
        }
    }
}

/// One operation of a request list. Appends carry no request: the
/// runner sends the next batch of [`Prepared::batches`].
#[derive(Clone, Debug)]
pub struct Op {
    pub kind: Kind,
    pub request: Option<ExplainRequest>,
    pub body: String,
}

impl Op {
    fn read(request: ExplainRequest) -> Op {
        Op {
            kind: Kind::of(&request),
            body: wire::request_to_json(&request).to_json(),
            request: Some(request),
        }
    }

    fn append() -> Op {
        Op {
            kind: Kind::Append,
            request: None,
            body: String::new(),
        }
    }
}

/// Expected ground-truth scores for one request: per answered
/// attribute, the exact scores and the tolerance its support allows.
#[derive(Clone, Debug)]
pub struct Truth {
    pub request: ExplainRequest,
    pub expected: Vec<(AttrId, Scores, f64)>,
}

/// One append batch: the request body and the rows it carries.
pub struct Batch {
    pub body: String,
    pub rows: Vec<Vec<Value>>,
}

/// Everything a run needs, made before the serving process starts.
pub struct Prepared {
    pub workload: &'static str,
    /// The engine's name on the server.
    pub engine: &'static str,
    pub server_args: Vec<String>,
    /// An in-process engine identical to the served one at start.
    pub reference: Arc<Engine>,
    pub warmup: Vec<Op>,
    pub conns: [Vec<Op>; 2],
    /// Append batches in sending order (live workload only).
    pub batches: Vec<Batch>,
    /// Rounds the batches suffice for.
    pub max_rounds: usize,
    /// Ground-truth requests checked before the first append and after
    /// the final compaction (German-syn only).
    pub truths: Vec<Truth>,
    pub actionable: Vec<AttrId>,
    /// Individuals appended in the traced run's append probes.
    pub probe_rows: Vec<Vec<Value>>,
    pub rows: usize,
    pub pack: Option<PathBuf>,
    /// Whether the timed phase visits every counting pass for the first
    /// time (the in-process replay then starts from an empty cache).
    pub first_visits: bool,
}

impl Prepared {
    pub fn path(&self, kind: Kind) -> String {
        match kind {
            Kind::Append => format!("/v1/engines/{}/rows", self.engine),
            _ => format!("/v1/engines/{}/explain", self.engine),
        }
    }
}

/// Row counts: the paper's sizes, or a reduced size (1/50) for the
/// self-test mode.
fn rows_for(workload: &str, small: bool) -> usize {
    let full = match workload {
        "adult_dashboard_48k" => 48_842,
        _ => 1_000_000,
    };
    if small {
        full / 50
    } else {
        full
    }
}

pub fn prepare(
    workload: &str,
    seed: u64,
    small: bool,
    bins: &Path,
    work: &Path,
) -> Result<Prepared, String> {
    let rows = rows_for(workload, small);
    match workload {
        "adult_dashboard_48k" => dashboard(seed, rows),
        "adult_audit_1m" => audit(seed, rows, bins, work),
        "german_live_1m" => german_live(seed, rows),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn builtin_engine(name: &str, rows: usize) -> Result<Arc<Engine>, String> {
    let mut registry = EngineRegistry::new();
    registry
        .load_builtin(name, rows, DATA_SEED)
        .map_err(|e| e.to_string())?;
    Ok(registry.get(name).expect("just registered").engine())
}

/// Up to `n` seeded rows of `table`, all distinct, that `keep` accepts.
fn pick_rows(
    rng: &mut Rng,
    table: &Table,
    n: usize,
    keep: impl Fn(&[Value]) -> bool,
) -> Vec<Vec<Value>> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    let mut tries = 0;
    while out.len() < n && tries < 100 * n + 1000 {
        tries += 1;
        let i = rng.below(table.n_rows());
        if !seen.insert(i) {
            continue;
        }
        let row = table.row(i).expect("row in range");
        if keep(&row) {
            out.push(row);
        }
    }
    out
}

fn negative(engine: &Engine) -> impl Fn(&[Value]) -> bool {
    let pred = engine.estimator().pred_attr();
    let positive = engine.estimator().positive();
    move |row| row[pred.index()] != positive
}

/// `contextual` requests over contexts of `width` attributes taken from
/// real rows (so the context has support), all distinct, seeded.
fn contexts(rng: &mut Rng, engine: &Engine, width: usize, n: usize) -> Vec<ExplainRequest> {
    let features = engine.features();
    let table = engine.table();
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    let mut tries = 0;
    while out.len() < n && tries < 100 * n + 1000 {
        tries += 1;
        let mut attrs: Vec<AttrId> = features.to_vec();
        rng.shuffle(&mut attrs);
        let probe = attrs[0];
        let mut ctx_attrs = attrs[1..=width].to_vec();
        ctx_attrs.sort();
        let row = table.row(rng.below(table.n_rows())).expect("row in range");
        let pairs: Vec<(AttrId, Value)> = ctx_attrs.iter().map(|&a| (a, row[a.index()])).collect();
        if seen.insert((probe, pairs.clone())) {
            out.push(ExplainRequest::Contextual {
                attr: probe,
                k: Context::of(pairs),
            });
        }
    }
    out
}

/// Connection `c`'s half of `pool` (every other entry).
fn half(pool: &[ExplainRequest], c: usize) -> Vec<ExplainRequest> {
    pool.iter().skip(c).step_by(2).cloned().collect()
}

/// Lay out `counts` of each pool (cycling through the pool) and shuffle.
fn mix(rng: &mut Rng, parts: &[(&[ExplainRequest], usize)]) -> Vec<Op> {
    let mut ops = Vec::new();
    for &(pool, count) in parts {
        if pool.is_empty() {
            continue;
        }
        let start = rng.below(pool.len());
        for i in 0..count {
            ops.push(Op::read(pool[(start + i) % pool.len()].clone()));
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// Up to `n` seeded negative-outcome rows of `engine`'s table for whom
/// the engine finds recourse. A `no_recourse` answer walks every
/// escalation rung and a found one stops at its first feasible rung, so
/// a panel mixing the two would put the recourse median across two cost
/// regimes. Asking in process fits the surrogate of `engine` itself.
fn recourse_panel(
    rng: &mut Rng,
    engine: &Engine,
    actionable: &[AttrId],
    opts: &RecourseOptions,
    n: usize,
) -> Vec<Vec<Value>> {
    let is_negative = negative(engine);
    pick_rows(rng, engine.table(), n, |row| {
        is_negative(row)
            && engine
                .run(&ExplainRequest::Recourse {
                    row: row.to_vec(),
                    actionable: actionable.to_vec(),
                    opts: opts.clone(),
                })
                .is_ok()
    })
}

fn recourse_requests(
    rows: &[Vec<Value>],
    actionable: &[AttrId],
    opts: &RecourseOptions,
) -> Vec<ExplainRequest> {
    rows.iter()
        .map(|row| ExplainRequest::Recourse {
            row: row.clone(),
            actionable: actionable.to_vec(),
            opts: opts.clone(),
        })
        .collect()
}

fn locals(rows: &[Vec<Value>]) -> Vec<ExplainRequest> {
    rows.iter()
        .map(|row| ExplainRequest::Local { row: row.clone() })
        .collect()
}

/// Adult at 48,842 rows: a dashboard whose cheap kinds are cache hits.
fn dashboard(seed: u64, rows: usize) -> Result<Prepared, String> {
    let engine = builtin_engine("adult", rows)?;
    let actionable = datasets::AdultDataset::generate(0, DATA_SEED).actionable;
    let opts = RecourseOptions::default();
    let mut rng = Rng::new(seed, 1);
    let ctx_pool = contexts(&mut rng, &engine, 1, 96);
    let mut panel = Rng::new(DATA_SEED, 1);
    let local_rows = pick_rows(&mut panel, engine.table(), 24, |_| true);
    let recourse_rows = recourse_panel(&mut panel, &engine, &actionable, &opts, 16);
    let local_pool = locals(&local_rows);
    let recourse_pool = recourse_requests(&recourse_rows, &actionable, &opts);
    let global = [ExplainRequest::Global];
    let mut warmup = vec![Op::read(ExplainRequest::Global)];
    warmup.extend(ctx_pool.iter().cloned().map(Op::read));
    warmup.extend(local_pool.iter().cloned().map(Op::read));
    warmup.extend(recourse_pool.iter().cloned().map(Op::read));
    // each connection asks about its half of the panel every round
    let conn = |rng: &mut Rng, c: usize| {
        let (l, r) = (half(&local_pool, c), half(&recourse_pool, c));
        mix(
            rng,
            &[(&global, 10), (&ctx_pool, 34), (&l, l.len()), (&r, r.len())],
        )
    };
    let conns = [conn(&mut rng, 0), conn(&mut rng, 1)];
    let probe_rows = pick_rows(&mut panel, engine.table(), 8 * BATCH_ROWS, |_| true);
    Ok(Prepared {
        workload: "adult_dashboard_48k",
        engine: "adult",
        server_args: vec![
            "--builtin".into(),
            format!("adult={rows}"),
            "--seed".into(),
            DATA_SEED.to_string(),
        ],
        reference: engine,
        warmup,
        conns,
        batches: Vec::new(),
        max_rounds: usize::MAX,
        truths: Vec::new(),
        actionable,
        probe_rows,
        rows,
        pack: None,
        first_visits: false,
    })
}

/// Compile the adult pack with `lewis-pack`'s defaults, once per row
/// count and `lewis-pack` build.
fn ensure_pack(bins: &Path, work: &Path, rows: usize) -> Result<PathBuf, String> {
    let tool = bins.join("lewis-pack");
    let stamp = std::fs::metadata(&tool)
        .and_then(|m| m.modified())
        .map_err(|e| format!("cannot stat {}: {e}", tool.display()))?
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = work.join(format!("adult-{rows}-{DATA_SEED}-{stamp}.lewis"));
    if path.exists() {
        return Ok(path);
    }
    let partial = path.with_extension("partial");
    let status = std::process::Command::new(&tool)
        .args(["compile", "--builtin", &format!("adult={rows}"), "--seed"])
        .arg(DATA_SEED.to_string())
        .arg("--out")
        .arg(&partial)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", tool.display()))?;
    if !status.success() {
        return Err(format!("lewis-pack compile failed: {status}"));
    }
    std::fs::rename(&partial, &path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Rows kept in the text file `path`, one row of values per line; made
/// with `choose` when the file does not exist yet. The audit's recourse
/// panel is kept beside its pack: choosing it asks 1M-row recourse in
/// process for tens of seconds, and a new `lewis-pack` build makes a new
/// pack, so the panel is chosen again whenever the program changes.
fn cached_rows(
    path: &Path,
    choose: impl FnOnce() -> Vec<Vec<Value>>,
) -> Result<Vec<Vec<Value>>, String> {
    if let Ok(text) = std::fs::read_to_string(path) {
        return text
            .lines()
            .map(|line| {
                line.split(' ')
                    .map(|v| {
                        v.parse()
                            .map_err(|_| format!("{}: bad value {v:?}", path.display()))
                    })
                    .collect()
            })
            .collect();
    }
    let rows = choose();
    let text: String = rows
        .iter()
        .map(|row| {
            let values: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            values.join(" ") + "\n"
        })
        .collect();
    let partial = path.with_extension("panel-partial");
    std::fs::write(&partial, text).map_err(|e| format!("{}: {e}", partial.display()))?;
    std::fs::rename(&partial, path).map_err(|e| e.to_string())?;
    Ok(rows)
}

/// Adult at 1M rows from a pack: sub-population audits that miss the cache.
fn audit(seed: u64, rows: usize, bins: &Path, work: &Path) -> Result<Prepared, String> {
    let pack = ensure_pack(bins, work, rows)?;
    let (engine, _) = lewis_store::load_engine(&pack).map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    let actionable = datasets::AdultDataset::generate(0, DATA_SEED).actionable;
    let opts = RecourseOptions::default();
    let mut rng = Rng::new(seed, 2);
    // every one-attribute sub-population, each audited once per round
    let mut audits = Vec::new();
    for &a in engine.features() {
        for &v in engine.value_order(a).expect("feature order") {
            audits.push(ExplainRequest::ContextualGlobal {
                k: Context::of([(a, v)]),
            });
        }
    }
    rng.shuffle(&mut audits);
    let drill = contexts(&mut rng, &engine, 2, 2 * AUDIT_CONTEXTUALS);
    let mut panel = Rng::new(DATA_SEED, 2);
    let local_rows = pick_rows(&mut panel, engine.table(), 16, |_| true);
    let probe_rows = pick_rows(&mut panel, engine.table(), 8 * BATCH_ROWS, |_| true);
    let recourse_rows = cached_rows(&pack.with_extension("panel"), || {
        recourse_panel(&mut panel, &engine, &actionable, &opts, 16)
    })?;
    let locals = locals(&local_rows);
    let recourses = recourse_requests(&recourse_rows, &actionable, &opts);
    let conn = |rng: &mut Rng, c: usize| {
        let (a, d, l, r) = (
            half(&audits, c),
            half(&drill, c),
            half(&locals, c),
            half(&recourses, c),
        );
        // a round opens with drill-downs, locals and recourse: by the
        // time the first audit runs, the two connections have made more
        // new passes than the cache holds, so the pack's warm passes for
        // one-attribute contexts are evicted and every audit pays fresh
        // passes; the audits then mix with the remaining drill-downs
        let (opening, rest) = d.split_at(AUDIT_OPENING);
        let mut ops = mix(
            rng,
            &[(opening, opening.len()), (&l, l.len()), (&r, r.len())],
        );
        ops.extend(mix(rng, &[(rest, rest.len()), (&a, a.len())]));
        ops
    };
    let conns = [conn(&mut rng, 0), conn(&mut rng, 1)];
    // warm-up fits the recourse surrogate over the full actionable set
    let warmup = vec![Op::read(recourses[0].clone())];
    Ok(Prepared {
        workload: "adult_audit_1m",
        engine: "adult",
        server_args: vec!["--pack".into(), format!("adult={}", pack.display())],
        reference: engine,
        warmup,
        conns,
        batches: Vec::new(),
        max_rounds: usize::MAX,
        truths: Vec::new(),
        actionable,
        probe_rows,
        rows,
        pack: Some(pack),
        first_visits: true,
    })
}

/// Two-attribute drill-downs per connection per round on the audit
/// workload: the two connections' drill-downs alone make more distinct
/// counting passes than the 1024 the serving cache holds, so a pass is
/// evicted before its next visit and every query pays fresh passes.
const AUDIT_CONTEXTUALS: usize = 700;
/// Drill-downs per connection that open a round before the audits start.
const AUDIT_OPENING: usize = 500;

/// Appends per writer round on the live workload: one compaction
/// threshold in batches.
pub const LIVE_APPENDS: usize = lewis_live::DEFAULT_COMPACTION_THRESHOLD / BATCH_ROWS;
/// Most rounds the pre-generated continuation feeds.
const LIVE_MAX_ROUNDS: usize = 48;

/// German-syn at 1M rows with one writer connection and one reader.
fn german_live(seed: u64, rows: usize) -> Result<Prepared, String> {
    let engine = builtin_engine("german_syn_scaled", rows)?;
    let opts = RecourseOptions::default();
    let gen = datasets::GermanSynDataset::standard();
    let actionable = datasets::german_syn_scaled(0, DATA_SEED).actionable;
    let mut rng = Rng::new(seed, 3);

    // the generator's prefix-stable continuation, oracle-labelled
    let extra = LIVE_APPENDS * BATCH_ROWS * LIVE_MAX_ROUNDS;
    let more = datasets::german_syn_scaled(rows + extra, DATA_SEED).table;
    let score = datasets::GermanSynDataset::SCORE.index();
    let mut batches = Vec::new();
    for b in 0..extra / BATCH_ROWS {
        let rows: Vec<Vec<Value>> = (0..BATCH_ROWS)
            .map(|i| {
                let mut row = more.row(rows + b * BATCH_ROWS + i).expect("row in range");
                let label = u32::from(row[score] >= 5);
                row.push(label);
                row
            })
            .collect();
        let body = wire::Json::obj([(
            "rows",
            wire::Json::Arr(
                rows.iter()
                    .map(|r| wire::Json::Arr(r.iter().map(|&v| wire::Json::num(v)).collect()))
                    .collect(),
            ),
        )])
        .to_json();
        batches.push(Batch { body, rows });
    }
    drop(more);

    let drill = contexts(&mut rng, &engine, 2, 64);
    let mut panel = Rng::new(DATA_SEED, 3);
    let local_rows = pick_rows(&mut panel, engine.table(), 32, |_| true);
    let recourse_rows = pick_rows(&mut panel, engine.table(), 2, negative(&engine));
    let locals = locals(&local_rows);
    let recourses = recourse_requests(&recourse_rows, &actionable, &opts);

    // writer: every read directly follows an append, so each global and
    // recourse pays the invalidation and the stale-surrogate refit the
    // append causes; the reader's drill-downs and locals overlay a delta
    // that keeps growing until the next compaction
    let mut writer = Vec::new();
    for i in 0..LIVE_APPENDS {
        writer.push(Op::append());
        writer.push(Op::read(match i {
            0 => recourses[0].clone(),
            i if i == LIVE_APPENDS / 2 => recourses[1].clone(),
            _ => ExplainRequest::Global,
        }));
    }
    let reader = mix(&mut rng, &[(&drill, 32), (&locals, 16)]);

    let truths = ground_truths(&engine, &gen.scm())?;
    let warmup = vec![Op::read(recourses[0].clone())];
    let probe_rows = batches
        .iter()
        .rev()
        .take(8)
        .flat_map(|b| b.rows.iter().cloned())
        .collect();
    Ok(Prepared {
        workload: "german_live_1m",
        engine: "german_syn_scaled",
        server_args: vec![
            "--builtin".into(),
            format!("german_syn_scaled={rows}"),
            "--seed".into(),
            DATA_SEED.to_string(),
        ],
        reference: engine,
        warmup,
        conns: [writer, reader],
        batches,
        max_rounds: LIVE_MAX_ROUNDS,
        truths,
        actionable,
        probe_rows,
        rows,
        pack: None,
        first_visits: false,
    })
}

/// Rows in `table` matching `k` with `attr = v`, for every value `v`.
fn support(table: &Table, attr: AttrId, k: &Context) -> Vec<usize> {
    let card = table
        .schema()
        .cardinality(attr)
        .expect("attribute in schema");
    let mut counts = vec![0usize; card];
    let col = table.column(attr).expect("attribute in schema");
    let ctx: Vec<(&[Value], Value)> = k
        .iter()
        .map(|(a, v)| (table.column(a).expect("attribute in schema"), v))
        .collect();
    for (r, &x) in col.iter().enumerate() {
        if ctx.iter().all(|(c, v)| c[r] == *v) {
            counts[x as usize] += 1;
        }
    }
    counts
}

/// Exact scores for `attr` in `k`: the maximum over the same value
/// pairs the engine sweeps, each score maximised on its own.
fn exact_scores(engine: &Engine, gt: &GroundTruth<'_>, attr: AttrId, k: &Context) -> Scores {
    let mut best = Scores::default();
    let order = engine.value_order(attr).expect("feature order");
    for (hi, lo) in ordered_pairs(order) {
        if let Ok(s) = gt.scores(attr, hi, lo, k) {
            best.necessity = best.necessity.max(s.necessity);
            best.sufficiency = best.sufficiency.max(s.sufficiency);
            best.nesuf = best.nesuf.max(s.nesuf);
        }
    }
    best
}

/// The tolerance a score estimated from `support` rows allows: five
/// binomial standard errors of the thinnest value group, plus 0.01 for
/// the engine's smoothing.
pub fn tolerance(support: &[usize]) -> f64 {
    let thinnest = support
        .iter()
        .copied()
        .filter(|&n| n > 0)
        .min()
        .unwrap_or(1);
    0.01 + 5.0 * (0.25 / thinnest as f64).sqrt()
}

/// The global ranking and per-stratum contextual scores, against exact
/// SCM ground truth (§5.5).
fn ground_truths(engine: &Engine, scm: &Scm) -> Result<Vec<Truth>, String> {
    let score = datasets::GermanSynDataset::SCORE.index();
    let oracle = move |row: &[Value]| u32::from(row[score] >= 5);
    let gt = GroundTruth::exact(scm, &oracle, 1).map_err(|e| e.to_string())?;
    let table = engine.table();
    let entry = |attr: AttrId, k: &Context| {
        (
            attr,
            exact_scores(engine, &gt, attr, k),
            tolerance(&support(table, attr, k)),
        )
    };
    let mut truths = vec![Truth {
        request: ExplainRequest::Global,
        expected: engine
            .features()
            .iter()
            .map(|&a| entry(a, &Context::empty()))
            .collect(),
    }];
    use datasets::GermanSynDataset as G;
    for attr in [G::STATUS, G::SAVING, G::HOUSING] {
        for age in 0..3 {
            let k = Context::of([(G::AGE, age)]);
            truths.push(Truth {
                expected: vec![entry(attr, &k)],
                request: ExplainRequest::Contextual { attr, k },
            });
        }
    }
    Ok(truths)
}
