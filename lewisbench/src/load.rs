//! The closed loop: two keep-alive connections, each replaying its
//! request list in whole rounds until the run's time is up.

use crate::check::{self, Shape, Verdict};
use crate::http::Conn;
use crate::workload::{Kind, Op, Prepared};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A run is never shorter than this many reads, whatever `--seconds`.
pub const MIN_READS: usize = 200;

/// Attempted / answered / declined / failed operations of one kind.
#[derive(Default, Clone, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub answered: u64,
    pub unsupported: u64,
    pub no_recourse: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Answered => self.answered += 1,
            Verdict::Declined("no_recourse") => self.no_recourse += 1,
            Verdict::Declined(_) => self.unsupported += 1,
            Verdict::Failed(_) => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.unsupported += other.unsupported;
        self.no_recourse += other.no_recourse;
        self.failed += other.failed;
    }
}

/// Operation accounting per kind, plus the first few failure reasons.
#[derive(Default)]
pub struct Ledger {
    pub kinds: BTreeMap<Kind, Tally>,
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn record(&mut self, kind: Kind, verdict: Verdict) {
        self.kinds.entry(kind).or_default().record(&verdict);
        if let Verdict::Failed(why) = verdict {
            if self.failures.len() < 8 {
                self.failures.push(format!("{}: {why}", kind.name()));
            }
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        for (kind, tally) in other.kinds {
            self.kinds.entry(kind).or_default().add(&tally);
        }
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for tally in self.kinds.values() {
            t.add(tally);
        }
        t
    }
}

/// One timed operation.
pub struct Sample {
    pub kind: Kind,
    pub us: f64,
    /// Whether the answer was a typed `no_recourse` 422.
    pub no_recourse: bool,
    /// When the answer arrived, in ns since the timed phase began.
    pub end_ns: u128,
}

pub struct LoadResult {
    pub samples: Vec<Sample>,
    pub ledger: Ledger,
    pub rounds: [usize; 2],
    /// Batches the writer sent, in order.
    pub batches_sent: usize,
    pub compactions_armed: usize,
    /// First-round answers of a seeded sample, for the parity check.
    pub first_answers: Vec<(usize, usize, u16, Vec<u8>)>,
    pub wall: Duration,
    /// When the first connection finished its last round, in ns since
    /// the timed phase began.
    pub overlap_ns: u128,
}

impl LoadResult {
    /// The samples answered while both connections were running. After
    /// the first connection finishes its last round, the other runs its
    /// own last round alone and uncontended — a second cost regime,
    /// which latency figures leave out (it still counts in `qps` and
    /// `cpu_us_per_op`).
    pub fn concurrent(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.end_ns <= self.overlap_ns)
    }
}

/// What one connection's thread hands back.
struct ConnResult {
    conn: usize,
    samples: Vec<Sample>,
    ledger: Ledger,
    rounds: usize,
    first: Vec<(usize, usize, u16, Vec<u8>)>,
    finished_ns: u128,
}

/// Send one op; `(status, body, microseconds)`.
pub fn send(conn: &mut Conn, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>, f64), String> {
    let t = Instant::now();
    let (status, body) = conn
        .send("POST", path, body)
        .map_err(|e| format!("transport: {e}"))?;
    Ok((status, body, t.elapsed().as_secs_f64() * 1e6))
}

/// Check an append receipt: a 200 that took every row.
fn append_verdict(status: u16, body: &[u8], rows: usize) -> (Verdict, bool) {
    let json = std::str::from_utf8(body)
        .ok()
        .and_then(|b| lewis_serve::wire::Json::parse(b).ok());
    let appended = json
        .as_ref()
        .and_then(|j| j.get("appended"))
        .and_then(|v| v.as_f64());
    let armed = json
        .as_ref()
        .and_then(|j| j.get("compaction_armed"))
        .is_some_and(|v| *v == lewis_serve::wire::Json::Bool(true));
    if status == 200 && appended == Some(rows as f64) {
        (Verdict::Answered, armed)
    } else {
        (Verdict::Failed(format!("append answered {status}")), armed)
    }
}

/// Replay each connection's list in whole rounds until `seconds` have
/// passed and at least [`MIN_READS`] reads were made.
pub fn run(
    addr: SocketAddr,
    prep: &Prepared,
    seconds: f64,
    sample: &[(usize, usize)],
) -> Result<LoadResult, String> {
    let shape = Shape::of(&prep.reference);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let reads = AtomicUsize::new(0);
    let next_batch = AtomicUsize::new(0);
    let armed = AtomicUsize::new(0);
    let epoch = Instant::now();
    let out: Mutex<Vec<ConnResult>> = Mutex::new(Vec::new());
    let live = !prep.batches.is_empty();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (c, list) in prep.conns.iter().enumerate() {
            let (shape, reads, next_batch, armed, out) =
                (&shape, &reads, &next_batch, &armed, &out);
            scope.spawn(move || {
                let mut samples = Vec::new();
                let mut ledger = Ledger::default();
                let mut first = Vec::new();
                let mut round_one: Vec<Option<(u16, Vec<u8>)>> = vec![None; list.len()];
                let mut rounds = 0usize;
                let explain = prep.path(Kind::Global);
                let rows = prep.path(Kind::Append);
                match Conn::connect(addr) {
                    Err(e) => ledger.record(Kind::Global, Verdict::Failed(format!("connect: {e}"))),
                    Ok(mut conn) => loop {
                        let done =
                            Instant::now() >= deadline && reads.load(Ordering::SeqCst) >= MIN_READS;
                        if done || rounds >= prep.max_rounds {
                            break;
                        }
                        for (i, op) in list.iter().enumerate() {
                            match replay(&mut conn, prep, op, &explain, &rows, next_batch) {
                                Err(e) => {
                                    ledger.record(op.kind, Verdict::Failed(e));
                                    if let Ok(fresh) = Conn::connect(addr) {
                                        conn = fresh;
                                    }
                                }
                                Ok((status, body, us, batch_rows)) => {
                                    let end_ns = epoch.elapsed().as_nanos();
                                    let verdict = match &op.request {
                                        None => {
                                            let (v, a) = append_verdict(status, &body, batch_rows);
                                            if a {
                                                armed.fetch_add(1, Ordering::SeqCst);
                                            }
                                            v
                                        }
                                        Some(request) => {
                                            reads.fetch_add(1, Ordering::SeqCst);
                                            if live {
                                                check::verdict(shape, request, status, &body)
                                            } else {
                                                match &round_one[i] {
                                                    // later rounds of a read-only table must
                                                    // repeat the first round's answer exactly
                                                    Some((s, b)) if *s == status && *b == body => {
                                                        Verdict::Answered
                                                    }
                                                    Some(_) => Verdict::Failed(
                                                        "answer changed between rounds".into(),
                                                    ),
                                                    None => {
                                                        let v = check::verdict(
                                                            shape, request, status, &body,
                                                        );
                                                        if sample.contains(&(c, i)) {
                                                            first.push((
                                                                c,
                                                                i,
                                                                status,
                                                                body.clone(),
                                                            ));
                                                        }
                                                        round_one[i] = Some((status, body));
                                                        v
                                                    }
                                                }
                                            }
                                        }
                                    };
                                    samples.push(Sample {
                                        kind: op.kind,
                                        us,
                                        no_recourse: verdict == Verdict::Declined("no_recourse"),
                                        end_ns,
                                    });
                                    ledger.record(op.kind, verdict);
                                }
                            }
                        }
                        rounds += 1;
                    },
                }
                let finished_ns = epoch.elapsed().as_nanos();
                out.lock()
                    .expect("no thread panicked holding the lock")
                    .push(ConnResult {
                        conn: c,
                        samples,
                        ledger,
                        rounds,
                        first,
                        finished_ns,
                    });
            });
        }
    });
    let wall = started.elapsed();
    let mut result = LoadResult {
        samples: Vec::new(),
        ledger: Ledger::default(),
        rounds: [0, 0],
        batches_sent: next_batch.load(Ordering::SeqCst).min(prep.batches.len()),
        compactions_armed: armed.load(Ordering::SeqCst),
        first_answers: Vec::new(),
        wall,
        overlap_ns: u128::MAX,
    };
    for r in out.into_inner().expect("threads joined") {
        result.overlap_ns = result.overlap_ns.min(r.finished_ns);
        result.samples.extend(r.samples);
        result.ledger.merge(r.ledger);
        result.rounds[r.conn] = r.rounds;
        result.first_answers.extend(r.first);
    }
    Ok(result)
}

/// Send one op of a list; appends take the next batch.
fn replay(
    conn: &mut Conn,
    prep: &Prepared,
    op: &Op,
    explain: &str,
    rows: &str,
    next_batch: &AtomicUsize,
) -> Result<(u16, Vec<u8>, f64, usize), String> {
    match op.kind {
        Kind::Append => {
            let b = next_batch.fetch_add(1, Ordering::SeqCst);
            let batch = prep
                .batches
                .get(b)
                .ok_or_else(|| "append continuation exhausted".to_string())?;
            let (status, body, us) = send(conn, rows, batch.body.as_bytes())?;
            Ok((status, body, us, batch.rows.len()))
        }
        _ => {
            let (status, body, us) = send(conn, explain, op.body.as_bytes())?;
            Ok((status, body, us, 0))
        }
    }
}
