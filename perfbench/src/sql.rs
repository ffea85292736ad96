//! The `sql_read` and `sql_mixed` workloads: two wire clients in closed
//! loops send seeded statements to an in-process `Server`.
//!
//! Each client deals its statements from a deck: a fixed multiset of
//! templates, reshuffled from the seed for every round, so each run
//! times the same template mix and the seed varies order and parameters.
//! `sql_mixed` swaps three of the thirty read slots for writes (one in
//! ten statements): an `INSERT` of a fresh `Paper_Keywords` row or an
//! `UPDATE Papers SET page_start` on a distinct seeded id. No read
//! template reads `Paper_Keywords` or `page_start`, so every read has
//! one correct answer whatever writes ran before it.

use crate::report::{Op, Outcome};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::{merge, Span, Tracer};
use etable_datagen::names::{CONFERENCES, INSTITUTIONS};
use etable_relational::algebra::Relation;
use etable_relational::database::Database;
use etable_relational::shared::SharedDatabase;
use etable_relational::sql::{analyze, execute_read, parse_statement, Statement};
use etable_server::client::Client;
use etable_server::proto::{decode, encode, Message};
use etable_server::{canon, ACADEMIC_QUERIES};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;

/// Updated `page_start` values start here, above every generated page.
const PAGE_BASE: i64 = 1_000_000;
const KEYWORD_PREFIX: &str = "perfbench-";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    Read,
    Mixed,
}

/// A statement template. `Query(i)` is `ACADEMIC_QUERIES[i]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Template {
    Query(usize),
    PointPaper,
    PointAuthor,
    FilterPapers,
    FilterAuthors,
    InsertKeyword,
    UpdatePages,
}

/// Template names, indexed by [`Template::ordinal`]: the reads first.
pub const TEMPLATE_NAMES: [&str; 16] = [
    "q00_conferences",
    "q01_count_papers",
    "q02_papers_per_year",
    "q03_title_like",
    "q04_author_join_group",
    "q05_conference_join",
    "q06_distinct_country",
    "q07_min_max_year",
    "q08_institution_having",
    "q09_offset_page",
    "point_paper",
    "point_author",
    "filter_papers",
    "filter_authors",
    "insert_keyword",
    "update_pages",
];

const READ_TEMPLATES: usize = 14;

impl Template {
    fn ordinal(self) -> usize {
        match self {
            Template::Query(i) => i,
            Template::PointPaper => 10,
            Template::PointAuthor => 11,
            Template::FilterPapers => 12,
            Template::FilterAuthors => 13,
            Template::InsertKeyword => 14,
            Template::UpdatePages => 15,
        }
    }

    fn from_ordinal(i: usize) -> Template {
        match i {
            0..=9 => Template::Query(i),
            10 => Template::PointPaper,
            11 => Template::PointAuthor,
            12 => Template::FilterPapers,
            13 => Template::FilterAuthors,
            14 => Template::InsertKeyword,
            _ => Template::UpdatePages,
        }
    }

    fn is_write(self) -> bool {
        self.ordinal() >= READ_TEMPLATES
    }

    /// How many distinct statements a read template has.
    fn variants(self, scale: Scale) -> usize {
        match self {
            Template::Query(_) => 1,
            Template::PointPaper => scale.papers,
            Template::PointAuthor => scale.authors,
            Template::FilterPapers => CONFERENCES.len() * scale.years,
            Template::FilterAuthors => INSTITUTIONS.len(),
            Template::InsertKeyword | Template::UpdatePages => 0,
        }
    }

    /// The SQL of read variant `key` (`key < variants`).
    fn read_sql(self, key: usize, scale: Scale) -> String {
        let id = key + 1;
        match self {
            Template::Query(i) => ACADEMIC_QUERIES[i].to_string(),
            Template::PointPaper => format!("SELECT title, year FROM Papers WHERE id = {id}"),
            Template::PointAuthor => {
                format!("SELECT name, institution_id FROM Authors WHERE id = {id}")
            }
            Template::FilterPapers => format!(
                "SELECT id, title FROM Papers WHERE conference_id = {} AND year = {} ORDER BY id",
                key / scale.years + 1,
                scale.first_year + (key % scale.years) as i64
            ),
            Template::FilterAuthors => {
                format!("SELECT id, name FROM Authors WHERE institution_id = {id} ORDER BY id")
            }
            Template::InsertKeyword | Template::UpdatePages => unreachable!("not a read"),
        }
    }
}

/// The read slots both mixes share, besides one of each academic query.
const READ_DECK: [(Template, usize); 4] = [
    (Template::PointPaper, 7),
    (Template::PointAuthor, 4),
    (Template::FilterPapers, 3),
    (Template::FilterAuthors, 3),
];

fn deck(mix: Mix) -> Vec<Template> {
    let mut d: Vec<Template> = (0..ACADEMIC_QUERIES.len()).map(Template::Query).collect();
    for (t, n) in READ_DECK {
        d.extend(std::iter::repeat_n(t, n));
    }
    match mix {
        Mix::Read => d.extend([Template::PointPaper; 3]),
        Mix::Mixed => d.extend([
            Template::InsertKeyword,
            Template::UpdatePages,
            Template::UpdatePages,
        ]),
    }
    d
}

/// Scale facts the parameter generator needs.
#[derive(Clone, Copy)]
pub struct Scale {
    pub papers: usize,
    pub authors: usize,
    pub first_year: i64,
    pub years: usize,
}

/// What a statement does, as far as the checks care.
enum Effect {
    /// A read: its slot in the expected-result table.
    Read(usize),
    Insert(i64, String),
    Update {
        id: i64,
        page: i64,
    },
}

struct Stmt {
    template: Template,
    sql: String,
    effect: Effect,
}

/// Slot of the first variant of each read template in the
/// expected-result table.
fn slot_offsets(scale: Scale) -> [usize; READ_TEMPLATES] {
    let mut offsets = [0; READ_TEMPLATES];
    for i in 1..READ_TEMPLATES {
        offsets[i] = offsets[i - 1] + Template::from_ordinal(i - 1).variants(scale);
    }
    offsets
}

/// One client's statement stream: deals decks, fills in parameters.
pub struct Stream {
    mix: Mix,
    scale: Scale,
    offsets: [usize; READ_TEMPLATES],
    client: usize,
    rng: Rng,
    pending: Vec<Template>,
    /// Paper ids this client updates, in order; disjoint across clients.
    update_ids: Vec<i64>,
    updates: usize,
    inserts: usize,
}

impl Stream {
    pub fn new(mix: Mix, scale: Scale, seed: u64, client: usize) -> Stream {
        let mut ids: Vec<i64> = (1..=scale.papers as i64).collect();
        Rng::new(seed, 2).shuffle(&mut ids);
        let update_ids = ids.into_iter().skip(client).step_by(CLIENTS).collect();
        Stream {
            mix,
            scale,
            offsets: slot_offsets(scale),
            client,
            rng: Rng::new(seed, 100 + client as u64),
            pending: Vec::new(),
            update_ids,
            updates: 0,
            inserts: 0,
        }
    }

    /// True when the next statement starts a new deck.
    fn at_deck_start(&self) -> bool {
        self.pending.is_empty()
    }

    fn next(&mut self) -> Stmt {
        if self.pending.is_empty() {
            self.pending = deck(self.mix);
            self.rng.shuffle(&mut self.pending);
        }
        let template = self.pending.pop().expect("a deck is never empty");
        let (sql, effect) = match template {
            Template::InsertKeyword => {
                self.inserts += 1;
                let paper = self.rng.below(self.scale.papers) as i64 + 1;
                let keyword = format!("{KEYWORD_PREFIX}{}-{}", self.client, self.inserts);
                (
                    format!("INSERT INTO Paper_Keywords VALUES ({paper}, '{keyword}')"),
                    Effect::Insert(paper, keyword),
                )
            }
            Template::UpdatePages => {
                let id = self.update_ids[self.updates % self.update_ids.len()];
                let page = PAGE_BASE + (self.updates * CLIENTS + self.client) as i64;
                self.updates += 1;
                (
                    format!("UPDATE Papers SET page_start = {page} WHERE id = {id}"),
                    Effect::Update { id, page },
                )
            }
            read => {
                let key = self.rng.below(read.variants(self.scale));
                (
                    read.read_sql(key, self.scale),
                    Effect::Read(self.offsets[read.ordinal()] + key),
                )
            }
        };
        Stmt {
            template,
            sql,
            effect,
        }
    }
}

/// The first `n` statements of each client, for the self-tests.
#[cfg(test)]
pub fn op_sequence(mix: Mix, scale: Scale, seed: u64, n: usize) -> Vec<String> {
    (0..CLIENTS)
        .flat_map(|c| {
            let mut s = Stream::new(mix, scale, seed, c);
            (0..n).map(move |_| s.next().sql)
        })
        .collect()
}

fn canon_hash(r: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    canon(r).hash(&mut h);
    h.finish()
}

/// The canon hash of every read statement a stream can produce, from a
/// sequential in-process `SharedDatabase::execute` on the initial
/// database, indexed by slot. Reads never touch what writes change, so
/// these are the only correct answers for the whole run.
fn expected(initial: &Database, scale: Scale) -> Result<Vec<u64>, String> {
    let shared = SharedDatabase::new(initial.clone());
    let mut hashes = Vec::new();
    for t in (0..READ_TEMPLATES).map(Template::from_ordinal) {
        for key in 0..t.variants(scale) {
            let sql = t.read_sql(key, scale);
            let rel = shared.execute(&sql).map_err(|e| format!("{sql}: {e}"))?;
            hashes.push(canon_hash(&rel));
        }
    }
    Ok(hashes)
}

/// Counts gathered while replaying traced reads in-process.
#[derive(Default)]
struct ReadCounts {
    reads: f64,
    rows_out: f64,
    /// Rows of every table in each analyzed plan: an upper bound on the
    /// rows the executor reads, not a count of them.
    plan_rows: f64,
    bytes: f64,
    /// Round trip minus the replayed in-process layers, in us, of each
    /// traced small-result read.
    wire_us: Vec<f64>,
}

impl ReadCounts {
    fn add(&mut self, o: ReadCounts) {
        self.reads += o.reads;
        self.rows_out += o.rows_out;
        self.plan_rows += o.plan_rows;
        self.bytes += o.bytes;
        self.wire_us.extend(o.wire_us);
    }
}

/// Replays one traced read in-process, timing each layer on its own:
/// parse, analyze, execute (which analyzes again), then the wire codec on
/// the result frame. Returns the ns spent in parse, execute, encode and
/// decode: the in-process share of the read's round trip.
fn replay_read(
    shared: &SharedDatabase,
    sql: &str,
    tr: &mut Tracer,
    op: u64,
    c: &mut ReadCounts,
) -> Option<u64> {
    tr.begin("bench.replay", op);
    let snap = shared.snapshot();
    let mut in_process = None;
    if let Ok(stmt) = tr.time("relational.sql.parser", op, || parse_statement(sql)) {
        let parse_ns = tr.closed_ns();
        if let Statement::Select(q) = &stmt {
            if let Ok(plan) = tr.time("relational.sql.analyze", op, || analyze(&snap, q)) {
                c.plan_rows += plan
                    .tables
                    .iter()
                    .map(|t| snap.table(&t.name).map_or(0, |t| t.len()) as f64)
                    .sum::<f64>();
            }
        }
        let rel = tr.time("relational.sql.executor.execute_read", op, || {
            execute_read(&snap, &stmt)
        });
        let execute_ns = tr.closed_ns();
        if let Ok(relation) = rel {
            c.rows_out += relation.len() as f64;
            let msg = Message::Result {
                epoch: snap.epoch(),
                relation,
            };
            let payload = tr.time("server.proto.encode", op, || encode(&msg));
            let encode_ns = tr.closed_ns();
            c.bytes += payload.len() as f64;
            let _ = std::hint::black_box(tr.time("server.proto.decode", op, || decode(&payload)));
            c.reads += 1.0;
            in_process = Some(parse_ns + execute_ns + encode_ns + tr.closed_ns());
        }
    }
    tr.end();
    in_process
}

/// What one client thread brings back.
struct ClientOut {
    out: Outcome,
    finished: Instant,
    spans: Vec<Span>,
    reads: ReadCounts,
    /// Acknowledged inserts (paper id, keyword) and last update per id.
    inserted: BTreeSet<(i64, String)>,
    updated: BTreeMap<i64, i64>,
}

/// What every client thread shares.
struct Ctx<'a> {
    addr: SocketAddr,
    /// The server's database; traced reads replay on its snapshots.
    served: &'a SharedDatabase,
    /// A copy of the initial database that traced writes replay on.
    replica: &'a SharedDatabase,
    expected: &'a [u64],
    start: &'a Barrier,
    origin: Instant,
    /// The measurement start, set by the first client past the barrier.
    t0: &'a Mutex<Option<Instant>>,
    seconds: f64,
    trace: bool,
}

fn client_loop(cx: &Ctx, mut stream: Stream, index: usize) -> ClientOut {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cx.trace, cx.origin, index + 1);
    let mut reads = ReadCounts::default();
    let mut inserted = BTreeSet::new();
    let mut updated = BTreeMap::new();
    let mut client = Client::connect(cx.addr)
        .map_err(|e| out.fail(format!("client {index}: connect: {e}")))
        .ok();
    // Warm-up: one deck of reads, untimed.
    if let Some(c) = client.as_mut() {
        let mut warm = Stream::new(Mix::Read, stream.scale, 0, index);
        for _ in 0..deck(Mix::Read).len() {
            let _ = c.query(&warm.next().sql);
        }
    }
    cx.start.wait();
    let t0 = *cx
        .t0
        .lock()
        .expect("start time lock")
        .get_or_insert_with(Instant::now);
    let budget = Duration::from_secs_f64(cx.seconds);
    let mut n = 0u64;
    // Whole decks only, so every run times the same template mix.
    while let Some(c) = client.as_mut() {
        if stream.at_deck_start() && t0.elapsed() >= budget {
            break;
        }
        let Stmt {
            template,
            sql,
            effect,
        } = stream.next();
        n += 1;
        // Op ids are unique across clients: client index in the low bits.
        let op = n * CLIENTS as u64 + index as u64;
        // In a traced run every fourth op is traced, so traced and
        // untraced latencies come from the same run and the same mix,
        // and the span dump stays tens of megabytes.
        let traced = cx.trace && n.is_multiple_of(4);
        if traced {
            let root = if template.is_write() {
                "sql.write_op"
            } else {
                "sql.read_op"
            };
            tr.begin(root, op);
        }
        let t = Instant::now();
        let result = c.query(&sql);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if traced {
            tr.end();
        }
        out.ops.push(Op {
            kind: template.ordinal() as u8,
            ms: ms as f32,
            traced,
        });
        let rel = match result {
            Ok(rel) => rel,
            Err(e) => {
                out.fail(format!(
                    "{}: {sql}: {e}",
                    TEMPLATE_NAMES[template.ordinal()]
                ));
                // A transport failure poisons the connection.
                if matches!(e, etable_relational::Error::Protocol(_)) {
                    client = None;
                }
                continue;
            }
        };
        match effect {
            Effect::Read(slot) => {
                if cx.expected.get(slot) != Some(&canon_hash(&rel)) {
                    out.fail(format!("result differs from the sequential run: {sql}"));
                }
                if traced {
                    let in_process = replay_read(cx.served, &sql, &mut tr, op, &mut reads);
                    // Only small results: there the round trip is mostly
                    // wire, so the difference is not lost in executor noise.
                    let small = matches!(template, Template::PointPaper | Template::PointAuthor);
                    if let Some(ns) = in_process.filter(|_| small) {
                        reads.wire_us.push(ms * 1e3 - ns as f64 / 1e3);
                    }
                }
                continue;
            }
            Effect::Insert(paper, keyword) => {
                inserted.insert((paper, keyword));
            }
            Effect::Update { id, page } => {
                updated.insert(id, page);
            }
        }
        out.writes_ms.push(ms);
        if traced {
            tr.begin("bench.replay", op);
            let replayed = tr.time("relational.shared.write", op, || cx.replica.execute(&sql));
            tr.end();
            if let Err(e) = replayed {
                out.fail(format!("replica write: {sql}: {e}"));
            }
        }
    }
    let finished = Instant::now();
    if let Some(c) = client {
        if let Err(e) = c.quit() {
            out.fail(format!("client {index}: quit: {e}"));
        }
    }
    ClientOut {
        out,
        finished,
        spans: tr.into_spans(),
        reads,
        inserted,
        updated,
    }
}

/// Checks that every acknowledged write is visible through a fresh wire
/// client, and that the server published one epoch per write.
fn check_writes(
    addr: SocketAddr,
    served: &SharedDatabase,
    inserted: &BTreeSet<(i64, String)>,
    updated: &BTreeMap<i64, i64>,
    writes: usize,
    out: &mut Outcome,
) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return out.fail(format!("verify connect: {e}")),
    };
    let seen_kw: BTreeSet<(i64, String)> = match client.query(&format!(
        "SELECT paper_id, keyword FROM Paper_Keywords WHERE keyword LIKE '{KEYWORD_PREFIX}%'"
    )) {
        Ok(rel) => rel
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap_or(-1), r[1].to_string()))
            .collect(),
        Err(e) => return out.fail(format!("verify inserts: {e}")),
    };
    for missing in inserted.difference(&seen_kw) {
        out.fail(format!("acknowledged insert not visible: {missing:?}"));
    }
    for extra in seen_kw.difference(inserted) {
        out.fail(format!("unacknowledged keyword row present: {extra:?}"));
    }
    let seen_pages: BTreeMap<i64, i64> = match client.query(&format!(
        "SELECT id, page_start FROM Papers WHERE page_start >= {PAGE_BASE}"
    )) {
        Ok(rel) => rel
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap_or(-1), r[1].as_int().unwrap_or(-1)))
            .collect(),
        Err(e) => return out.fail(format!("verify updates: {e}")),
    };
    for (id, page) in updated {
        if seen_pages.get(id) != Some(page) {
            out.fail(format!(
                "acknowledged update of paper {id} to {page} not visible"
            ));
        }
    }
    if seen_pages.len() != updated.len() {
        out.fail(format!(
            "{} papers carry updated pages, {} were updated",
            seen_pages.len(),
            updated.len()
        ));
    }
    if served.epoch() != writes as u64 {
        out.fail(format!(
            "server published {} epochs for {writes} acknowledged writes",
            served.epoch()
        ));
    }
    if let Err(e) = client.quit() {
        out.fail(format!("verify quit: {e}"));
    }
}

pub struct Env<'a> {
    pub addr: SocketAddr,
    pub served: &'a SharedDatabase,
    pub initial: &'a Database,
    pub scale: Scale,
}

pub fn run(env: &Env, mix: Mix, seed: u64, seconds: f64, trace: bool, origin: Instant) -> Outcome {
    let mut out = Outcome::new(&TEMPLATE_NAMES);
    let expected = match expected(env.initial, env.scale) {
        Ok(e) => e,
        Err(e) => {
            out.fail(format!("sequential baseline: {e}"));
            return out;
        }
    };
    let replica = SharedDatabase::new(env.initial.clone());
    let barrier = Barrier::new(CLIENTS);
    let t0 = Mutex::new(None);
    let cx = Ctx {
        addr: env.addr,
        served: env.served,
        replica: &replica,
        expected: &expected,
        start: &barrier,
        origin,
        t0: &t0,
        seconds,
        trace,
    };
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let stream = Stream::new(mix, env.scale, seed, i);
                let cx = &cx;
                s.spawn(move || client_loop(cx, stream, i))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let t0 = t0
        .into_inner()
        .expect("start time lock")
        .unwrap_or_else(Instant::now);

    let mut reads = ReadCounts::default();
    let mut inserted = BTreeSet::new();
    let mut updated = BTreeMap::new();
    let mut finished = t0;
    let mut spans = Vec::new();
    for c in clients {
        out.absorb(c.out);
        finished = finished.max(c.finished);
        spans.push(c.spans);
        reads.add(c.reads);
        inserted.extend(c.inserted);
        updated.extend(c.updated);
    }
    out.elapsed_s = finished.duration_since(t0).as_secs_f64();
    let writes = out.writes_ms.len();
    check_writes(env.addr, env.served, &inserted, &updated, writes, &mut out);

    let n = reads.reads.max(1.0);
    out.counters = vec![
        ("server.wire_us".into(), median(&reads.wire_us)),
        (
            "relational.sql.executor.rows_out".into(),
            reads.rows_out / n,
        ),
        (
            "relational.sql.executor.plan_rows_per_row_out".into(),
            reads.plan_rows / reads.rows_out.max(1.0),
        ),
        ("server.proto.bytes_per_result".into(), reads.bytes / n),
        (
            "relational.shared.epochs_per_write".into(),
            env.served.epoch() as f64 / writes.max(1) as f64,
        ),
    ];
    for (name, _, p50_ms) in out.kind_p50_ms() {
        out.counters
            .push((format!("server.rtt_p50_us.{name}"), p50_ms * 1e3));
    }
    out.spans = merge(spans);
    out
}
