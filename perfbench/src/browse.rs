//! The `browse` workload: one in-process client replays the six Table 2
//! tasks of both matched sets (A and B), each task in a fresh `Session`,
//! in seeded order. One op is one UI action, as `cli::Engine` performs
//! it: a `Session` mutator, then `Session::etable()`, then
//! `render::render_etable` with 12 rows.

use crate::report::{Op, Outcome};
use crate::rng::Rng;
use crate::trace::Tracer;
use etable_core::etable::EnrichedTable;
use etable_core::matching::match_primary;
use etable_core::pattern::NodeFilter;
use etable_core::render::{render_etable, RenderOptions};
use etable_core::session::Session;
use etable_core::transform::transform;
use etable_datagen::{ground_truth, params, task_set, TaskSet};
use etable_relational::database::Database;
use etable_relational::expr::CmpOp;
use etable_relational::sql::execute;
use etable_tgm::Tgdb;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One UI action of a task script.
pub enum Step {
    Open(&'static str),
    Filter(NodeFilter),
    Pivot(&'static str),
    /// Click the count in a column of the first row.
    SeeallFirstRow(&'static str),
    /// Back out of a detour: revert to the step before the last one.
    RevertDetour,
    Sort(&'static str, bool),
}

/// Op kinds, indexed by [`Step::kind`].
const KINDS: [&str; 6] = ["open", "filter", "pivot", "seeall", "revert", "sort"];

impl Step {
    fn kind(&self) -> u8 {
        match self {
            Step::Open(_) => 0,
            Step::Filter(_) => 1,
            Step::Pivot(_) => 2,
            Step::SeeallFirstRow(_) => 3,
            Step::RevertDetour => 4,
            Step::Sort(..) => 5,
        }
    }

    fn name(&self) -> &'static str {
        KINDS[self.kind() as usize]
    }
}

/// The action sequence a participant performs for `number` of `set`: the
/// same sequence the simulated user study drives.
pub fn script(set: TaskSet, number: usize) -> Vec<Step> {
    use Step::*;
    let p = params(set);
    let eq = |attr: &str, v: &str| Filter(NodeFilter::cmp(attr, CmpOp::Eq, v));
    match number {
        1 => vec![Open("Papers"), eq("title", p.title1)],
        2 => vec![
            Open("Papers"),
            eq("title", p.title2),
            SeeallFirstRow("Paper_Keywords: keyword"),
        ],
        3 => vec![
            Open("Authors"),
            eq("name", p.author),
            SeeallFirstRow("Papers"),
            Filter(NodeFilter::cmp("year", CmpOp::Ge, p.year)),
        ],
        4 => vec![
            Open("Institutions"),
            eq("name", p.institution),
            Pivot("Authors"),
            Pivot("Papers"),
            Pivot("Papers (referenced)"),
            RevertDetour,
            Pivot("Conferences"),
            eq("acronym", p.conf_filter),
            Pivot("Papers"),
        ],
        5 => vec![
            Open("Institutions"),
            eq("country", "South Korea"),
            Sort("Authors", true),
        ],
        6 => vec![
            Open("Conferences"),
            eq("acronym", p.conf_agg),
            Pivot("Papers"),
            Pivot("Authors"),
            Sort("name", false),
            Sort("Papers", true),
        ],
        other => panic!("Table 2 has no task {other}"),
    }
}

/// Passes every run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// The 12 tasks of one pass, in an order drawn from `rng`.
pub fn task_order(rng: &mut Rng) -> Vec<(TaskSet, usize)> {
    let mut order: Vec<(TaskSet, usize)> = [TaskSet::A, TaskSet::B]
        .into_iter()
        .flat_map(|set| (1..=6).map(move |n| (set, n)))
        .collect();
    rng.shuffle(&mut order);
    order
}

fn column_values(t: &EnrichedTable, column: &str, take: usize) -> BTreeSet<String> {
    let Some(col) = t.column_index(column) else {
        return BTreeSet::new();
    };
    t.rows
        .iter()
        .take(take)
        .filter_map(|r| r.cells[col].value().map(|v| v.to_string()))
        .collect()
}

/// The answer read off a task's final table, as the study scripts read it.
fn answer(number: usize, t: &EnrichedTable) -> BTreeSet<String> {
    match number {
        1 => column_values(t, "year", usize::MAX),
        2 => t
            .rows
            .iter()
            .filter_map(|r| r.cells.first()?.value().map(|v| v.to_string()))
            .collect(),
        3 | 4 => column_values(t, "title", usize::MAX),
        5 => column_values(t, "name", 1),
        _ => column_values(t, "name", 3),
    }
}

/// What a task's answer must be.
struct Expected {
    truth: BTreeSet<String>,
    /// For top-k-by-count tasks: every candidate's count, highest first,
    /// so answers that differ from the SQL name tie-break only inside a
    /// tie are accepted.
    ranked: Option<Vec<(String, i64)>>,
}

fn expected(db: &Database, set: TaskSet, number: usize) -> Result<Expected, String> {
    let task = task_set(set)
        .into_iter()
        .find(|t| t.number == number)
        .ok_or("no such task")?;
    let truth = ground_truth(db, &task);
    let ranked = if number == 6 {
        let sql = format!(
            "SELECT a.name, COUNT(*) AS n FROM Papers p, Paper_Authors pa, Authors a, \
             Conferences c WHERE p.id = pa.paper_id AND pa.author_id = a.id \
             AND p.conference_id = c.id AND c.acronym = '{}' \
             GROUP BY a.name ORDER BY n DESC, a.name",
            params(set).conf_agg
        );
        let rel = execute(&mut db.clone(), &sql).map_err(|e| format!("task 6 counts: {e}"))?;
        let rows = rel
            .rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].as_int().unwrap_or(-1)))
            .collect();
        Some(rows)
    } else {
        None
    };
    Ok(Expected { truth, ranked })
}

/// Checks one answer; `Ok(Some(note))` describes an accepted tie.
fn check(answer: &BTreeSet<String>, exp: &Expected) -> Result<Option<String>, String> {
    let Some(ranked) = &exp.ranked else {
        return if *answer == exp.truth {
            Ok(None)
        } else {
            Err(format!("answered {answer:?}, expected {:?}", exp.truth))
        };
    };
    let k = exp.truth.len();
    if k == 0 || ranked.len() < k {
        return Err(format!("fewer than {k} ranked candidates"));
    }
    let cut = ranked[k - 1].1;
    let counts: BTreeMap<&str, i64> = ranked.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    let mut got: Vec<i64> = answer
        .iter()
        .map(|n| counts.get(n.as_str()).copied().unwrap_or(-1))
        .collect();
    got.sort_unstable_by(|a, b| b.cmp(a));
    let want: Vec<i64> = ranked[..k].iter().map(|r| r.1).collect();
    let above_cut_missing = ranked
        .iter()
        .take_while(|r| r.1 > cut)
        .any(|r| !answer.contains(&r.0));
    if got != want || above_cut_missing {
        return Err(format!(
            "answered {answer:?} with counts {got:?}, SQL's top {k} counts are {want:?}"
        ));
    }
    let tied: Vec<&str> = ranked
        .iter()
        .filter(|r| r.1 == cut)
        .map(|r| r.0.as_str())
        .collect();
    let slots = k - ranked.iter().take_while(|r| r.1 > cut).count();
    Ok((tied.len() > 1).then(|| {
        format!(
            "tie at rank {k}: {} authors with {cut} papers {tied:?} for {slots} slot(s); \
             ETable answered {answer:?}, SQL's name tie-break gives {:?}",
            tied.len(),
            exp.truth
        )
    }))
}

/// Per-layer counts of a run: render and cache counts over every op,
/// transform counts over the replayed (traced) ops.
#[derive(Default)]
struct Counts {
    rows_out: f64,
    refs_out: f64,
    render_bytes: f64,
    rows_shown: f64,
    rows_built: f64,
    traced_ops: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn apply(
    session: &mut Session,
    step: &Step,
    last: Option<&EnrichedTable>,
) -> etable_core::Result<()> {
    match step {
        Step::Open(name) => session.open_by_name(name),
        Step::Filter(f) => session.filter(f.clone()),
        Step::Pivot(col) => session.pivot(col),
        Step::SeeallFirstRow(col) => {
            let row = last
                .and_then(|t| t.rows.first())
                .ok_or_else(|| etable_core::Error::InvalidAction("no first row to click".into()))?;
            session.seeall(row.node, col)
        }
        Step::RevertDetour => {
            let back =
                session.history().len().checked_sub(2).ok_or_else(|| {
                    etable_core::Error::InvalidAction("no detour to revert".into())
                })?;
            session.revert(back)
        }
        Step::Sort(col, desc) => {
            session.sort(col, *desc);
            Ok(())
        }
    }
}

/// One op: action, `etable()`, render. Returns the table shown.
fn run_op(
    session: &mut Session,
    step: &Step,
    last: Option<&EnrichedTable>,
    tr: &mut Tracer,
    op: u64,
    counts: &mut Counts,
) -> etable_core::Result<EnrichedTable> {
    let opts = RenderOptions::default();
    tr.begin("browse.op", op);
    let acted = tr.time("etable.session.action", op, || apply(session, step, last));
    let table = acted.and_then(|()| tr.time("etable.session.etable", op, || session.etable()));
    let table = table.inspect(|t| {
        let text = tr.time("etable.render", op, || render_etable(t, &opts));
        counts.render_bytes += text.len() as f64;
        counts.rows_shown += t.len().min(opts.max_rows) as f64;
        counts.rows_built += t.len() as f64;
        std::hint::black_box(text);
    });
    tr.end();
    table
}

/// One untimed, unchecked pass, so the allocator has adapted to the
/// large tables before timing starts (the first pass is otherwise about
/// a fifth slower).
fn warm_up(tgdb: &Arc<Tgdb>, tr: &mut Tracer) {
    let mut counts = Counts::default();
    for (set, number) in task_order(&mut Rng::new(0, 0)) {
        let mut session = Session::new(Arc::clone(tgdb));
        let mut shown: Option<EnrichedTable> = None;
        for step in script(set, number) {
            match run_op(&mut session, &step, shown.as_ref(), tr, 0, &mut counts) {
                Ok(t) => shown = Some(t),
                Err(_) => break,
            }
        }
    }
}

/// Replays the matching and the transform of the pattern an op showed,
/// timed on their own (the session's call runs them inside `etable()`).
fn replay(tgdb: &Tgdb, session: &Session, tr: &mut Tracer, op: u64, counts: &mut Counts) {
    let Some(pattern) = session.current_pattern() else {
        return;
    };
    tr.begin("bench.replay", op);
    let matched = tr.time("etable.matching", op, || match_primary(tgdb, pattern));
    if let Ok(m) = matched {
        if let Ok(t) = tr.time("etable.transform", op, || transform(tgdb, &m)) {
            counts.rows_out += t.len() as f64;
            counts.refs_out += t.total_refs() as f64;
        }
    }
    tr.end();
    counts.traced_ops += 1.0;
}

pub fn run(
    db: &Database,
    tgdb: &Arc<Tgdb>,
    seed: u64,
    seconds: f64,
    trace: bool,
    origin: Instant,
) -> Outcome {
    let mut tr = Tracer::new(false, origin, 0);
    let mut traced = Tracer::new(true, origin, 0);
    let mut rng = Rng::new(seed, 1);
    let mut counts = Counts::default();
    let mut out = Outcome::new(&KINDS);
    // Every answer's check, before timing starts. Keyed by (set is B,
    // task number): `TaskSet` is not `Ord`.
    let mut expect: BTreeMap<(bool, usize), Expected> = BTreeMap::new();
    for (set, number) in task_order(&mut Rng::new(0, 0)) {
        match expected(db, set, number) {
            Ok(x) => {
                expect.insert((set == TaskSet::B, number), x);
            }
            Err(e) => out.fail(format!("task {number}{set:?}: {e}")),
        }
    }
    let mut notes: BTreeSet<String> = BTreeSet::new();
    warm_up(tgdb, &mut tr);
    let mut op_id = 0u64;
    let mut passes = 0;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Whole passes only, so every run times the same mix of actions; at
    // least two, so the tail has ten ops beyond p90.
    while passes < MIN_PASSES || start.elapsed() < budget {
        passes += 1;
        // In a traced run every other pass is traced, so traced and
        // untraced op latencies come from the same run and the same mix.
        let tracing = trace && passes.is_multiple_of(2);
        for (set, number) in task_order(&mut rng) {
            let tracer = if tracing { &mut traced } else { &mut tr };
            let mut session = Session::new(Arc::clone(tgdb));
            let mut shown: Option<EnrichedTable> = None;
            let mut task_ms = 0.0;
            let mut failed = false;
            for step in script(set, number) {
                op_id += 1;
                let t0 = Instant::now();
                let result = run_op(
                    &mut session,
                    &step,
                    shown.as_ref(),
                    tracer,
                    op_id,
                    &mut counts,
                );
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                task_ms += ms;
                out.ops.push(Op {
                    kind: step.kind(),
                    ms: ms as f32,
                    traced: tracing,
                });
                if tracing {
                    replay(tgdb, &session, tracer, op_id, &mut counts);
                }
                match result {
                    Ok(t) => shown = Some(t),
                    Err(e) => {
                        out.fail(format!("task {number}{set:?} {}: {e}", step.name()));
                        failed = true;
                        break;
                    }
                }
            }
            let (hits, misses) = session.cache_stats();
            counts.cache_hits += hits;
            counts.cache_misses += misses;
            out.tasks_ms.push(task_ms);
            if failed {
                continue;
            }
            let got = answer(number, shown.as_ref().expect("a task has at least one op"));
            let Some(exp) = expect.get(&(set == TaskSet::B, number)) else {
                continue;
            };
            match check(&got, exp) {
                Ok(Some(tie)) => {
                    notes.insert(format!("task {number} set {set:?}: {tie}"));
                }
                Ok(None) => {}
                Err(e) => out.fail(format!("task {number}{set:?}: {e}")),
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.notes.extend(notes);

    let n = counts.traced_ops.max(1.0);
    let ops = out.ops.len().max(1) as f64;
    let (hits, misses) = (counts.cache_hits as f64, counts.cache_misses as f64);
    out.counters = [
        ("etable.transform.rows_out", counts.rows_out / n),
        ("etable.transform.refs_out", counts.refs_out / n),
        ("etable.render.bytes", counts.render_bytes / ops),
        (
            "etable.render.rows_shown_per_row_built",
            counts.rows_shown / counts.rows_built.max(1.0),
        ),
        ("etable.cache.hit_ratio", hits / (hits + misses).max(1.0)),
        ("etable.cache.hits_per_op", hits / ops),
        // Each miss is one `match_primary` call the session made.
        ("etable.cache.misses_per_op", misses / ops),
    ]
    .into_iter()
    .map(|(name, v)| (name.to_string(), v))
    .collect();
    out.spans = traced.into_spans();
    out
}

/// The op sequence of a run's first `passes` passes, as text: the seeded
/// task order with each task's actions.
#[cfg(test)]
pub fn op_sequence(seed: u64, passes: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    (0..passes)
        .flat_map(|_| task_order(&mut rng))
        .flat_map(|(set, number)| {
            script(set, number)
                .into_iter()
                .map(move |s| format!("{set:?}{number}:{}", s.name()))
        })
        .collect()
}
