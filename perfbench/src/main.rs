//! The repository benchmark. One run sets up one workload, measures it
//! for `--seconds`, checks every result, prints every metric with its
//! unit, and ends with one JSON line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` records spans around the calls into each layer
//! and reports the per-layer metrics, the self-time table and the
//! tracing overhead. See `perfbench/METRICS.md`.
//!
//! ```text
//! perfbench --workload browse|sql_read|sql_mixed --seed N --seconds S --trace 0|1
//! ```

mod browse;
mod report;
mod rng;
mod setup;
mod sql;
mod stats;
mod trace;

use etable_relational::exec::pool::{init_global, PoolConfig};
use report::{describe_overhead, end_to_end, json_line, per_layer};
use setup::{build_repeated, shutdown, WorkDir, DATASET_SEED};
use std::path::Path;
use std::time::Instant;
use trace::{layer_times, merge, self_time_table, write_dump, Tracer};

/// The morsel pool size, pinned so runs do not depend on the host or on
/// `ETABLE_SCAN_THREADS`. One thread: the SQL workloads already keep two
/// client threads and two server handlers busy, and at 3,000 papers
/// helper threads only add hand-offs (sql_read does about 5,300 ops/s
/// with two pool threads and 6,700 with one on a 2-core host).
const POOL_THREADS: usize = 1;

/// Scratch corpora and span dumps, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// Settings that change how the engine executes; a run under any of them
/// would not measure the default system.
const REFUSED_ENV: [&str; 3] = [
    "ETABLE_SCAN_THREADS",
    "ETABLE_MEM_BUDGET",
    "ETABLE_VALIDATE",
];

const USAGE: &str = "usage: perfbench --workload browse|sql_read|sql_mixed --seed N \
                     --seconds S --trace 0|1 [--papers N]";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Browse,
    Sql(sql::Mix),
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "browse" => Some(Workload::Browse),
            "sql_read" => Some(Workload::Sql(sql::Mix::Read)),
            "sql_mixed" => Some(Workload::Sql(sql::Mix::Mixed)),
            _ => None,
        }
    }

    /// Papers in the corpus: the paper's scale (§7.1) for browsing, the
    /// medium scale for SQL.
    fn papers(self) -> usize {
        match self {
            Workload::Browse => 38_000,
            Workload::Sql(_) => 3_000,
        }
    }

    /// The percentile `op_tail_ms` reports. It is fixed per workload, so
    /// that a faster program, which completes more ops in a run, is not
    /// measured at a higher percentile than its parent. Browse completes
    /// a few hundred ops a run, so p90 is the highest with ten beyond
    /// it. The SQL workloads complete tens of thousands; p99 has hundreds
    /// beyond it, and p99.9, which has too, moved by 15% between runs of
    /// the same code.
    fn tail_percentile(self) -> f64 {
        match self {
            Workload::Browse => 90.0,
            Workload::Sql(_) => 99.0,
        }
    }

    /// Set-ups per run; `setup_s` is their median. A SQL set-up takes
    /// tens of ms, so many are cheap and narrow the median.
    fn setups(self) -> usize {
        match self {
            Workload::Browse => 5,
            Workload::Sql(_) => 25,
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// A smaller corpus than the workload's own (self-tests only).
    papers: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str, v: &String| {
        v.parse::<u64>()
            .map_err(|_| format!("--{k} must be a whole number, got `{v}`"))
    };
    for k in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "papers"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let name = get("workload")?.clone();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let seconds = get("seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0 && s.is_finite())
        .ok_or("--seconds must be a positive number")?;
    let opt = |k: &str| {
        flags
            .get(k)
            .map(|v| num(k, v).map(|n| n as usize))
            .transpose()
    };
    Ok(Args {
        workload,
        name,
        seed: num("seed", get("seed")?)?,
        seconds,
        trace,
        papers: opt("papers")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set; unset it to measure the default engine"
        );
        std::process::exit(2);
    }
    if !init_global(PoolConfig::fixed(POOL_THREADS)) {
        eprintln!("perfbench: the morsel pool was sized before it could be pinned");
        std::process::exit(2);
    }
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload and prints its report; returns whether every check
/// passed.
fn run(args: &Args) -> Result<bool, String> {
    let origin = Instant::now();
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut work = WorkDir::new(out_dir).map_err(|e| format!("work dir: {e}"))?;
    let mut setup_tr = Tracer::new(args.trace, origin, 0);
    let reps = args.workload.setups();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.name, args.seed, args.seconds, args.trace as u8
    );

    let cfg = setup::config(args.papers.unwrap_or(args.workload.papers()));
    let clients = match args.workload {
        Workload::Browse => 1,
        Workload::Sql(_) => sql::CLIENTS,
    };
    println!(
        "dataset seed={DATASET_SEED} papers={} authors={}; pool threads={POOL_THREADS} (pinned), \
         available_parallelism={cores}; clients={clients} closed-loop; set-ups={reps}",
        cfg.papers, cfg.authors
    );
    let serve = args.workload != Workload::Browse;
    let (ready, setups) = build_repeated(&cfg, &mut work, serve, reps, &mut setup_tr)?;
    let mut outcome = match args.workload {
        Workload::Browse => browse::run(
            &ready.db,
            &ready.tgdb,
            args.seed,
            args.seconds,
            args.trace,
            origin,
        ),
        Workload::Sql(mix) => {
            let env = sql::Env {
                addr: ready.server.as_ref().map(|s| s.addr()).ok_or("no server")?,
                served: ready.shared.as_ref().ok_or("no shared database")?,
                initial: &ready.db,
                scale: sql::Scale {
                    papers: cfg.papers,
                    authors: cfg.authors,
                    first_year: cfg.years.0,
                    years: (cfg.years.1 - cfg.years.0 + 1) as usize,
                },
            };
            sql::run(&env, mix, args.seed, args.seconds, args.trace, origin)
        }
    };
    shutdown(ready)?;
    drop(work);

    let totals: Vec<String> = setups.iter().map(|s| format!("{:.4}", s.total_s)).collect();
    println!("set-up seconds per repetition: {}", totals.join(" "));
    for note in &outcome.notes {
        println!("check: {note}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    let attempted = outcome.ops.len() as u64;
    let correct = outcome.failed == 0 && attempted > 0;
    let (e2e, lines) = end_to_end(&outcome, &setups, args.workload.tail_percentile());
    for m in &e2e {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for l in &lines {
        println!("{l}");
    }
    let metrics = if args.trace {
        let layers = per_layer(&outcome, &setups);
        for m in &layers {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
        let spans = merge([setup_tr.into_spans(), std::mem::take(&mut outcome.spans)]);
        println!("self time per span (all traced ops and set-ups):");
        for l in self_time_table(&layer_times(&spans)) {
            println!("  {l}");
        }
        println!("{}", describe_overhead(&outcome));
        // One dump per workload: the latest traced run replaces it.
        let path = out_dir.join(format!("trace-{}.jsonl", args.name));
        write_dump(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("span dump: {} ({} spans)", path.display(), spans.len());
        layers
    } else {
        e2e
    };
    println!(
        "{}",
        json_line(correct, attempted, outcome.failed, &metrics)
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_op_sequence() {
        let scale = sql::Scale {
            papers: 3000,
            authors: 2000,
            first_year: 2000,
            years: 16,
        };
        for mix in [sql::Mix::Read, sql::Mix::Mixed] {
            let ops = sql::op_sequence(mix, scale, 1, 300);
            assert_eq!(ops, sql::op_sequence(mix, scale, 1, 300));
            assert_ne!(ops, sql::op_sequence(mix, scale, 2, 300));
            let writes = ops.iter().filter(|s| !s.starts_with("SELECT")).count();
            let expected = if mix == sql::Mix::Mixed {
                ops.len() / 10
            } else {
                0
            };
            assert_eq!(writes, expected, "{mix:?}");
        }
        let tasks = browse::op_sequence(1, 3);
        assert_eq!(tasks, browse::op_sequence(1, 3));
        assert_ne!(tasks, browse::op_sequence(2, 3));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload sql_mixed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::Sql(sql::Mix::Mixed), 3, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload browse --seed x --seconds 10 --trace 1",
            "--workload browse --seed 3 --seconds 10 --trace 2",
            "--workload browse --seed 3 --trace 0",
            "--workload browse --seed 3 --seconds 10 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
