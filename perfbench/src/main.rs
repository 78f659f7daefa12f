//! `perfbench` — corescope's benchmark: three workloads, end-to-end
//! metrics, and a traced run that times the calls into each layer.
//!
//! ```text
//! perfbench --workload quick-sweep --seed 1 --seconds 20 --trace 0
//! perfbench --workload serve-closed --seed 7 --seconds 20 --trace 1
//! perfbench record > perfbench/reference.json
//! ```
//!
//! (`perfbench sweep-once` is the child process quick-sweep starts for
//! each sweep.)
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Untraced runs print the
//! end-to-end metrics of the named workload; `--trace 1` prints the
//! per-layer metrics and writes every span to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. See `perfbench/README.md`.

mod probes;
mod quick;
mod reference;
mod serve;
mod stats;
mod steady;
mod trace;

use reference::Reference;
use stats::{median, nearest_rank, tail, Report};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups timed per unit (per run on serve-closed); `setup_s` is
/// their median.
const SETUPS: usize = 9;
/// Fewest sweeps in a quick-sweep run: 3 × 39 artifact times leave ten
/// beyond their p90.
const MIN_SWEEPS: usize = 3;
/// Fewest steady-loop rounds in a run.
const MIN_ROUNDS: usize = 2;
/// Fewest requests in a serve-closed run, so its p90 has ten beyond.
const MIN_REQUESTS: usize = 100;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    QuickSweep,
    SteadyLoop,
    ServeClosed,
}

impl WorkloadName {
    const ALL: [WorkloadName; 3] =
        [WorkloadName::QuickSweep, WorkloadName::SteadyLoop, WorkloadName::ServeClosed];

    fn key(self) -> &'static str {
        match self {
            WorkloadName::QuickSweep => "quick-sweep",
            WorkloadName::SteadyLoop => "steady-loop",
            WorkloadName::ServeClosed => "serve-closed",
        }
    }
}

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WorkloadName::ALL
                        .into_iter()
                        .find(|w| w.key() == name)
                        .ok_or(format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("record") => return print!("{}", record()),
        Some(quick::CHILD_ARG) => return print!("{}", sweep_once().render()),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <quick-sweep|steady-loop|serve-closed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let scratch = std::env::temp_dir().join(format!("perfbench-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let report = if args.trace { traced(&args, &scratch) } else { untraced(&args, &scratch) };
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{}", report.to_json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// Worker threads: two, as `repro --jobs 2`, or fewer on a smaller box.
fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs the set-up `make` [`SETUPS`] times, recording each time, and
/// returns the last one's product.
fn set_up<T>(times: &mut Vec<f64>, make: impl Fn() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let made = std::hint::black_box(make());
        times.push(secs(t));
        last = Some(made);
    }
    last.expect("SETUPS is positive")
}

/// `median` of a non-empty sample; NaN (which fails the report) if empty.
fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// Peak resident set of this process, MB, from `getrusage`.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `RUsage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two timevals then fourteen longs), and `usage` is a
    // valid, writable value for the duration of the call.
    let rc = unsafe { getrusage(0, &mut usage) }; // 0 = RUSAGE_SELF
    if rc == 0 {
        usage.maxrss as f64 / 1024.0 // kB on Linux
    } else {
        f64::NAN
    }
}

/// End-to-end run of one workload.
fn untraced(args: &Args, scratch: &Path) -> Report {
    let tracer = Tracer::new(false);
    let reference = Reference::recorded();
    let mut report = Report::default();
    let started = Instant::now();
    let (setup, units, ttr_ms, tail_rule, rss) = match args.workload {
        WorkloadName::QuickSweep => {
            let (mut setup, mut units, mut ttr, mut rss) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            while units.len() < MIN_SWEEPS || secs(started) < args.seconds {
                let child = match quick::ChildSweep::run() {
                    Ok(child) => child,
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        report.count(false);
                        break;
                    }
                };
                for (id, done_s, ok) in &child.artifacts {
                    if !ok {
                        eprintln!("perfbench: quick-sweep {id} differs from the reference");
                    }
                    report.count(*ok);
                    ttr.push(done_s * 1e3);
                }
                report.count(child.sweep_ok);
                setup.extend(child.setup_s);
                units.push(child.seconds);
                rss.push(child.rss_mb);
            }
            (setup, units, ttr, true, med(&rss))
        }
        WorkloadName::SteadyLoop => {
            let (mut setup, mut units, mut ttr) = (Vec::new(), Vec::new(), Vec::new());
            while units.len() < MIN_ROUNDS || secs(started) < args.seconds {
                let prepared = set_up(&mut setup, steady::prepare);
                let t = Instant::now();
                for run in steady::round(prepared, &tracer, None, false) {
                    let ok = steady::check(&run, &reference);
                    if !ok {
                        eprintln!("perfbench: steady-loop {} differs: {:?}", run.name, run.result);
                    }
                    report.count(ok);
                    ttr.push(run.done_s * 1e3);
                }
                units.push(secs(t));
            }
            (setup, units, ttr, false, peak_rss_mb())
        }
        WorkloadName::ServeClosed => {
            let out = serve::run(args.seed, args.seconds, MIN_REQUESTS, SETUPS, scratch, &tracer);
            count_serve(&mut report, &out);
            let ttr: Vec<f64> = out.samples.iter().map(|s| s.ttr_ms).collect();
            (out.setup_s, out.rounds_s, ttr, true, peak_rss_mb())
        }
    };
    report.put("setup_s", med(&setup), "s");
    report.put("wall_s", med(&units), "s");
    report.put("peak_rss_mb", rss, "MB");
    report.put("ttr_p50_ms", med(&ttr_ms), "ms");
    // steady-loop has two results per round, too few for ten beyond any
    // tail: its p90 is the nearest rank, the time the round ends.
    let p90 = if tail_rule { tail(&ttr_ms, 0.9) } else { nearest_rank(&ttr_ms, 0.9) };
    report.put("ttr_p90_ms", p90.unwrap_or(f64::NAN), "ms");
    eprintln!(
        "perfbench: {} seed {}: {} time-to-result samples, {} set-ups, unit times (s) {:.3?}",
        args.workload.key(),
        args.seed,
        ttr_ms.len(),
        setup.len(),
        units
    );
    match probes::model_check(jobs()) {
        Ok((max_rel_err, missed, targets)) => {
            eprintln!("perfbench: model: {targets} targets, {missed} missed");
            report.put("model_max_rel_err", max_rel_err, "1");
        }
        Err(e) => {
            eprintln!("perfbench: model check failed: {e}");
            report.count(false);
        }
    }
    report
}

/// Counts serve-closed's requests and protocol checks into `report`.
fn count_serve(report: &mut Report, out: &serve::Outcome) {
    let verdicts = serve::check(&out.samples);
    for ok in &verdicts {
        report.count(*ok);
    }
    let bad = verdicts.iter().filter(|ok| !**ok).count();
    if bad > 0 {
        eprintln!("perfbench: serve-closed: {bad} of {} replies failed the check", verdicts.len());
    }
    for e in &out.protocol_errors {
        eprintln!("perfbench: serve-closed: {e}");
        report.count(false);
    }
}

/// The traced run: every layer, each measured from the calls the
/// benchmark makes into it, plus this workload's tracing overhead.
fn traced(args: &Args, scratch: &Path) -> Report {
    let tracer = Tracer::new(true);
    let reference = Reference::recorded();
    let mut report = Report::default();

    // artifact + sched: one traced sweep.
    let sched = corescope_sched::Scheduler::new(jobs());
    let sweep = tracer.span("sweep", None, "quick-sweep", |id| quick::sweep(&sched, &tracer, id));
    let bad = quick::check(&sweep, &reference);
    for a in &sweep.artifacts {
        report.count(!bad.contains(&a.id));
    }
    report.count(!bad.contains(&"sweep"));

    // build + engine: one traced steady-loop round.
    let t = Instant::now();
    let prepared = steady::prepare();
    let runs =
        tracer.span("round", None, "steady-loop", |id| steady::round(prepared, &tracer, id, true));
    let steady_s = secs(t);
    for run in &runs {
        report.count(steady::check(run, &reference));
    }

    // serve: closed-loop requests, 32 at a time, until MIN_REQUESTS.
    let served = serve::run(args.seed, 0.0, MIN_REQUESTS, 1, scratch, &tracer);
    count_serve(&mut report, &served);
    let ttr: Vec<f64> = served.samples.iter().map(|s| s.ttr_ms).collect();
    let batch: Vec<f64> = served.samples.iter().map(|s| s.batch_ms).collect();
    let wait: Vec<f64> = served.samples.iter().map(|s| s.ttr_ms - s.batch_ms).collect();

    // solver, codec, cache: probes over the corpus and the served stream.
    let solver = probes::solver_corpus(args.seed);
    report.tally(solver.small_ns.len() + solver.tail_ns.len(), solver.failed);
    let replay = probes::codec_cache_replay(&served.samples, &scratch.join("replay-cache"));
    // One codec round trip and one cache read per replayed request.
    report.tally(2 * replay.digest_us.len(), replay.failed);

    // model: the error check every end-to-end run reports.
    let missed = match probes::model_check(jobs()) {
        Ok((_, missed, _)) => missed as f64,
        Err(e) => {
            eprintln!("perfbench: model check failed: {e}");
            report.count(false);
            f64::NAN
        }
    };

    // Tracing overhead: the same unit of this workload, untraced.
    let off = Tracer::new(false);
    let overhead_pct = match args.workload {
        // The traced sweep ran first in a fresh process; so does this one.
        WorkloadName::QuickSweep => match quick::ChildSweep::run() {
            Ok(plain) => 100.0 * (sweep.seconds - plain.seconds) / plain.seconds,
            Err(e) => {
                eprintln!("perfbench: {e}");
                report.count(false);
                f64::NAN
            }
        },
        WorkloadName::SteadyLoop => {
            let prepared = steady::prepare();
            let t = Instant::now();
            steady::round(prepared, &off, None, false);
            let plain = secs(t);
            100.0 * (steady_s - plain) / plain
        }
        WorkloadName::ServeClosed => {
            let plain = serve::run(args.seed, 0.0, MIN_REQUESTS, 1, scratch, &off);
            let plain_ttr: Vec<f64> = plain.samples.iter().map(|s| s.ttr_ms).collect();
            100.0 * (med(&ttr) - med(&plain_ttr)) / med(&plain_ttr)
        }
    };

    let spans = tracer.spans();
    let own = trace::self_times(&spans);
    let by_name = trace::self_time_by_name(&spans);
    let build_s = by_name.get("build").copied().unwrap_or(f64::NAN);
    let engine_s = by_name.get("engine").copied().unwrap_or(f64::NAN);
    let events: usize = runs.iter().filter_map(|r| r.result.as_ref().ok()).map(|r| r.events).sum();
    let stats = sweep.stats;
    let hits = stats.hits_memory + stats.hits_disk + stats.in_flight_waits;

    report.put("build.s", build_s, "s");
    report.put("build.ops", runs.iter().map(|r| r.ops).sum::<usize>() as f64, "count");
    report.put("engine.s", engine_s, "s");
    report.put("engine.events", events as f64, "count");
    report.put("engine.events_per_s", events as f64 / engine_s, "1/s");
    report.put("solver.ns_p50", med(&solver.small_ns), "ns");
    report.put("solver.ns_p50_64", med(&solver.tail_ns), "ns");
    report.put("sched.engine_runs", stats.engine_runs as f64, "count");
    report.put("sched.hits", hits as f64, "count");
    report.put("sched.deduped", stats.deduped as f64, "count");
    report.put("sched.hit_ratio", hits as f64 / stats.scenarios as f64, "1");
    for a in &sweep.artifacts {
        let s = spans.iter().find(|s| s.name == "artifact" && s.key == a.id);
        report.put(format!("artifact.{}_s", a.id), s.map_or(f64::NAN, |s| own[&s.id]), "s");
    }
    report.put("codec.digest_us", med(&replay.digest_us), "us");
    report.put("codec.json_us", med(&replay.json_us), "us");
    report.put("cache.get_mem_us", med(&replay.get_mem_us), "us");
    report.put("cache.get_disk_us", med(&replay.get_disk_us), "us");
    report.put("cache.put_us", med(&replay.put_us), "us");
    report.put("serve.ttr_p50_ms", med(&ttr), "ms");
    report.put("serve.batch_ms", med(&batch), "ms");
    report.put("serve.wait_ms", med(&wait), "ms");
    report.put("serve.requests", ttr.len() as f64, "count");
    report.put("model.targets_missed", missed, "count");
    report.put("fail_ratio", report.failed as f64 / report.attempted.max(1) as f64, "1");
    report.put("trace.overhead_pct", overhead_pct, "%");

    eprintln!("perfbench: self time by span name (s):");
    for (name, s) in by_name {
        eprintln!("  {name:<14} {s:>10.4}");
    }
    eprintln!(
        "perfbench: serve: {} requests, ttr p50 {:.2} ms = wait p50 {:.2} ms + batch p50 {:.3} ms",
        ttr.len(),
        med(&ttr),
        med(&wait),
        med(&batch)
    );
    let path = PathBuf::from(".bench_out").join(format!(
        "spans-{}-{}.jsonl",
        args.workload.key(),
        args.seed
    ));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        report.count(false);
    }
    report
}

/// The child side of [`quick::ChildSweep::run`]: set-up, one sweep,
/// its check and this process's peak RSS.
fn sweep_once() -> quick::ChildSweep {
    let mut setup_s = Vec::new();
    let sched = set_up(&mut setup_s, || corescope_sched::Scheduler::new(jobs()));
    let sweep = quick::sweep(&sched, &Tracer::new(false), None);
    let bad = quick::check(&sweep, &Reference::recorded());
    let artifacts = sweep
        .artifacts
        .iter()
        .map(|a| (a.id.to_string(), a.done_s, !bad.contains(&a.id)))
        .collect();
    quick::ChildSweep {
        setup_s,
        seconds: sweep.seconds,
        rss_mb: peak_rss_mb(),
        artifacts,
        sweep_ok: !bad.contains(&"sweep"),
    }
}

/// Runs the fixed-input workloads once and renders their outputs as a
/// new `reference.json`.
fn record() -> String {
    let off = Tracer::new(false);
    let sweep = quick::sweep(&corescope_sched::Scheduler::new(jobs()), &off, None);
    let artifacts = sweep
        .artifacts
        .iter()
        .map(|a| {
            let csv = a.csv.as_deref().unwrap_or_else(|| panic!("artifact {} failed", a.id));
            (a.id.to_string(), stats::fnv1a(csv.as_bytes()))
        })
        .collect();
    let steady = steady::round(steady::prepare(), &off, None, false)
        .into_iter()
        .map(|run| {
            let r = run.result.unwrap_or_else(|e| panic!("{} failed: {e}", run.name));
            (run.name.to_string(), r.makespan, r.events)
        })
        .collect();
    let sweep_digest = quick::sweep_digest(&sweep).expect("every artifact succeeded");
    Reference { sweep_digest, artifacts, steady }.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corescope_sched::json::{self, Value};

    fn names(root: &Value, list: &str) -> Vec<String> {
        root.get(list)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json needs \"{list}\""))
            .iter()
            .map(|m| {
                m.get("name").and_then(Value::as_str).expect("every entry is named").to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_follow_the_charset_and_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let root = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let mut all = Vec::new();
        for list in ["workloads", "end_to_end", "per_layer"] {
            all.extend(names(&root, list));
        }
        for name in &all {
            assert!(stats::valid_name(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names are used once");

        let workloads: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.key()).collect();
        assert_eq!(names(&root, "workloads"), workloads);
        let artifacts: Vec<String> = names(&root, "per_layer")
            .into_iter()
            .filter_map(|n| Some(n.strip_prefix("artifact.")?.strip_suffix("_s")?.to_string()))
            .collect();
        let ids: Vec<&str> = corescope_harness::Artifact::all().iter().map(|a| a.id()).collect();
        assert_eq!(artifacts, ids);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args =
            parse_args(&argv("--workload serve-closed --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (WorkloadName::ServeClosed, 9, 2.5, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload quick-sweep --seed -1 --seconds 1 --trace 0",
            "--workload quick-sweep --seed 1 --seconds 0 --trace 0",
            "--workload quick-sweep --seed 1 --seconds 1 --trace 2",
            "--workload quick-sweep --seconds 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
