//! `calib_bench` — runs the x7 calibration fit and emits
//! `BENCH_calib.json`.
//!
//! ```text
//! calib_bench                    # quick fit, x7's budget (150) → BENCH_calib.json
//! calib_bench --budget 40        # override the evaluation budget
//! calib_bench --jobs 4           # fan candidate evaluations out
//! calib_bench --cache results/.cache  # persist engine results on disk
//! calib_bench --out bench/       # write the JSON elsewhere
//! ```
//!
//! The bench performs exactly the artifact's fit — the perturbed start
//! ([`calibration::perturbed_start`]), evaluator
//! ([`calibration::fit_evaluator`]) and fit configuration
//! ([`calibration::fit_config`]) at quick fidelity — and records what
//! the report tables deliberately leave out: the best-score trajectory,
//! evaluation count, and the scheduler's cache hit-rate. It exits
//! non-zero when a calibration invariant is violated (fit did not
//! converge, or a fitted parameter landed outside the recovery
//! tolerance), so CI catches a regressing optimizer the same way it
//! catches a performance cliff.

use corescope_harness::artifacts::calibration;
use corescope_harness::Fidelity;
use corescope_machine::CalibParams;
use corescope_sched::{json, ResultCache, Scheduler};
use std::time::Instant;

struct Options {
    /// Overrides the artifact's own quick budget when set.
    budget: Option<usize>,
    jobs: usize,
    cache_dir: Option<std::path::PathBuf>,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        budget: None,
        jobs: 1,
        cache_dir: None,
        out: std::path::PathBuf::from("BENCH_calib.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" | "-b" => {
                options.budget = Some(
                    args.next()
                        .ok_or("--budget needs a count")?
                        .parse::<usize>()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--jobs" | "-j" => {
                options.jobs = args
                    .next()
                    .ok_or("--jobs needs a count")?
                    .parse::<usize>()
                    .map_err(|e| format!("--jobs: {e}"))?
                    .max(1);
            }
            "--cache" => {
                options.cache_dir =
                    Some(std::path::PathBuf::from(args.next().ok_or("--cache needs a directory")?));
            }
            "--out" | "-o" => {
                options.out = std::path::PathBuf::from(args.next().ok_or("--out needs a path")?);
                if options.out.is_dir() {
                    options.out = options.out.join("BENCH_calib.json");
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: calib_bench [--budget <n>] [--jobs <n>] [--cache <dir>] [--out <path>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(options)
}

fn run() -> Result<(), String> {
    let options = parse_args()?;
    let sched = match &options.cache_dir {
        Some(dir) => Scheduler::with_cache(options.jobs, ResultCache::on_disk(dir)),
        None => Scheduler::new(options.jobs),
    };

    let eval = calibration::fit_evaluator(&sched, Fidelity::Quick);
    let start = calibration::perturbed_start();
    let mut config = calibration::fit_config(Fidelity::Quick);
    if let Some(budget) = options.budget {
        config = config.with_budget(budget);
    }

    let started = Instant::now();
    let outcome = corescope_calib::fit(&eval, start, &config).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed().as_secs_f64();

    if !outcome.converged {
        return Err(format!(
            "fit did not converge: best score {} after {} evaluations",
            outcome.best_score, outcome.evaluations
        ));
    }
    let shipped = CalibParams::paper_2006();
    for field in &CalibParams::FIELDS {
        let fitted = field.read(&outcome.fitted);
        let reference = field.read(&shipped);
        let rel = ((fitted - reference) / reference).abs();
        if rel > calibration::RECOVERY_TOLERANCE {
            return Err(format!(
                "parameter '{}' fitted {:.1}% away from shipped",
                field.name,
                rel * 100.0
            ));
        }
    }

    let stats = sched.stats();
    let hits = stats.hits_memory + stats.hits_disk;
    let hit_rate = if stats.scenarios > 0 { hits as f64 / stats.scenarios as f64 } else { 0.0 };
    let trajectory: Vec<String> =
        outcome.trajectory.iter().map(|p| json::num(p.best_score)).collect();
    let fitted: Vec<String> = calibration::FITTED_AXES
        .iter()
        .map(|name| {
            let f = CalibParams::field(name).expect("fitted axes are registry fields");
            format!("\"{name}\":{}", json::num(f.read(&outcome.fitted)))
        })
        .collect();

    let body = format!(
        "{{\"bench\":\"calib\",\"fidelity\":\"quick\",\"budget\":{},\
         \"evaluations\":{},\"start_score\":{},\"best_score\":{},\
         \"converged\":true,\"elapsed_s\":{},\
         \"fitted\":{{{}}},\
         \"scenarios\":{},\"engine_runs\":{},\"cache_hits\":{hits},\
         \"cache_hit_rate\":{},\
         \"trajectory\":[{}]}}\n",
        config.budget,
        outcome.evaluations,
        json::num(outcome.start_score),
        json::num(outcome.best_score),
        json::num(elapsed),
        fitted.join(","),
        stats.scenarios,
        stats.engine_runs,
        json::num(hit_rate),
        trajectory.join(","),
    );
    std::fs::write(&options.out, &body)
        .map_err(|e| format!("writing {}: {e}", options.out.display()))?;
    print!("{body}");
    eprintln!("{}", sched.summary());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("calib_bench: {e}");
        std::process::exit(1);
    }
}
