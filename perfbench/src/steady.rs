//! steady-loop: two long steady-state scenarios, run one after another.
//!
//! The untraced path submits each as a one-scenario batch to a cold
//! scheduler, as a user would. The traced path makes the same run from
//! the public pieces `Scenario::run` is built from, so program
//! construction (`build`) and the event loop (`engine`) get spans of
//! their own; the check holds both paths to the same recorded result.

use crate::reference::Reference;
use crate::trace::Tracer;
use corescope_kernels::randomaccess::{append_mpi, RaParams};
use corescope_machine::program::ComputePhase;
use corescope_machine::traffic::TrafficProfile;
use corescope_machine::Result;
use corescope_sched::{Scenario, ScenarioResult, Scheduler, System, Workload};
use corescope_smpi::CommWorld;
use std::time::Instant;

/// The two scenarios, by name, in run order.
fn scenarios() -> Vec<(&'static str, Scenario)> {
    // Figure 11's MPI RandomAccess shape on Longs at a quarter of full
    // fidelity, with the scenario defaults (MPICH2, user-space locks):
    // 2^20 updates per rank = 4,096 identical 256-update chunks.
    let randomaccess = Scenario::new(
        System::Longs,
        16,
        Workload::RandomAccessMpi { table_words_per_rank: 1 << 24, updates_per_rank: 1 << 20 },
    );
    // X5's bulk-synchronous step on the chiplet machine, 6,000 steps.
    let bsp = Scenario::new(
        System::Epyc,
        32,
        Workload::Bsp {
            steps: 6000,
            flops_per_step: 5.0e6,
            bytes_per_step: 8.0e6,
            sync_bytes: 8.0,
        },
    );
    vec![("randomaccess-mpi", randomaccess), ("bsp", bsp)]
}

/// A scenario ready to run, with the cold scheduler it goes through.
pub struct Job {
    name: &'static str,
    scenario: Scenario,
    sched: Scheduler,
}

/// Set-up: both scenarios, each with a cold single-worker scheduler.
pub fn prepare() -> Vec<Job> {
    scenarios()
        .into_iter()
        .map(|(name, scenario)| Job { name, scenario, sched: Scheduler::new(1) })
        .collect()
}

/// One scenario's run.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario name.
    pub name: &'static str,
    /// Time from the start of the round, when both scenarios were
    /// submitted, to its result.
    pub done_s: f64,
    /// The result, or the error text.
    pub result: std::result::Result<ScenarioResult, String>,
    /// Ops materialized by program construction (traced path only).
    pub ops: usize,
}

/// Runs both scenarios once, one after the other: untraced through
/// their schedulers, or traced through the layer-split path.
pub fn round(
    jobs: Vec<Job>,
    tracer: &Tracer,
    parent: Option<u64>,
    traced: bool,
) -> Vec<ScenarioRun> {
    let t = Instant::now();
    jobs.into_iter()
        .map(|Job { name, scenario, sched }| {
            let (result, ops) = tracer.span("scenario", parent, name, |id| {
                if traced {
                    run_split(&scenario, tracer, id)
                        .map_or_else(|e| (Err(e), 0), |(r, o)| (Ok(r), o))
                } else {
                    let done = sched.run_batch(std::slice::from_ref(&scenario));
                    (
                        done.into_iter()
                            .next()
                            .expect("one outcome per scenario")
                            .map(|c| c.result),
                        0,
                    )
                }
            });
            let result = result.map_err(|e| e.to_string());
            ScenarioRun { name, done_s: t.elapsed().as_secs_f64(), result, ops }
        })
        .collect()
}

/// `Scenario::run`, step by step, with a span per layer. Returns the
/// result and the number of ops the programs hold.
fn run_split(
    s: &Scenario,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<(ScenarioResult, usize)> {
    let key = s.workload.kind();
    let machine = tracer.span("build", parent, key, |_| s.system.machine_with(&s.params));
    let world = tracer.span("build", parent, key, |_| -> Result<CommWorld<'_>> {
        let placements = s.placement.resolve_with(&machine, s.nranks, s.params.misplacement)?;
        let mut world = CommWorld::new(&machine, placements, s.mpi.profile_with(&s.params), s.lock);
        append(&mut world, &s.workload);
        Ok(world)
    })?;
    let ops = world.programs().iter().map(|p| p.len()).sum();
    let report = tracer.span("engine", parent, key, |_| world.run_with_faults(&s.faults))?;
    Ok((ScenarioResult::from_report(&report), ops))
}

/// The two workload kinds this loop uses, appended exactly as the
/// scenario layer appends them.
fn append(world: &mut CommWorld<'_>, workload: &Workload) {
    match *workload {
        Workload::Bsp { steps, flops_per_step, bytes_per_step, sync_bytes } => {
            let phase = ComputePhase::new(
                "bsp-step",
                flops_per_step,
                TrafficProfile::stream(bytes_per_step),
            );
            for _ in 0..steps {
                world.compute_all(|_| Some(phase.clone()));
                world.allreduce(sync_bytes);
            }
        }
        Workload::RandomAccessMpi { table_words_per_rank, updates_per_rank } => {
            append_mpi(world, &RaParams { table_words_per_rank, updates_per_rank });
        }
        _ => unreachable!("steady-loop runs only BSP and MPI RandomAccess"),
    }
}

/// Whether a run reproduced the recorded makespan (bit for bit) and
/// event count.
pub fn check(run: &ScenarioRun, reference: &Reference) -> bool {
    match (&run.result, reference.steady(run.name)) {
        (Ok(r), Some((makespan, events))) => {
            r.makespan.to_bits() == makespan.to_bits() && r.events == events
        }
        _ => false,
    }
}
