//! Cross-crate observability tests: engine tracing must not perturb
//! results, trace exports must be well-formed, and the time-resolved
//! bottleneck attribution must reproduce the paper's narrative end to
//! end through the public facade.

use corescope::harness::{
    chrome_trace_json, representative_trace, utilization_csv, Artifact, Cell, Fidelity,
};
use corescope::kernels::randomaccess::{append_mpi, RaParams};
use corescope::kernels::stream::{append_star, StreamParams};
use corescope::machine::{
    systems, ComputePhase, FaultPlan, Machine, RunMetrics, TraceConfig, TrafficProfile,
};
use corescope::smpi::{CommWorld, LockLayer, MpiImpl};
use corescope_bench::validate_chrome_trace;
use corescope_sched::System;

/// `n` ranks under two-MPI-per-socket localalloc placement with
/// user-space SysV locks, the scenario defaults.
fn world(machine: &Machine, n: usize, mpi: MpiImpl) -> CommWorld<'_> {
    let placements = corescope::affinity::Scheme::TwoMpiLocalAlloc.resolve(machine, n).unwrap();
    CommWorld::new(machine, placements, mpi.profile(), LockLayer::USysV)
}

fn stream_world(machine: &Machine, n: usize) -> CommWorld<'_> {
    let mut world = world(machine, n, MpiImpl::Lam);
    append_star(&mut world, &StreamParams { sweeps: 3, ..StreamParams::default() });
    world
}

#[test]
fn tracing_is_invisible_to_the_physics() {
    let m = Machine::new(systems::longs());
    let w = stream_world(&m, 16);
    let plain = w.run().unwrap();
    let traced = w.observe(&FaultPlan::new(), TraceConfig::on());
    let report = traced.result.unwrap();
    assert_eq!(plain, report, "tracing must not change rates, makespan, or metrics");
    let trace = traced.trace.expect("tracing was on");
    assert!(!trace.intervals.is_empty());
    assert!((trace.end_time - report.makespan).abs() <= report.makespan * 1e-12);
}

/// Runs `world` untraced and traced, checks the two reports are
/// bit-identical, and returns the metrics.
fn metrics_traced_and_not(world: &CommWorld<'_>) -> RunMetrics {
    let plain = world.run().unwrap();
    let traced = world.observe(&FaultPlan::new(), TraceConfig::on()).result.unwrap();
    assert_eq!(plain.makespan.to_bits(), traced.makespan.to_bits());
    assert_eq!(plain, traced, "tracing must not change the report or its counters");
    plain.metrics
}

#[test]
fn rate_solves_follow_program_text_not_iteration_count() {
    // Steady-state loops repeat their flow sets, so each distinct set is
    // solved once and every further iteration only adds reuses.
    let longs = System::Longs.machine();
    let randomaccess = |chunks: u64| {
        let mut w = world(&longs, 16, MpiImpl::Mpich2);
        append_mpi(
            &mut w,
            &RaParams { table_words_per_rank: 1 << 24, updates_per_rank: chunks * 256 },
        );
        w
    };
    let epyc = System::Epyc.machine();
    let bsp = |steps: u64| {
        let mut w = world(&epyc, 32, MpiImpl::Mpich2);
        let phase = ComputePhase::new("bsp-step", 5.0e6, TrafficProfile::stream(8.0e6));
        w.repeat(steps, |w| {
            w.compute_all(|_| Some(phase.clone()));
            w.allreduce(8.0);
        });
        w
    };
    for (name, short, long) in
        [("randomaccess", randomaccess(16), randomaccess(64)), ("bsp", bsp(100), bsp(1000))]
    {
        let short = metrics_traced_and_not(&short);
        let long = metrics_traced_and_not(&long);
        assert!(short.rate_solves > 0, "{name}");
        assert_eq!(short.rate_solves, long.rate_solves, "{name}: solves grew with the loop");
        assert!(long.rate_reuses > short.rate_reuses, "{name}: a longer loop reuses more");
    }
}

#[test]
fn longs_stream_trace_blames_the_probe_fabric() {
    let m = Machine::new(systems::longs());
    let observed = stream_world(&m, 16).observe(&FaultPlan::new(), TraceConfig::on());
    observed.result.unwrap();
    let ranking = observed.trace.unwrap().bottleneck_ranking();
    assert_eq!(
        ranking[0].label, "coherence-probe",
        "all-core STREAM on Longs is probe-limited (paper Sec. 3.1): {ranking:?}"
    );
}

#[test]
fn representative_traces_export_valid_chrome_json_and_csv() {
    for artifact in [Artifact::F2, Artifact::F14, Artifact::T2] {
        let bundle = representative_trace(artifact, Fidelity::Quick)
            .unwrap()
            .unwrap_or_else(|| panic!("{} should have a traced representative", artifact.id()));
        let json = chrome_trace_json(&bundle.label, &bundle.trace);
        validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("{} trace invalid: {e}", artifact.id()));
        let csv = utilization_csv(&bundle.trace);
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        assert!(header_cols >= 3, "t0,t1 plus at least one resource");
        for line in lines {
            assert_eq!(line.split(',').count(), header_cols, "ragged CSV for {}", artifact.id());
        }
    }
}

#[test]
fn x4_names_the_papers_bottlenecks() {
    let tables = Artifact::X4.run(Fidelity::Quick).unwrap();
    let top = |row: &str| match tables[0]
        .rows()
        .find(|(label, _)| *label == row)
        .map(|(_, cells)| cells[0].clone())
    {
        Some(Cell::Text(s)) => s,
        other => panic!("row '{row}': {other:?}"),
    };
    assert_eq!(top("STREAM triad x8, Longs"), "coherence-probe");
    assert!(top("STREAM triad x4, DMZ").starts_with("mc:"));
    assert_eq!(top("PingPong 8 B, Longs"), "mpi-overhead");
}
