//! Extra X4: time-resolved bottleneck attribution.
//!
//! The paper *argues* that Longs' STREAM stops scaling because the
//! coherence-probe fabric saturates, that DMZ's STREAM is bound by the
//! per-socket memory controller, and that 8 B PingPong cost is MPI
//! software overhead rather than any transfer resource. With the traced
//! engine those claims become measurements: this artifact runs each
//! workload with tracing on, ranks where the wall time went
//! ([`RunTrace::bottleneck_ranking`]), and *fails* if the top-ranked
//! cause does not match the paper's narrative.

use crate::context::{default_stack, lam_profile, Systems};
use crate::observe::scatter_local;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_kernels::cg::{CgClass, NasCg};
use corescope_kernels::stream::{append_star, StreamParams};
use corescope_machine::trace::AttributedTime;
use corescope_machine::{Error, FaultPlan, Machine, Result, RunTrace, TraceConfig};
use corescope_sched::Fidelity;
use corescope_smpi::{CommWorld, LockLayer};

/// What the paper says should top the ranking for a workload.
#[derive(Debug, Clone, Copy)]
enum Expected {
    /// The named label exactly (e.g. `"coherence-probe"`).
    Exactly(&'static str),
    /// Any label with the prefix (e.g. `"mc:"` for either controller).
    Prefixed(&'static str),
    /// No assertion (report-only row).
    Any,
}

impl Expected {
    fn matches(self, label: &str) -> bool {
        match self {
            Expected::Exactly(want) => label == want,
            Expected::Prefixed(prefix) => label.starts_with(prefix),
            Expected::Any => true,
        }
    }

    fn describe(self) -> String {
        match self {
            Expected::Exactly(want) => want.to_string(),
            Expected::Prefixed(prefix) => format!("{prefix}*"),
            Expected::Any => "(report only)".to_string(),
        }
    }
}

/// Builds one traced workload on a borrowed machine.
type BuildWorld = Box<dyn Fn(&Machine) -> Result<CommWorld<'_>>>;

/// One traced workload row.
struct Row {
    name: &'static str,
    machine: fn(&Systems) -> &Machine,
    expected: Expected,
    build: BuildWorld,
}

fn stream_world(machine: &Machine, nranks: usize, fidelity: Fidelity) -> Result<CommWorld<'_>> {
    let params = StreamParams { sweeps: fidelity.steps(10).max(2), ..StreamParams::default() };
    let mut world =
        CommWorld::new(machine, scatter_local(machine, nranks)?, lam_profile(), LockLayer::USysV);
    append_star(&mut world, &params);
    Ok(world)
}

fn pingpong_world(machine: &Machine, fidelity: Fidelity) -> Result<CommWorld<'_>> {
    let reps = fidelity.steps(20).max(4);
    let placements = Scheme::OneMpiLocalAlloc.resolve(machine, 2)?;
    let (profile, lock) = default_stack();
    let mut world = CommWorld::new(machine, placements, profile, lock);
    for _ in 0..reps {
        world.p2p(0, 1, 8.0);
        world.p2p(1, 0, 8.0);
    }
    Ok(world)
}

fn cg_world(machine: &Machine, nranks: usize) -> Result<CommWorld<'_>> {
    // Class A at every fidelity: big enough to be memory-bound, small
    // enough that the traced run stays cheap.
    let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, nranks)?;
    let (profile, lock) = default_stack();
    let mut world = CommWorld::new(machine, placements, profile, lock);
    NasCg { class: CgClass::A }.append_run(&mut world);
    Ok(world)
}

fn rows(fidelity: Fidelity) -> Vec<Row> {
    vec![
        // STREAM (F2/F3). Tiger: one core per socket, nothing shared
        // saturates — each stream rides its own Little's-law cap. DMZ:
        // two cores per socket want 7.3 GB/s of a 4.2 GB/s controller.
        // Longs at >=8 cores: per-socket controllers have headroom but
        // the machine-wide probe fabric is past its ladder capacity.
        Row {
            name: "STREAM triad x2, Tiger",
            machine: |s| &s.tiger,
            expected: Expected::Exactly("flow-cap"),
            build: Box::new(move |m| stream_world(m, 2, fidelity)),
        },
        Row {
            name: "STREAM triad x4, DMZ",
            machine: |s| &s.dmz,
            expected: Expected::Prefixed("mc:"),
            build: Box::new(move |m| stream_world(m, 4, fidelity)),
        },
        Row {
            name: "STREAM triad x8, Longs",
            machine: |s| &s.longs,
            expected: Expected::Exactly("coherence-probe"),
            build: Box::new(move |m| stream_world(m, 8, fidelity)),
        },
        Row {
            name: "STREAM triad x16, Longs",
            machine: |s| &s.longs,
            expected: Expected::Exactly("coherence-probe"),
            build: Box::new(move |m| stream_world(m, 16, fidelity)),
        },
        // IMB PingPong at 8 B (F14): the payload drains in nanoseconds;
        // setup gaps and lock delays — software overhead — dominate on
        // every system.
        Row {
            name: "PingPong 8 B, Tiger",
            machine: |s| &s.tiger,
            expected: Expected::Exactly("mpi-overhead"),
            build: Box::new(move |m| pingpong_world(m, fidelity)),
        },
        Row {
            name: "PingPong 8 B, DMZ",
            machine: |s| &s.dmz,
            expected: Expected::Exactly("mpi-overhead"),
            build: Box::new(move |m| pingpong_world(m, fidelity)),
        },
        Row {
            name: "PingPong 8 B, Longs",
            machine: |s| &s.longs,
            expected: Expected::Exactly("mpi-overhead"),
            build: Box::new(move |m| pingpong_world(m, fidelity)),
        },
        // NAS CG (T2/T3): report-only — the mix shifts with rank count
        // and machine, which is exactly what the ranking shows.
        Row {
            name: "NAS CG-A x2, Tiger",
            machine: |s| &s.tiger,
            expected: Expected::Any,
            build: Box::new(move |m| cg_world(m, 2)),
        },
        Row {
            name: "NAS CG-A x4, DMZ",
            machine: |s| &s.dmz,
            expected: Expected::Any,
            build: Box::new(move |m| cg_world(m, 4)),
        },
        Row {
            name: "NAS CG-A x8, Longs",
            machine: |s| &s.longs,
            expected: Expected::Any,
            build: Box::new(move |m| cg_world(m, 8)),
        },
    ]
}

fn attribution_violation(row: &str, what: impl std::fmt::Display) -> Error {
    Error::InvalidSpec(format!("bottleneck attribution mismatch for '{row}': {what}"))
}

/// Runs one row traced and returns its trace and ranking.
fn traced_ranking(systems: &Systems, row: &Row) -> Result<(RunTrace, Vec<AttributedTime>)> {
    let machine = (row.machine)(systems);
    let world = (row.build)(machine)?;
    let observed = world.observe(&FaultPlan::new(), TraceConfig::on());
    observed.result?;
    let trace = observed
        .trace
        .ok_or_else(|| Error::InvalidSpec("traced run produced no trace".to_string()))?;
    let ranking = trace.bottleneck_ranking();
    if ranking.is_empty() {
        return Err(attribution_violation(row.name, "empty bottleneck ranking"));
    }
    Ok((trace, ranking))
}

/// Extra X4: the bottleneck-attribution table.
///
/// # Errors
///
/// Propagates engine errors, and returns [`Error::InvalidSpec`] when a
/// workload's top-ranked bottleneck contradicts the paper's narrative
/// (that is the point: the artifact doubles as an attribution check).
pub fn extra4(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let mut table = Table::with_columns(
        "Extra X4: time-resolved bottleneck attribution (share of attributed+overhead time)",
        &["Workload", "Top bottleneck", "Share", "Runner-up", "Saturated frac", "Makespan (s)"],
    );
    for row in rows(fidelity) {
        let (trace, ranking) = traced_ranking(&systems, &row)?;
        let top = &ranking[0];
        if !row.expected.matches(&top.label) {
            return Err(attribution_violation(
                row.name,
                format!(
                    "expected {} on top, measured '{}' ({:.1}% of attributed time)",
                    row.expected.describe(),
                    top.label,
                    100.0 * share(top, &ranking),
                ),
            ));
        }
        let runner_up = ranking.get(1).map_or_else(|| "—".to_string(), |a| a.label.clone());
        // Saturation fraction of the top bottleneck when it is a shared
        // resource; dashes for flow caps and software overhead.
        let saturated = trace
            .resource_timelines()
            .into_iter()
            .find(|tl| tl.name == top.label)
            .map(|tl| tl.saturation_fraction());
        table.push_row(
            row.name,
            vec![
                Cell::text(top.label.clone()),
                Cell::num_with(share(top, &ranking), 3),
                Cell::text(runner_up),
                saturated.map_or(Cell::Dash, |f| Cell::num_with(f, 3)),
                Cell::num_with(trace.end_time, 4),
            ],
        );
    }
    Ok(vec![table])
}

/// One bucket's share of all attributed + overhead seconds.
fn share(bucket: &AttributedTime, ranking: &[AttributedTime]) -> f64 {
    let total: f64 = ranking.iter().map(|a| a.seconds).sum();
    if total > 0.0 {
        bucket.seconds / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra4_matches_the_papers_narrative() {
        // extra4 fails with InvalidSpec on any attribution mismatch, so
        // a clean return *is* the assertion; spot-check the table shape.
        let tables = extra4(Fidelity::Quick).unwrap();
        let t = &tables[0];
        assert_eq!(t.num_rows(), 10);
        let top = |row: &str| {
            t.rows()
                .find(|(label, _)| *label == row)
                .map(|(_, cells)| match &cells[0] {
                    Cell::Text(s) => s.clone(),
                    other => panic!("unexpected cell {other:?}"),
                })
                .unwrap()
        };
        assert_eq!(top("STREAM triad x8, Longs"), "coherence-probe");
        assert_eq!(top("STREAM triad x16, Longs"), "coherence-probe");
        assert!(top("STREAM triad x4, DMZ").starts_with("mc:"));
        assert_eq!(top("STREAM triad x2, Tiger"), "flow-cap");
        assert_eq!(top("PingPong 8 B, DMZ"), "mpi-overhead");
    }
}
