//! Trace export: representative traced runs per artifact, Chrome-trace
//! JSON, and utilization CSV.
//!
//! `repro --trace <dir>` calls [`representative_trace`] for each
//! requested artifact, then writes [`chrome_trace_json`] (loadable in
//! `chrome://tracing` or Perfetto) and [`utilization_csv`] (one row per
//! solver interval, one column per shared resource). The JSON is
//! hand-rolled — the repo vendors no serde — and kept to the small
//! subset of the trace-event format the viewers need: `"X"` complete
//! events for op spans, `"C"` counters for per-resource utilization,
//! `"i"` instants for fault stamps, and `"M"` metadata for names.

use crate::artifacts::Artifact;
use crate::context::{default_stack, lam_profile, Systems};
use corescope_affinity::{os_scatter, policy, Scheme};
use corescope_kernels::cg::{CgClass, NasCg};
use corescope_kernels::stream::{append_star, StreamParams};
use corescope_machine::engine::{Observed, RankPlacement};
use corescope_machine::{
    CheckpointPolicy, Error, FaultPlan, Machine, RankId, Result, RunTrace, TraceConfig,
};
use corescope_sched::Fidelity;
use corescope_smpi::{CommWorld, LockLayer};
use std::fmt::Write as _;

/// A labelled trace ready for export.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Human-readable description of the traced run.
    pub label: String,
    /// The run's time-resolved trace.
    pub trace: RunTrace,
}

/// lmbench-style placements: spread over sockets first (the paper's
/// core-activation order), memory allocated locally.
pub(crate) fn scatter_local(machine: &Machine, nranks: usize) -> Result<Vec<RankPlacement>> {
    Ok(os_scatter(machine, nranks)?
        .into_iter()
        .map(|core| RankPlacement::new(core, policy::local(machine, core)))
        .collect())
}

/// Produces the traced run that best represents `artifact`: the workload
/// and system whose bottleneck the artifact is about. Returns `Ok(None)`
/// for artifacts with no obvious single representative (static tables,
/// broad sweeps).
///
/// # Errors
///
/// Propagates engine errors from the traced run.
pub fn representative_trace(artifact: Artifact, fidelity: Fidelity) -> Result<Option<TraceBundle>> {
    use Artifact::*;
    let systems = Systems::new();
    let bundle = match artifact {
        // STREAM bandwidth artifacts: the probe-fabric-bound 16-core
        // Longs configuration is the paper's headline observation.
        F2 | F3 | F10 | X4 => Some(traced_stream(&systems.longs, "longs", 16, fidelity)?),
        // IMB artifacts: a small-message cross-socket PingPong on DMZ.
        F14 | F15 | F16 | F17 => Some(traced_pingpong(&systems.dmz, "dmz", fidelity)?),
        // NAS CG tables.
        T2 => Some(traced_cg(&systems.longs, "longs", 8)?),
        T3 => Some(traced_cg(&systems.dmz, "dmz", 4)?),
        // The resilience campaign: a brownout run whose fault stamps
        // land in the trace as instant events.
        X3 => Some(traced_faulted_stream(&systems.dmz, "dmz", fidelity)?),
        // The recovery campaign: a checkpointed run surviving a rank
        // kill, rollback and downtime stamped into the trace.
        X5 => Some(traced_recovered_stream(&systems.dmz, "dmz", fidelity)?),
        _ => None,
    };
    Ok(bundle)
}

/// Unwraps a traced observation, propagating run errors.
fn finish(label: String, observed: Observed) -> Result<TraceBundle> {
    observed.result?;
    let trace = observed
        .trace
        .ok_or_else(|| Error::InvalidSpec("traced run produced no trace".to_string()))?;
    Ok(TraceBundle { label, trace })
}

fn traced_stream(
    machine: &Machine,
    system: &str,
    nranks: usize,
    fidelity: Fidelity,
) -> Result<TraceBundle> {
    let params = StreamParams { sweeps: fidelity.steps(10).max(2), ..StreamParams::default() };
    let mut world =
        CommWorld::new(machine, scatter_local(machine, nranks)?, lam_profile(), LockLayer::USysV);
    append_star(&mut world, &params);
    let observed = world.observe(&FaultPlan::new(), TraceConfig::on());
    finish(format!("STREAM triad x{nranks}, {system}"), observed)
}

fn traced_pingpong(machine: &Machine, system: &str, fidelity: Fidelity) -> Result<TraceBundle> {
    let reps = fidelity.steps(20).max(4);
    let placements = Scheme::OneMpiLocalAlloc.resolve(machine, 2)?;
    let (profile, lock) = default_stack();
    let mut world = CommWorld::new(machine, placements, profile, lock);
    for _ in 0..reps {
        world.p2p(0, 1, 1024.0);
        world.p2p(1, 0, 1024.0);
    }
    let observed = world.observe(&FaultPlan::new(), TraceConfig::on());
    finish(format!("IMB PingPong 1 KiB x{reps}, {system} cross-socket"), observed)
}

fn traced_cg(machine: &Machine, system: &str, nranks: usize) -> Result<TraceBundle> {
    // Class A regardless of fidelity: class B's trace would be tens of
    // megabytes and adds nothing to the bottleneck picture.
    let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, nranks)?;
    let (profile, lock) = default_stack();
    let mut world = CommWorld::new(machine, placements, profile, lock);
    NasCg { class: CgClass::A }.append_run(&mut world);
    let observed = world.observe(&FaultPlan::new(), TraceConfig::on());
    finish(format!("NAS CG class A x{nranks}, {system}"), observed)
}

fn traced_faulted_stream(
    machine: &Machine,
    system: &str,
    fidelity: Fidelity,
) -> Result<TraceBundle> {
    let params = StreamParams { sweeps: fidelity.steps(10).max(2), ..StreamParams::default() };
    let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, 4)?;
    let (profile, lock) = default_stack();
    let mut world = CommWorld::new(machine, placements, profile, lock);
    append_star(&mut world, &params);
    let healthy = world.run()?.makespan;
    // Controllers at half capacity over the middle quarter, then
    // restored — the X3 brownout, stamped into the trace.
    let plan = machine
        .sockets()
        .fold(FaultPlan::new(), |p, s| p.controller_throttle(healthy * 0.25, s, 0.5));
    let plan = machine.sockets().fold(plan, |p, s| p.controller_restore(healthy * 0.5, s));
    let observed = world.observe(&plan, TraceConfig::on());
    finish(format!("STREAM triad x4 + controller brownout, {system}"), observed)
}

fn traced_recovered_stream(
    machine: &Machine,
    system: &str,
    fidelity: Fidelity,
) -> Result<TraceBundle> {
    let params = StreamParams { sweeps: fidelity.steps(10).max(2), ..StreamParams::default() };
    let placements = Scheme::TwoMpiLocalAlloc.resolve(machine, 4)?;
    let (profile, lock) = default_stack();
    let mut world = CommWorld::new(machine, placements, profile, lock);
    append_star(&mut world, &params);
    let healthy = world.run()?.makespan;
    // Checkpoint a few times over the run, kill rank 1 past the halfway
    // mark, and let the rollback (plus visible restart downtime) land in
    // the trace as a recovery stamp and a zero-utilization gap.
    let world = world.with_recovery(
        CheckpointPolicy::new(healthy / 4.0, 1e7).with_restart_delay(healthy / 50.0),
    );
    let plan = FaultPlan::new().rank_kill(healthy * 0.6, RankId::new(1));
    let observed = world.observe(&plan, TraceConfig::on());
    finish(format!("STREAM triad x4 + rank kill & rollback, {system}"), observed)
}

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON number (JSON has no NaN/inf: those become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Seconds to the trace-event format's microsecond timestamps.
fn us(seconds: f64) -> String {
    num(seconds * 1e6)
}

/// Renders a trace as Chrome-trace/Perfetto JSON.
///
/// Ranks appear as threads of process 0 with one `"X"` event per op
/// span (the span's dominant bottleneck in `args`); per-resource
/// utilization appears as one `"C"` counter series per resource under
/// process 1; fault stamps are `"i"` instant events.
#[must_use]
pub fn chrome_trace_json(label: &str, trace: &RunTrace) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"ranks\"}}"
            .to_string(),
    );
    events.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"resources\"}}"
            .to_string(),
    );
    for rank in 0..trace.num_ranks {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"ts\":0,\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
    }
    for span in &trace.spans {
        let bottleneck = span
            .dominant_bottleneck()
            .map_or_else(|| "none".to_string(), |b| esc(trace.bottleneck_label(b)));
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"bottleneck\":\"{}\"}}}}",
            span.rank,
            esc(span.label),
            span.kind.name(),
            us(span.t0),
            us(span.duration()),
            bottleneck,
        ));
    }
    for interval in &trace.intervals {
        let mut args = String::new();
        for (r, u) in interval.utilization.iter().enumerate() {
            if r > 0 {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":{}", esc(&trace.resource_names[r]), num(*u));
        }
        events.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"utilization\",\"ts\":{},\
             \"args\":{{{args}}}}}",
            us(interval.t0),
        ));
    }
    for stamp in &trace.faults {
        events.push(format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"s\":\"g\",\"name\":\"{}\",\"ts\":{}}}",
            esc(&format!("{:?}", stamp.kind)),
            us(stamp.fired),
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"label\":\"{}\",\"end_time_s\":{}}},\
         \"traceEvents\":[\n{}\n]}}\n",
        esc(label),
        num(trace.end_time),
        events.join(",\n"),
    )
}

/// Renders the solver-interval utilization table as CSV: `t0,t1` in
/// seconds, then one column per shared resource.
#[must_use]
pub fn utilization_csv(trace: &RunTrace) -> String {
    let mut out = String::from("t0,t1");
    for name in &trace.resource_names {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    for interval in &trace.intervals {
        let _ = write!(out, "{},{}", interval.t0, interval.t1);
        for u in &interval.utilization {
            let _ = write!(out, ",{u}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_artifacts_have_a_representative_trace() {
        let bundle = representative_trace(Artifact::F2, Fidelity::Quick).unwrap().unwrap();
        assert!(bundle.label.contains("STREAM"));
        assert!(!bundle.trace.intervals.is_empty());
        assert!(!bundle.trace.spans.is_empty());
        // The 16-core Longs STREAM is probe-fabric-bound.
        let ranking = bundle.trace.bottleneck_ranking();
        assert_eq!(ranking[0].label, "coherence-probe", "{ranking:?}");
    }

    #[test]
    fn static_tables_have_no_representative_trace() {
        assert!(representative_trace(Artifact::T1, Fidelity::Quick).unwrap().is_none());
    }

    #[test]
    fn x3_trace_carries_fault_stamps() {
        let bundle = representative_trace(Artifact::X3, Fidelity::Quick).unwrap().unwrap();
        // 2 throttles + 2 restores on the two dmz sockets.
        assert_eq!(bundle.trace.faults.len(), 4);
        let json = chrome_trace_json(&bundle.label, &bundle.trace);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 4);
    }

    #[test]
    fn x5_trace_carries_a_recovery_stamp() {
        let bundle = representative_trace(Artifact::X5, Fidelity::Quick).unwrap().unwrap();
        assert_eq!(bundle.trace.faults.len(), 1, "one kill stamped");
        assert_eq!(bundle.trace.recoveries.len(), 1, "one rollback stamped");
        let stamp = &bundle.trace.recoveries[0];
        assert!(stamp.restored_to <= stamp.killed_at && stamp.killed_at < stamp.resumed_at);
        assert!(stamp.resumed_at <= bundle.trace.end_time);
    }

    #[test]
    fn chrome_trace_json_has_the_expected_shape() {
        let bundle = representative_trace(Artifact::F14, Fidelity::Quick).unwrap().unwrap();
        let json = chrome_trace_json(&bundle.label, &bundle.trace);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"bottleneck\""));
        // Balanced braces (string-aware balance is checked by the bench
        // validator; the export contains no braces inside strings).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn utilization_csv_is_rectangular() {
        let bundle = representative_trace(Artifact::F14, Fidelity::Quick).unwrap().unwrap();
        let csv = utilization_csv(&bundle.trace);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let width = header.split(',').count();
        assert_eq!(width, 2 + bundle.trace.resource_names.len());
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), width, "ragged row: {line}");
            rows += 1;
        }
        assert_eq!(rows, bundle.trace.intervals.len());
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        assert_eq!(num(f64::NAN), "0");
    }
}
