//! quick-sweep: every artifact at quick fidelity through one cold
//! in-memory scheduler, fanned out over the same worker count as
//! `repro --quick --jobs 2`.

use crate::reference::Reference;
use crate::stats::fnv1a;
use crate::trace::Tracer;
use corescope_harness::{Artifact, Fidelity, Table};
use corescope_sched::{executor, SchedStats, Scheduler};
use std::time::Instant;

/// One artifact's run inside a sweep.
#[derive(Debug, Clone)]
pub struct ArtifactRun {
    /// Artifact id.
    pub id: &'static str,
    /// Time from the start of the sweep, when every artifact was
    /// requested, to its tables: the artifact's time-to-result.
    pub done_s: f64,
    /// Its tables as title lines plus CSV; `None` when the artifact failed.
    pub csv: Option<String>,
}

/// One full sweep.
#[derive(Debug)]
pub struct Sweep {
    /// Wall time of the whole sweep.
    pub seconds: f64,
    /// Per-artifact outcomes, in catalogue order.
    pub artifacts: Vec<ArtifactRun>,
    /// Scheduler counters after the sweep.
    pub stats: SchedStats,
}

/// The argument that makes `perfbench` run one sweep and print its
/// [`ChildSweep`].
pub const CHILD_ARG: &str = "sweep-once";

/// One cold sweep run in a process of its own, as `repro --quick` runs,
/// so its peak RSS is its own.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildSweep {
    /// Set-up times (cold scheduler), s.
    pub setup_s: Vec<f64>,
    /// Wall time of the sweep, s.
    pub seconds: f64,
    /// Peak RSS of the child process, MB.
    pub rss_mb: f64,
    /// Per artifact: id, time-to-result (s), whether its output matched.
    pub artifacts: Vec<(String, f64, bool)>,
    /// Whether the concatenated output matched.
    pub sweep_ok: bool,
}

impl ChildSweep {
    /// The line format the child prints.
    pub fn render(&self) -> String {
        let mut out: String = self.setup_s.iter().map(|s| format!("setup {s:?}\n")).collect();
        for (id, done_s, ok) in &self.artifacts {
            out.push_str(&format!("artifact {id} {done_s:?} {ok}\n"));
        }
        out.push_str(&format!("sweep {:?} {:?} {}\n", self.seconds, self.rss_mb, self.sweep_ok));
        out
    }

    /// Parses [`ChildSweep::render`] output.
    ///
    /// # Errors
    ///
    /// Names the first malformed line, or a missing `sweep` line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut setup_s = Vec::new();
        let mut artifacts = Vec::new();
        for line in text.lines() {
            let bad = || format!("malformed child line '{line}'");
            let f = |s: Option<&str>| s.and_then(|s| s.parse::<f64>().ok()).ok_or_else(bad);
            let b = |s: Option<&str>| s.and_then(|s| s.parse::<bool>().ok()).ok_or_else(bad);
            let mut words = line.split(' ');
            match words.next() {
                Some("setup") => setup_s.push(f(words.next())?),
                Some("artifact") => {
                    let id = words.next().ok_or_else(bad)?.to_string();
                    artifacts.push((id, f(words.next())?, b(words.next())?));
                }
                Some("sweep") => {
                    let (seconds, rss_mb) = (f(words.next())?, f(words.next())?);
                    let sweep_ok = b(words.next())?;
                    return Ok(Self { setup_s, seconds, rss_mb, artifacts, sweep_ok });
                }
                _ => return Err(bad()),
            }
        }
        Err("child printed no sweep line".to_string())
    }

    /// Runs `perfbench sweep-once` and waits for it.
    ///
    /// # Errors
    ///
    /// A failed spawn, a non-zero exit or unparseable output.
    pub fn run() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = std::process::Command::new(exe)
            .arg(CHILD_ARG)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("sweep child: {e}"))?;
        if !out.status.success() {
            return Err(format!("sweep child exited with {}", out.status));
        }
        Self::parse(&String::from_utf8_lossy(&out.stdout))
    }
}

/// Every table of an artifact, rendered the way the check digests it.
fn tables_text(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("{}\n{}", t.title, t.to_csv())).collect()
}

/// Runs the sweep on `sched` (created cold by the caller as set-up).
pub fn sweep(sched: &Scheduler, tracer: &Tracer, parent: Option<u64>) -> Sweep {
    let started = Instant::now();
    let artifacts = executor::run_ordered(sched.jobs(), Artifact::all(), |&artifact| {
        let tables = tracer.span("artifact", parent, artifact.id(), |_| {
            artifact.run_on(Fidelity::Quick, sched, None)
        });
        let done_s = started.elapsed().as_secs_f64();
        if let Err(e) = &tables {
            eprintln!("perfbench: artifact {} failed: {e}", artifact.id());
        }
        let csv = tables.ok().map(|t| tables_text(&t));
        ArtifactRun { id: artifact.id(), done_s, csv }
    });
    Sweep { seconds: started.elapsed().as_secs_f64(), artifacts, stats: sched.stats() }
}

/// The ids of artifacts whose output differs from the reference (or
/// failed), plus `"sweep"` when the concatenated digest differs.
pub fn check(sweep: &Sweep, reference: &Reference) -> Vec<&'static str> {
    let mut bad: Vec<&'static str> = sweep
        .artifacts
        .iter()
        .filter(|a| a.csv.as_deref().map(|csv| fnv1a(csv.as_bytes())) != reference.artifact(a.id))
        .map(|a| a.id)
        .collect();
    if sweep_digest(sweep) != Some(reference.sweep_digest) {
        bad.push("sweep");
    }
    bad
}

/// Digest of every artifact's tables in catalogue order (`None` if any
/// artifact failed).
pub fn sweep_digest(sweep: &Sweep) -> Option<u64> {
    let all: Option<String> = sweep.artifacts.iter().map(|a| a.csv.as_deref()).collect();
    all.map(|text| fnv1a(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_sweep() -> Sweep {
        let artifacts = [("t1", "a,b\n1,2\n"), ("t5", "x\n")]
            .into_iter()
            .map(|(id, csv)| ArtifactRun { id, done_s: 0.1, csv: Some(csv.to_string()) })
            .collect();
        Sweep { seconds: 0.2, artifacts, stats: SchedStats::default() }
    }

    fn reference_for(sweep: &Sweep) -> Reference {
        Reference {
            sweep_digest: sweep_digest(sweep).unwrap(),
            artifacts: sweep
                .artifacts
                .iter()
                .map(|a| (a.id.to_string(), fnv1a(a.csv.as_deref().unwrap().as_bytes())))
                .collect(),
            steady: Vec::new(),
        }
    }

    #[test]
    fn child_reports_round_trip() {
        let child = ChildSweep {
            setup_s: vec![1.5e-5, 2e-5],
            seconds: 5.25,
            rss_mb: 190.125,
            artifacts: vec![("t1".to_string(), 0.001, true), ("f11".to_string(), 4.5, false)],
            sweep_ok: false,
        };
        assert_eq!(ChildSweep::parse(&child.render()), Ok(child));
        assert!(ChildSweep::parse("setup 1.0\n").is_err());
        assert!(ChildSweep::parse("artifact t1 x true\n").is_err());
    }

    #[test]
    fn matching_output_passes() {
        let sweep = fake_sweep();
        assert!(check(&sweep, &reference_for(&sweep)).is_empty());
    }

    #[test]
    fn a_corrupted_reference_digest_fails_the_check() {
        let sweep = fake_sweep();
        let mut reference = reference_for(&sweep);
        reference.artifacts[1].1 ^= 1;
        assert_eq!(check(&sweep, &reference), vec!["t5"]);
        let mut reference = reference_for(&sweep);
        reference.sweep_digest ^= 1;
        assert_eq!(check(&sweep, &reference), vec!["sweep"]);
    }

    #[test]
    fn a_failed_artifact_fails_the_check() {
        let mut sweep = fake_sweep();
        let reference = reference_for(&sweep);
        sweep.artifacts[0].csv = None;
        assert_eq!(check(&sweep, &reference), vec!["t1", "sweep"]);
    }
}
