//! The frozen reference max-min solver: the progressive-filling solver
//! exactly as it was before the reusable workspace replaced it. Tests
//! compare the workspace solver against it bit for bit, so it must not
//! change.

use super::{Bottleneck, FlowSpec, ResourceIndex, ResourceTable, REL_EPS};
use crate::error::{Error, Result};

/// Solves max-min fair rates, recording attribution when asked; the
/// oracle for [`super::solve_maxmin`] and
/// [`super::solve_maxmin_attributed`].
pub(crate) fn solve_inner(
    table: &ResourceTable,
    flows: &[FlowSpec],
    mut attribution: Option<&mut Vec<Bottleneck>>,
) -> Result<Vec<f64>> {
    let caps = table.capacities().to_vec();
    for (i, f) in flows.iter().enumerate() {
        if !f.cap.is_finite() || f.cap < 0.0 {
            return Err(Error::InvalidSpec(format!("flow {i} has invalid cap {}", f.cap)));
        }
        for &r in &f.route {
            if r >= caps.len() {
                return Err(Error::InvalidSpec(format!(
                    "flow {i} references resource {r} outside table of {}",
                    caps.len()
                )));
            }
        }
    }

    let n = flows.len();
    let mut rates = vec![0.0; n];
    if n == 0 {
        return Ok(rates);
    }

    let mut fixed = vec![false; n];
    let mut remaining = caps.clone();
    // Count of unfixed flows using each resource. A flow listing the same
    // resource twice consumes it twice (e.g. a hairpin route) — count
    // multiplicity.
    let mut usage = vec![0usize; caps.len()];
    for f in flows {
        for &r in &f.route {
            usage[r] += 1;
        }
    }

    let mut unfixed = n;
    // Immediately freeze exactly-zero-cap flows. Tiny-but-positive caps
    // are real rate limits and must survive to the filling loop — an
    // absolute epsilon here silently zero-rated a 1 B/s flow whenever a
    // GB/s resource shared the table.
    for (i, f) in flows.iter().enumerate() {
        if f.cap <= 0.0 {
            fixed[i] = true;
            unfixed -= 1;
            for &r in &f.route {
                usage[r] -= 1;
            }
        }
    }

    while unfixed > 0 {
        // Smallest headroom: either a resource's fair increment or a
        // flow's distance to its own cap.
        let mut inc = f64::INFINITY;
        for (r, &rem) in remaining.iter().enumerate() {
            if usage[r] > 0 {
                inc = inc.min(rem.max(0.0) / usage[r] as f64);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !fixed[i] {
                inc = inc.min(f.cap - rates[i]);
            }
        }
        debug_assert!(inc.is_finite(), "at least one limit must apply");
        let inc = inc.max(0.0);

        // Ramp all unfixed flows by `inc`.
        for (i, f) in flows.iter().enumerate() {
            if !fixed[i] {
                rates[i] += inc;
                for &r in &f.route {
                    remaining[r] -= inc;
                }
            }
        }

        // Freeze flows at their cap or on a saturated resource. Slack is
        // relative to the cap being compared against (zero-capacity
        // resources still satisfy `0 <= 0`).
        let mut froze_any = false;
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            let at_cap = f.cap - rates[i] <= f.cap * REL_EPS;
            // When both limits bind in the same round, attribute the
            // freeze to a saturated shared resource — contention is the
            // informative cause — and among saturated route resources
            // pick the most contended one (highest unfixed-flow count).
            let mut saturated: Option<ResourceIndex> = None;
            for &r in &f.route {
                if remaining[r] <= caps[r] * REL_EPS {
                    let more_contended = saturated.is_none_or(|s| usage[r] > usage[s]);
                    if more_contended {
                        saturated = Some(r);
                    }
                }
            }
            if at_cap || saturated.is_some() {
                fixed[i] = true;
                unfixed -= 1;
                froze_any = true;
                for &r in &f.route {
                    usage[r] -= 1;
                }
                if let Some(attr) = attribution.as_deref_mut() {
                    attr[i] = match saturated {
                        Some(r) => Bottleneck::Resource(r),
                        None => Bottleneck::FlowCap,
                    };
                }
            }
        }
        debug_assert!(froze_any, "progressive filling must freeze at least one flow");
        if !froze_any {
            // Defensive: avoid an infinite loop under pathological
            // floating-point behaviour by freezing everything.
            for (i, f) in flows.iter().enumerate() {
                if !fixed[i] {
                    fixed[i] = true;
                    unfixed -= 1;
                    for &r in &f.route {
                        usage[r] -= 1;
                    }
                }
            }
        }
    }
    Ok(rates)
}
