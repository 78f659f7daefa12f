//! Intel MPI Benchmark (IMB) style measurement helpers.
//!
//! The paper's Figures 14–17 report PingPong and Exchange latency and
//! bandwidth across message sizes, MPI implementations, and binding
//! configurations. These helpers build the benchmark programs, run them
//! on the engine, and reduce makespans to the IMB metrics.

use crate::comm::CommWorld;
use crate::profiles::{LockLayer, MpiProfile};
use corescope_machine::engine::RankPlacement;
use corescope_machine::{Machine, Result};

/// The message sizes IMB sweeps (powers of two from 1 B to 4 MiB).
pub fn imb_message_sizes() -> Vec<f64> {
    (0..=22).map(|i| (1u64 << i) as f64).collect()
}

/// PingPong time per half round trip (the IMB "t" column), in seconds.
///
/// Ranks 0 and 1 of `placements` bounce one message of `bytes` back and
/// forth `reps` times; any further placements are parked processes that
/// sit idle (the paper's "2 procs, unbound, 2 parked" configuration).
///
/// # Errors
///
/// Propagates engine errors; fails if fewer than two placements are given.
pub fn pingpong_time(
    machine: &Machine,
    placements: &[RankPlacement],
    profile: &MpiProfile,
    lock: LockLayer,
    bytes: f64,
    reps: usize,
) -> Result<f64> {
    if placements.len() < 2 {
        return Err(corescope_machine::Error::InvalidSpec(
            "pingpong needs at least two ranks".into(),
        ));
    }
    let mut world = CommWorld::new(machine, placements.to_vec(), profile.clone(), lock);
    world.repeat(reps as u64, |w| {
        w.p2p(0, 1, bytes);
        w.p2p(1, 0, bytes);
    });
    let report = world.run()?;
    Ok(report.makespan / (2.0 * reps as f64))
}

/// PingPong bandwidth in bytes/s for one message size.
///
/// # Errors
///
/// Propagates [`pingpong_time`] errors.
pub fn pingpong_bandwidth(
    machine: &Machine,
    placements: &[RankPlacement],
    profile: &MpiProfile,
    lock: LockLayer,
    bytes: f64,
    reps: usize,
) -> Result<f64> {
    let t = pingpong_time(machine, placements, profile, lock, bytes, reps)?;
    Ok(bytes / t)
}

/// Exchange time per iteration, in seconds, over the first `active`
/// ranks of `placements` (IMB runs the chain over the whole communicator;
/// extra placements are parked).
///
/// # Errors
///
/// Propagates engine errors; fails for fewer than two active ranks.
pub fn exchange_time(
    machine: &Machine,
    placements: &[RankPlacement],
    profile: &MpiProfile,
    lock: LockLayer,
    active: usize,
    bytes: f64,
    reps: usize,
) -> Result<f64> {
    if active < 2 || active > placements.len() {
        return Err(corescope_machine::Error::InvalidSpec(format!(
            "exchange needs 2..={} active ranks, got {active}",
            placements.len()
        )));
    }
    // Build the world over only the active ranks, then pad with parked
    // placements so the machine sees the same occupancy.
    let mut world = CommWorld::new(machine, placements[..active].to_vec(), profile.clone(), lock);
    world.repeat(reps as u64, |w| {
        w.exchange_step(bytes);
    });
    // Parked ranks: placements occupy cores but run no program. Rebuild
    // with full placement set and the same programs padded with empties.
    let mut programs = world.programs().to_vec();
    programs.resize(placements.len(), corescope_machine::Program::new());
    let engine = corescope_machine::Engine::new(machine);
    let report = engine.run(placements, &programs)?;
    Ok(report.makespan / reps as f64)
}

/// IMB Exchange bandwidth: each rank moves 4 × `bytes` per iteration.
///
/// # Errors
///
/// Propagates [`exchange_time`] errors.
pub fn exchange_bandwidth(
    machine: &Machine,
    placements: &[RankPlacement],
    profile: &MpiProfile,
    lock: LockLayer,
    active: usize,
    bytes: f64,
    reps: usize,
) -> Result<f64> {
    let t = exchange_time(machine, placements, profile, lock, active, bytes, reps)?;
    Ok(4.0 * bytes / t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::MpiImpl;
    use corescope_affinity::Scheme;
    use corescope_machine::systems;

    fn dmz() -> Machine {
        Machine::new(systems::dmz())
    }

    #[test]
    fn sizes_span_1b_to_4mib() {
        let s = imb_message_sizes();
        assert_eq!(s[0], 1.0);
        assert_eq!(*s.last().unwrap(), 4.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn pingpong_latency_is_microseconds_for_small_messages() {
        let m = dmz();
        let p = Scheme::OneMpiLocalAlloc.resolve(&m, 2).unwrap();
        let prof = MpiImpl::Lam.profile();
        let t = pingpong_time(&m, &p, &prof, LockLayer::USysV, 1.0, 20).unwrap();
        assert!(t > 0.5e-6 && t < 5e-6, "t = {:.2} us", t * 1e6);
    }

    #[test]
    fn pingpong_bandwidth_approaches_copy_bw_for_large_messages() {
        let m = dmz();
        let p = Scheme::OneMpiLocalAlloc.resolve(&m, 2).unwrap();
        let prof = MpiImpl::Mpich2.profile();
        let bw = pingpong_bandwidth(&m, &p, &prof, LockLayer::USysV, 4e6, 3).unwrap();
        assert!(bw > 0.75 * prof.copy_bw && bw <= prof.copy_bw * 1.01, "bw = {bw:.3e}");
    }

    #[test]
    fn same_socket_pingpong_beats_cross_socket() {
        let m = dmz();
        let prof = MpiImpl::OpenMpi.profile();
        // Bound to one socket (cores 0, 1) vs. spread across sockets.
        let near = Scheme::TwoMpiLocalAlloc.resolve(&m, 2).unwrap();
        let far = Scheme::OneMpiLocalAlloc.resolve(&m, 2).unwrap();
        let bw_near = pingpong_bandwidth(&m, &near, &prof, LockLayer::USysV, 1e6, 3).unwrap();
        let bw_far = pingpong_bandwidth(&m, &far, &prof, LockLayer::USysV, 1e6, 3).unwrap();
        let gain = bw_near / bw_far;
        assert!(
            gain > 1.05 && gain < 1.2,
            "paper reports ~10-13% intra-socket benefit, got {gain:.3}"
        );
    }

    #[test]
    fn pingpong_time_is_independent_of_reps() {
        // The 2×reps p2p ops are strictly dependent — no pipelining may
        // shorten later round trips. Guard the per-half-round-trip time
        // against engine dependency-handling changes.
        let m = dmz();
        let p = Scheme::OneMpiLocalAlloc.resolve(&m, 2).unwrap();
        let prof = MpiImpl::Mpich2.profile();
        let reference = pingpong_time(&m, &p, &prof, LockLayer::USysV, 1024.0, 1).unwrap();
        for reps in [2, 7, 40] {
            let t = pingpong_time(&m, &p, &prof, LockLayer::USysV, 1024.0, reps).unwrap();
            assert!(
                (t - reference).abs() <= reference * 1e-6,
                "reps={reps}: {t:e} vs reference {reference:e}"
            );
        }
    }

    #[test]
    fn exchange_time_scales_with_message_size() {
        let m = dmz();
        let p = Scheme::Default.resolve(&m, 2).unwrap();
        let prof = MpiImpl::OpenMpi.profile();
        let t_small = exchange_time(&m, &p, &prof, LockLayer::USysV, 2, 64.0, 5).unwrap();
        let t_large = exchange_time(&m, &p, &prof, LockLayer::USysV, 2, 1e6, 5).unwrap();
        assert!(t_large > 5.0 * t_small);
    }

    #[test]
    fn parked_processes_do_not_crash() {
        let m = dmz();
        let p = Scheme::Default.resolve(&m, 4).unwrap();
        let prof = MpiImpl::OpenMpi.profile();
        let t = exchange_time(&m, &p, &prof, LockLayer::USysV, 2, 1024.0, 5).unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn rejects_single_rank() {
        let m = dmz();
        let p = Scheme::Default.resolve(&m, 1).unwrap();
        let prof = MpiImpl::OpenMpi.profile();
        assert!(pingpong_time(&m, &p, &prof, LockLayer::USysV, 8.0, 1).is_err());
        assert!(exchange_time(&m, &p, &prof, LockLayer::USysV, 1, 8.0, 1).is_err());
    }
}
