//! Extra artifact X1: the hybrid programming model the paper proposes.
//!
//! Section 3.4 concludes: "A programming model using OpenMP only within
//! each multi-core processor, and MPI for communication both between
//! processor sockets and between system nodes might be a high-performance
//! alternative". The paper never measures it — this artifact does, on the
//! simulated Longs system, for NAS CG and FT at 16 cores.

use crate::context::default_stack;
use crate::report::{Cell, Table};
use corescope_affinity::Scheme;
use corescope_kernels::cg::{CgClass, NasCg};
use corescope_kernels::nasft::{FtClass, NasFt};
use corescope_machine::{systems, Machine, Result};
use corescope_sched::Fidelity;
use corescope_smpi::CommWorld;

/// Compares pure MPI (16 ranks) against hybrid (8 processes × 2 threads)
/// for NAS CG and FT on Longs.
///
/// # Errors
///
/// Propagates engine errors.
pub fn extra1(fidelity: Fidelity) -> Result<Vec<Table>> {
    let machine = Machine::new(systems::longs());
    let (profile, lock) = default_stack();
    let cg = match fidelity {
        Fidelity::Full => CgClass::B,
        Fidelity::Quick => CgClass::A,
    };
    let ft = match fidelity {
        Fidelity::Full => FtClass::B,
        Fidelity::Quick => FtClass::A,
    };

    let run = |hybrid: bool, kernel: &str| -> Result<f64> {
        let placements = Scheme::TwoMpiLocalAlloc.resolve(&machine, 16)?;
        let mut world = CommWorld::new(&machine, placements, profile.clone(), lock);
        match (kernel, hybrid) {
            ("CG", false) => NasCg { class: cg }.append_run(&mut world),
            ("CG", true) => NasCg { class: cg }.append_run_hybrid(&mut world, 2),
            ("FT", false) => NasFt { class: ft }.append_run(&mut world),
            ("FT", true) => NasFt { class: ft }.append_run_hybrid(&mut world, 2),
            _ => unreachable!("kernel is CG or FT"),
        }
        Ok(world.run()?.makespan)
    };

    let mut table = Table::with_columns(
        "Extra X1: hybrid (OpenMP-in-socket + MPI) vs pure MPI, Longs 16 cores (seconds)",
        &["Kernel", "Pure MPI", "Hybrid 8x2", "Hybrid speedup"],
    );
    for kernel in ["CG", "FT"] {
        let pure = run(false, kernel)?;
        let hybrid = run(true, kernel)?;
        table.push_row(kernel, vec![Cell::num(pure), Cell::num(hybrid), Cell::num(pure / hybrid)]);
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_helps_latency_bound_cg() {
        // Fewer, larger messages among half the endpoints: the paper's
        // hypothesis should hold for the reduction-heavy CG.
        let t = &extra1(Fidelity::Quick).unwrap()[0];
        let gain = t.value("CG", "Hybrid speedup").unwrap();
        assert!(gain > 0.97, "hybrid must at least break even for CG, got {gain:.3}");
        // And never catastrophically hurt FT (same total transpose bytes).
        let ft = t.value("FT", "Hybrid speedup").unwrap();
        assert!(ft > 0.8, "hybrid FT ratio {ft:.3}");
    }
}
