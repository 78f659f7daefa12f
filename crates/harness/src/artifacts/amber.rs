//! AMBER artifacts: Tables 7 (JAC FFT phase), 8 (PME/GB speedups) and 9
//! (JAC overall vs numactl options).

use crate::aggregate::pivot_table;
use crate::context::{default_stack, scheme_sweep, Systems};
use crate::report::Table;
use corescope_affinity::Scheme;
use corescope_apps::md::AmberBenchmark;
use corescope_machine::{Machine, Result};
use corescope_sched::Fidelity;
use corescope_smpi::CommWorld;

fn jac(fidelity: Fidelity) -> AmberBenchmark {
    let mut b = AmberBenchmark::jac();
    b.steps = fidelity.steps(b.steps);
    b
}

fn sized(mut b: AmberBenchmark, fidelity: Fidelity) -> AmberBenchmark {
    b.steps = fidelity.steps(b.steps);
    b
}

/// Table 7: the FFT part of the JAC benchmark vs schemes on Longs + DMZ.
pub fn table7(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let (profile, lock) = default_stack();
    let bench = jac(fidelity);
    let build = |w: &mut CommWorld<'_>, _n: usize| {
        for _ in 0..bench.steps {
            bench.append_pme_fft_part(w);
        }
    };
    let workloads: Vec<(&str, &crate::context::WorkloadFn<'_>)> = vec![("JAC FFT", &build)];
    let longs = scheme_sweep(
        "Table 7: FFT part of the JAC benchmark, Longs (seconds)",
        &systems.longs,
        &[2, 4, 8, 16],
        &workloads,
        &profile,
        lock,
    )?;
    let dmz = scheme_sweep(
        "Table 7 (cont.): FFT part of the JAC benchmark, DMZ (seconds)",
        &systems.dmz,
        &[2, 4],
        &workloads,
        &profile,
        lock,
    )?;
    Ok(vec![longs, dmz])
}

fn speedup_row(
    machine: &Machine,
    bench: &AmberBenchmark,
    counts: &[usize],
) -> Result<Vec<Option<f64>>> {
    let (profile, lock) = default_stack();
    let time = |n: usize| -> Result<f64> {
        let placements = Scheme::Default.resolve(machine, n)?;
        let mut w = CommWorld::new(machine, placements, profile.clone(), lock);
        bench.append_run(&mut w);
        Ok(w.run()?.makespan)
    };
    let t1 = time(1)?;
    let mut values = Vec::new();
    for &n in counts {
        if n > machine.num_cores() {
            values.push(None);
        } else {
            values.push(Some(t1 / time(n)?));
        }
    }
    Ok(values)
}

/// Table 8: AMBER multi-core speedups (no numactl) for all five
/// benchmarks on DMZ and Longs.
pub fn table8(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let benches: Vec<AmberBenchmark> =
        AmberBenchmark::all().into_iter().map(|b| sized(b, fidelity)).collect();
    let mut rows = Vec::new();
    for (sys_name, machine, counts) in
        [("DMZ", &systems.dmz, vec![2usize, 4]), ("Longs", &systems.longs, vec![2, 4, 8, 16])]
    {
        // Collect per-benchmark speedup columns.
        let per_bench: Vec<Vec<Option<f64>>> =
            benches.iter().map(|b| speedup_row(machine, b, &counts)).collect::<Result<_>>()?;
        for (row_idx, &n) in counts.iter().enumerate() {
            let values: Vec<Option<f64>> = per_bench.iter().map(|col| col[row_idx]).collect();
            rows.push((format!("{n} {sys_name}"), values));
        }
    }
    Ok(vec![pivot_table(
        "Table 8: AMBER multi-core speedup (no numactl)",
        &["Cores/system", "dhfr", "factor_ix", "gb_cox2", "gb_mb", "JAC"],
        &rows,
    )])
}

/// Table 9: overall JAC runtime vs schemes on Longs + DMZ.
pub fn table9(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let (profile, lock) = default_stack();
    let bench = jac(fidelity);
    let build = |w: &mut CommWorld<'_>, _n: usize| bench.append_run(w);
    let workloads: Vec<(&str, &crate::context::WorkloadFn<'_>)> = vec![("JAC", &build)];
    let longs = scheme_sweep(
        "Table 9: Overall JAC performance, Longs (seconds)",
        &systems.longs,
        &[2, 4, 8, 16],
        &workloads,
        &profile,
        lock,
    )?;
    let dmz = scheme_sweep(
        "Table 9 (cont.): Overall JAC performance, DMZ (seconds)",
        &systems.dmz,
        &[2, 4],
        &workloads,
        &profile,
        lock,
    )?;
    Ok(vec![longs, dmz])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table8_gb_outscales_pme_at_16() {
        let t = &table8(Fidelity::Quick).unwrap()[0];
        let gb = t.value("16 Longs", "gb_mb").unwrap();
        let pme = t.value("16 Longs", "JAC").unwrap();
        assert!(gb > pme, "GB {gb:.1} must outscale PME {pme:.1} at 16 cores");
        // Near-linear at low counts.
        let jac2 = t.value("2 DMZ", "JAC").unwrap();
        assert!(jac2 > 1.7 && jac2 < 2.1, "2-core JAC speedup {jac2:.2}");
    }

    #[test]
    fn table9_localalloc_is_never_worse_than_membind_at_scale() {
        let t = &table9(Fidelity::Quick).unwrap()[0];
        let la = t.value("8 JAC", "Two MPI + Local Alloc").unwrap();
        let mb = t.value("8 JAC", "Two MPI + Membind").unwrap();
        assert!(mb >= la * 0.99, "membind {mb:.2} vs localalloc {la:.2}");
    }

    #[test]
    fn table7_fft_part_shrinks_with_ranks() {
        let tables = table7(Fidelity::Quick).unwrap();
        let longs = &tables[0];
        let t2 = longs.value("2 JAC FFT", "Default").unwrap();
        let t16 = longs.value("16 JAC FFT", "Default").unwrap();
        assert!(t16 < t2, "FFT part must shrink: {t2:.3} -> {t16:.3}");
    }
}
