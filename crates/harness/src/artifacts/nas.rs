//! NAS Parallel Benchmark artifacts: Tables 2, 3 (CG/FT vs numactl
//! options) and 4 (multi-core speedup).

use crate::aggregate::pivot_table;
use crate::context::{default_stack, scheme_sweep, Systems};
use crate::report::Table;
use corescope_affinity::Scheme;
use corescope_kernels::cg::{CgClass, NasCg};
use corescope_kernels::nasft::{FtClass, NasFt};
use corescope_machine::{Machine, Result};
use corescope_sched::Fidelity;
use corescope_smpi::CommWorld;

fn cg_class(fidelity: Fidelity) -> CgClass {
    match fidelity {
        Fidelity::Full => CgClass::B,
        Fidelity::Quick => CgClass::A,
    }
}

fn ft_class(fidelity: Fidelity) -> FtClass {
    match fidelity {
        Fidelity::Full => FtClass::B,
        Fidelity::Quick => FtClass::A,
    }
}

fn nas_workloads(
    fidelity: Fidelity,
) -> Vec<(&'static str, Box<crate::context::WorkloadFn<'static>>)> {
    let cg = cg_class(fidelity);
    let ft = ft_class(fidelity);
    vec![
        ("CG", Box::new(move |w: &mut CommWorld<'_>, _| NasCg { class: cg }.append_run(w))),
        ("FT", Box::new(move |w: &mut CommWorld<'_>, _| NasFt { class: ft }.append_run(w))),
    ]
}

fn scheme_table(
    title: &str,
    machine: &Machine,
    counts: &[usize],
    fidelity: Fidelity,
) -> Result<Table> {
    let (profile, lock) = default_stack();
    let workloads = nas_workloads(fidelity);
    let refs: Vec<(&str, &crate::context::WorkloadFn<'_>)> =
        workloads.iter().map(|(n, f)| (*n, f.as_ref() as _)).collect();
    scheme_sweep(title, machine, counts, &refs, &profile, lock)
}

/// Table 2: CG/FT class B vs the six schemes on Longs.
pub fn table2(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    Ok(vec![scheme_table(
        "Table 2: numactl options vs NAS CG/FT, Longs (seconds)",
        &systems.longs,
        &[2, 4, 8, 16],
        fidelity,
    )?])
}

/// Table 3: CG/FT class B vs the six schemes on DMZ.
pub fn table3(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    Ok(vec![scheme_table(
        "Table 3: numactl options vs NAS CG/FT, DMZ (seconds)",
        &systems.dmz,
        &[2, 4],
        fidelity,
    )?])
}

/// Table 4: NAS multi-core speedup per core (parallel efficiency relative
/// to a single-core run; the paper's metric definition is ambiguous — see
/// EXPERIMENTS.md).
pub fn table4(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let (profile, lock) = default_stack();
    let workloads = nas_workloads(fidelity);
    let mut rows = Vec::new();
    for (name, build) in &workloads {
        for (sys_name, machine) in
            [("DMZ", &systems.dmz), ("Longs", &systems.longs), ("Tiger", &systems.tiger)]
        {
            let t1 = {
                let placements = Scheme::Default.resolve(machine, 1)?;
                let mut w = CommWorld::new(machine, placements, profile.clone(), lock);
                build(&mut w, 1);
                w.run()?.makespan
            };
            let mut values = Vec::new();
            for n in [2usize, 4, 8, 16] {
                if n > machine.num_cores() {
                    values.push(None);
                    continue;
                }
                let placements = Scheme::Default.resolve(machine, n)?;
                let mut w = CommWorld::new(machine, placements, profile.clone(), lock);
                build(&mut w, n);
                let tn = w.run()?.makespan;
                values.push(Some(t1 / tn / n as f64));
            }
            rows.push((format!("{name} {sys_name}"), values));
        }
    }
    Ok(vec![pivot_table(
        "Table 4: NAS multi-core speedup per core",
        &["Benchmark/system", "2 cores", "4 cores", "8 cores", "16 cores"],
        &rows,
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_membind_is_worst_at_scale() {
        let t = &table2(Fidelity::Quick).unwrap()[0];
        // Paper: at 8 tasks, One MPI + Membind roughly doubles CG time.
        let la = t.value("8 CG", "One MPI + Local Alloc").unwrap();
        let mb = t.value("8 CG", "One MPI + Membind").unwrap();
        assert!(mb > 1.4 * la, "membind {mb:.2} vs localalloc {la:.2}");
        // One-per-socket schemes cannot host 16 ranks.
        assert_eq!(t.value("16 CG", "One MPI + Local Alloc"), None);
        assert!(t.value("16 CG", "Two MPI + Local Alloc").is_some());
    }

    #[test]
    fn table3_dmz_default_is_near_optimal() {
        // "the default option on the DMZ system is sufficient to obtain
        // near optimal runtimes".
        let t = &table3(Fidelity::Quick).unwrap()[0];
        let default = t.value("2 CG", "Default").unwrap();
        let best = Scheme::all()
            .iter()
            .filter_map(|s| t.value("2 CG", s.name()))
            .fold(f64::INFINITY, f64::min);
        assert!(default < 1.25 * best, "default {default:.2} vs best {best:.2}");
    }

    #[test]
    fn table4_efficiency_declines_with_cores_on_longs() {
        let t = &table4(Fidelity::Quick).unwrap()[0];
        let e2 = t.value("CG Longs", "2 cores").unwrap();
        let e16 = t.value("CG Longs", "16 cores").unwrap();
        assert!(e16 < e2, "efficiency must fall: {e2:.2} -> {e16:.2}");
        // Tiger only has two cores.
        assert_eq!(t.value("CG Tiger", "4 cores"), None);
    }
}
