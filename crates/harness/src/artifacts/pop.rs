//! POP artifacts: Tables 12 (phase speedups), 13 (baroclinic vs numactl
//! options) and 14 (barotropic vs numactl options).

use crate::aggregate::pivot_table;
use crate::context::{default_stack, scheme_sweep, Systems};
use crate::report::Table;
use corescope_affinity::Scheme;
use corescope_apps::ocean::PopModel;
use corescope_machine::{Error, Machine, Result};
use corescope_sched::Fidelity;
use corescope_smpi::CommWorld;

fn model(fidelity: Fidelity) -> PopModel {
    let mut m = PopModel::x1();
    m.steps = fidelity.steps(m.steps).max(2);
    m
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Baroclinic,
    Barotropic,
}

fn phase_time(
    machine: &Machine,
    scheme: Scheme,
    n: usize,
    pop: &PopModel,
    phase: Phase,
) -> Result<Option<f64>> {
    let (profile, lock) = default_stack();
    let Ok(placements) = scheme.resolve(machine, n) else {
        return Ok(None);
    };
    let mut w = CommWorld::new(machine, placements, profile, lock);
    match phase {
        Phase::Baroclinic => pop.append_baroclinic(&mut w, pop.steps),
        Phase::Barotropic => pop.append_barotropic(&mut w, pop.steps),
    }
    Ok(Some(w.run()?.makespan))
}

/// A rank count that does not fit the machine, as a typed error
/// carrying the system and count instead of a panic.
fn unplaceable(system: &str, nranks: usize) -> Error {
    Error::InvalidSpec(format!("{nranks} rank(s) cannot be placed on {system}"))
}

/// Table 12: baroclinic/barotropic speedups across systems.
pub fn table12(fidelity: Fidelity) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let pop = model(fidelity);
    let mut rows = Vec::new();
    for (sys_name, machine, counts) in [
        ("DMZ", &systems.dmz, vec![2usize, 4]),
        ("Tiger", &systems.tiger, vec![2]),
        ("Longs", &systems.longs, vec![2, 4, 8, 16]),
    ] {
        let base: Vec<f64> = [Phase::Baroclinic, Phase::Barotropic]
            .into_iter()
            .map(|ph| {
                phase_time(machine, Scheme::Default, 1, &pop, ph)?
                    .ok_or_else(|| unplaceable(sys_name, 1))
            })
            .collect::<Result<_>>()?;
        for &n in &counts {
            let mut values = Vec::new();
            for (i, ph) in [Phase::Baroclinic, Phase::Barotropic].into_iter().enumerate() {
                let tn = phase_time(machine, Scheme::Default, n, &pop, ph)?
                    .ok_or_else(|| unplaceable(sys_name, n))?;
                values.push(Some(base[i] / tn));
            }
            rows.push((format!("{n} {sys_name}"), values));
        }
    }
    Ok(vec![pivot_table(
        "Table 12: POP multi-core speedup",
        &["Cores/system", "Baroclinic", "Barotropic"],
        &rows,
    )])
}

fn scheme_phase_tables(
    fidelity: Fidelity,
    phase: Phase,
    titles: (&str, &str),
) -> Result<Vec<Table>> {
    let systems = Systems::new();
    let (profile, lock) = default_stack();
    let pop = model(fidelity);
    let label = match phase {
        Phase::Baroclinic => "baroclinic",
        Phase::Barotropic => "barotropic",
    };
    let build = |w: &mut CommWorld<'_>, _n: usize| match phase {
        Phase::Baroclinic => pop.append_baroclinic(w, pop.steps),
        Phase::Barotropic => pop.append_barotropic(w, pop.steps),
    };
    let workloads: Vec<(&str, &crate::context::WorkloadFn<'_>)> = vec![(label, &build)];
    let longs = scheme_sweep(titles.0, &systems.longs, &[2, 4, 8, 16], &workloads, &profile, lock)?;
    let dmz = scheme_sweep(titles.1, &systems.dmz, &[2, 4], &workloads, &profile, lock)?;
    Ok(vec![longs, dmz])
}

/// Table 13: baroclinic execution time vs schemes.
pub fn table13(fidelity: Fidelity) -> Result<Vec<Table>> {
    scheme_phase_tables(
        fidelity,
        Phase::Baroclinic,
        (
            "Table 13: numactl options vs POP baroclinic time, Longs (seconds)",
            "Table 13 (cont.): numactl options vs POP baroclinic time, DMZ (seconds)",
        ),
    )
}

/// Table 14: barotropic execution time vs schemes.
pub fn table14(fidelity: Fidelity) -> Result<Vec<Table>> {
    scheme_phase_tables(
        fidelity,
        Phase::Barotropic,
        (
            "Table 14: numactl options vs POP barotropic time, Longs (seconds)",
            "Table 14 (cont.): numactl options vs POP barotropic time, DMZ (seconds)",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table12_scales_nearly_linearly() {
        let t = &table12(Fidelity::Quick).unwrap()[0];
        let clinic16 = t.value("16 Longs", "Baroclinic").unwrap();
        assert!(clinic16 > 10.0, "baroclinic at 16 cores = {clinic16:.1} (paper 16.11)");
        let tropic4_dmz = t.value("4 DMZ", "Barotropic").unwrap();
        assert!(tropic4_dmz > 3.0, "barotropic at 4 DMZ cores = {tropic4_dmz:.1}");
    }

    #[test]
    fn table13_localalloc_beats_membind_at_8() {
        let t = &table13(Fidelity::Quick).unwrap()[0];
        let la = t.value("8 baroclinic", "One MPI + Local Alloc").unwrap();
        let mb = t.value("8 baroclinic", "One MPI + Membind").unwrap();
        assert!(mb > la, "membind {mb:.1} vs localalloc {la:.1}");
    }

    #[test]
    fn table14_has_dash_for_one_per_socket_at_16() {
        let t = &table14(Fidelity::Quick).unwrap()[0];
        assert_eq!(t.value("16 barotropic", "One MPI + Local Alloc"), None);
        assert!(t.value("16 barotropic", "Two MPI + Local Alloc").is_some());
    }
}
