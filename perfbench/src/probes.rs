//! Layer probes: the solver corpus, the codec and cache replay, and the
//! model check. Each times the calls into one layer's public functions
//! and checks what they return.

use crate::serve::Sample;
use crate::stats::Rng;
use corescope_calib::{CalibParams, Evaluator};
use corescope_machine::flow::{solve_maxmin, FlowSpec, ResourceIndex, ResourceTable};
use corescope_machine::{LinkId, Machine, SocketId};
use corescope_sched::json;
use corescope_sched::{Fidelity, ResultCache, Scenario, Scheduler, System};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Solver instances per machine with the measured ~8 live flows.
const SMALL_PER_MACHINE: usize = 3000;
/// Solver instances per machine in the 64-flow tail.
const TAIL_PER_MACHINE: usize = 300;

/// A machine's resource table, laid out the way the engine lays it out:
/// one controller per socket, one resource per directed link, and the
/// coherence-probe fabric on multi-socket machines.
struct Fabric {
    machine: Machine,
    table: ResourceTable,
    controllers: Vec<ResourceIndex>,
    links: Vec<ResourceIndex>,
    probe: Option<ResourceIndex>,
}

impl Fabric {
    fn new(system: System) -> Self {
        let machine = system.machine();
        let spec = machine.spec().clone();
        let mut table = ResourceTable::new();
        let controllers = machine
            .sockets()
            .map(|s| table.add(format!("mc:{s}"), spec.memory_of(s.index()).controller_bw))
            .collect();
        let topo = machine.topology();
        let links = (0..topo.num_links())
            .map(|l| {
                let (a, b) = topo.link_endpoints(LinkId::new(l));
                table.add(
                    format!("link:{a}->{b}"),
                    spec.link_of(topo.edge_of(LinkId::new(l))).bandwidth,
                )
            })
            .collect();
        let probe = (machine.num_compute_sockets() > 1)
            .then(|| table.add("coherence-probe", spec.coherence.probe_capacity));
        Self { machine, table, controllers, links, probe }
    }

    /// A DRAM flow from a random compute socket to a random memory node,
    /// or (one in four) a message flow between two compute sockets.
    fn flow(&self, rng: &mut Rng) -> FlowSpec {
        let compute: Vec<SocketId> = self.machine.compute_sockets().collect();
        let src = compute[rng.below(compute.len())];
        let mut route = Vec::new();
        let dst = if rng.below(4) == 0 {
            compute[rng.below(compute.len())]
        } else {
            let nodes: Vec<_> = self.machine.nodes().collect();
            let node = nodes[rng.below(nodes.len())];
            route.push(self.controllers[node.index()]);
            self.machine.socket_of_node(node)
        };
        let hops = self.machine.topology().route(src, dst).expect("sockets of one machine connect");
        route.extend(hops.iter().map(|l| self.links[l.index()]));
        route.extend(self.probe);
        if route.is_empty() {
            route.push(self.controllers[src.index()]);
        }
        FlowSpec::new(route, rng.range(0.5e9, 8e9))
    }
}

/// Whether `rates` is a feasible answer: finite, within each flow's cap
/// and within each resource's capacity.
fn feasible(table: &ResourceTable, flows: &[FlowSpec], rates: &[f64]) -> bool {
    let mut load = vec![0.0; table.len()];
    for (flow, &rate) in flows.iter().zip(rates) {
        if !(rate.is_finite() && rate >= 0.0 && rate <= flow.cap * (1.0 + 1e-9)) {
            return false;
        }
        for &r in &flow.route {
            load[r] += rate;
        }
    }
    rates.len() == flows.len()
        && load.iter().enumerate().all(|(r, &l)| l <= table.get(r).capacity * (1.0 + 1e-6))
}

/// Solver timings: ns per call for the ~8-flow instances and for the
/// 64-flow tail, plus (checked, failed) call counts.
pub struct SolverTimes {
    /// ns per call, 4 to 12 flows (mean 8).
    pub small_ns: Vec<f64>,
    /// ns per call, 64 flows.
    pub tail_ns: Vec<f64>,
    /// Calls whose answer was an error or infeasible.
    pub failed: usize,
}

/// Times `solve_maxmin` over the seeded corpus on DMZ, Longs and Epyc.
pub fn solver_corpus(seed: u64) -> SolverTimes {
    let mut rng = Rng::new(seed, 100);
    let mut out = SolverTimes { small_ns: Vec::new(), tail_ns: Vec::new(), failed: 0 };
    for system in [System::Dmz, System::Longs, System::Epyc] {
        let fabric = Fabric::new(system);
        let mut sizes: Vec<(usize, bool)> =
            (0..SMALL_PER_MACHINE).map(|_| (4 + rng.below(9), false)).collect();
        sizes.extend((0..TAIL_PER_MACHINE).map(|_| (64, true)));
        for (n, tail) in sizes {
            let flows: Vec<FlowSpec> = (0..n).map(|_| fabric.flow(&mut rng)).collect();
            let t = Instant::now();
            let rates = solve_maxmin(std::hint::black_box(&fabric.table), &flows);
            let ns = t.elapsed().as_nanos() as f64;
            if !rates.is_ok_and(|r| feasible(&fabric.table, &flows, &r)) {
                out.failed += 1;
            }
            if tail { &mut out.tail_ns } else { &mut out.small_ns }.push(ns);
        }
    }
    out
}

/// Codec and cache timings over a request stream, µs per call.
#[derive(Debug, Default)]
pub struct ReplayTimes {
    /// `Scenario::digest`.
    pub digest_us: Vec<f64>,
    /// `to_json`, `json::parse`, `Scenario::from_json`.
    pub json_us: Vec<f64>,
    /// `ResultCache::get` answered from memory.
    pub get_mem_us: Vec<f64>,
    /// `ResultCache::get` answered from disk.
    pub get_disk_us: Vec<f64>,
    /// `ResultCache::put` on a disk-backed cache.
    pub put_us: Vec<f64>,
    /// Calls that returned a wrong or missing value.
    pub failed: usize,
}

/// Replays the serve-closed request stream through the codec and both
/// cache tiers. Samples without a checked result are skipped.
pub fn codec_cache_replay(samples: &[Sample], dir: &Path) -> ReplayTimes {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let mut out = ReplayTimes::default();
    let stream: Vec<_> =
        samples.iter().filter_map(|s| Some((&s.request.scenario, s.result.as_ref()?))).collect();
    for (scenario, _) in &stream {
        let t = Instant::now();
        let digest = std::hint::black_box(scenario.digest());
        out.digest_us.push(us(t));
        let t = Instant::now();
        let back = json::parse(&scenario.to_json()).and_then(|v| Scenario::from_json(&v));
        out.json_us.push(us(t));
        if back.as_ref().map(Scenario::digest) != Ok(digest) {
            out.failed += 1;
        }
    }

    let _ = std::fs::remove_dir_all(dir);
    let writer = ResultCache::on_disk(dir);
    let mut stored = HashSet::new();
    for (scenario, result) in &stream {
        let digest = scenario.digest();
        if stored.insert(digest.0) {
            let t = Instant::now();
            writer.put(digest, result);
            out.put_us.push(us(t));
        }
    }
    // A second cache over the same directory starts with an empty memory
    // tier: each digest's first read comes from disk, repeats from memory.
    let reader = ResultCache::on_disk(dir);
    for (scenario, result) in &stream {
        let digest = scenario.digest();
        let t = Instant::now();
        let got = reader.get(digest);
        let elapsed = us(t);
        match got {
            Some((r, tier)) if &r == *result => match tier.key() {
                "memory" => out.get_mem_us.push(elapsed),
                _ => out.get_disk_us.push(elapsed),
            },
            _ => out.failed += 1,
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// The model's error against the paper targets at the shipped
/// parameters: (largest |relative error|, targets missed, targets).
///
/// # Errors
///
/// Propagates the evaluation's engine errors as text.
pub fn model_check(jobs: usize) -> Result<(f64, usize, usize), String> {
    let sched = Scheduler::new(jobs);
    let eval = Evaluator::new(&sched, Fidelity::Quick)
        .evaluate(&CalibParams::paper_2006())
        .map_err(|e| e.to_string())?;
    let max = eval.outcomes.iter().map(|o| o.rel_err.abs()).fold(0.0, f64::max);
    Ok((max, eval.misses().len(), eval.outcomes.len()))
}
