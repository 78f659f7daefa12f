//! Shared-resource flows and the max-min fair rate solver.
//!
//! Every byte-moving activity in the simulator — a compute phase's DRAM
//! traffic, an MPI message crossing HyperTransport links — is a *flow*
//! over a route of resources (memory controllers, directed links), with a
//! per-flow rate cap (the core's Little's-law limit or the transport's
//! copy bandwidth). Rates are assigned by **progressive-filling max-min
//! fairness**: all flows ramp up together; when a resource saturates or a
//! flow hits its cap, the affected flows freeze and the rest continue.
//!
//! This is the standard fluid model for fair-shared interconnects and
//! reproduces the paper's contention effects: two cores streaming through
//! one DDR-400 controller each get half of it, while a cache-resident
//! DGEMM is never throttled.

use crate::error::{Error, Result};

/// Index of a resource in a [`ResourceTable`].
pub type ResourceIndex = usize;

/// A named, capacity-limited shared resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// Human-readable name ("mc:socket0", "link:socket0->socket1").
    pub name: String,
    /// Capacity in bytes/s.
    pub capacity: f64,
}

/// The set of shared resources in a machine.
///
/// Built once per simulation; failure-injection tests may degrade
/// individual capacities with [`ResourceTable::set_capacity`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceTable {
    resources: Vec<Resource>,
    /// `resources[r].capacity` for every `r`, kept dense so the solver
    /// reads capacities in place; `add` and `set_capacity` keep the two
    /// in step.
    capacities: Vec<f64>,
}

impl ResourceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a resource and returns its index.
    pub fn add(&mut self, name: impl Into<String>, capacity: f64) -> ResourceIndex {
        self.resources.push(Resource { name: name.into(), capacity });
        self.capacities.push(capacity);
        self.resources.len() - 1
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }

    /// The resource at `index`.
    pub fn get(&self, index: ResourceIndex) -> &Resource {
        &self.resources[index]
    }

    /// Overrides a resource's capacity (failure injection / what-if).
    pub fn set_capacity(&mut self, index: ResourceIndex, capacity: f64) {
        self.resources[index].capacity = capacity;
        self.capacities[index] = capacity;
    }

    /// Every resource's capacity, indexed like the table.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }
}

/// A flow demand handed to the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Resources the flow traverses (order irrelevant to the solver).
    pub route: Vec<ResourceIndex>,
    /// The flow's own maximum rate in bytes/s (must be finite and >= 0).
    pub cap: f64,
}

impl FlowSpec {
    /// Creates a flow over `route` with per-flow cap `cap`.
    pub fn new(route: Vec<ResourceIndex>, cap: f64) -> Self {
        Self { route, cap }
    }
}

/// What froze a flow during progressive filling.
///
/// Attribution is the solver-level half of the engine's bottleneck
/// accounting: every flow's rate stopped ramping either because the flow
/// hit its own cap (a core's Little's-law limit, a transport's copy
/// bandwidth) or because a shared resource on its route saturated (a
/// memory controller, a HyperTransport link, the coherence-probe fabric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// The flow reached its own rate cap (or had a zero cap to begin
    /// with).
    FlowCap,
    /// The flow froze because this route resource saturated.
    Resource(ResourceIndex),
}

/// Relative slack used to decide that a flow is at its cap or a resource
/// is saturated. Relative (not absolute) so that legitimately tiny caps
/// next to fast resources are never zero-rated, while accumulated f64
/// error over many filling rounds is still absorbed.
const REL_EPS: f64 = 1e-9;

/// Solves max-min fair rates for `flows` over `table`.
///
/// Returns one rate per flow, in input order. Flows with a zero cap or a
/// zero-capacity resource on their route receive rate 0; any positive
/// cap, however small, is a legitimate rate limit and is honoured.
///
/// # Errors
///
/// Returns [`Error::InvalidSpec`] if a flow references a resource outside
/// the table or has a non-finite cap.
pub fn solve_maxmin(table: &ResourceTable, flows: &[FlowSpec]) -> Result<Vec<f64>> {
    let mut scratch = Scratch::default();
    scratch.fill(table.capacities(), flows, false)?;
    Ok(scratch.rates)
}

/// Like [`solve_maxmin`], also reporting which limit froze each flow.
///
/// The rates are bit-identical to [`solve_maxmin`]'s — attribution is
/// recorded on the side, never fed back into the arithmetic — so tracing
/// a run cannot perturb it.
///
/// # Errors
///
/// Same as [`solve_maxmin`].
pub fn solve_maxmin_attributed(
    table: &ResourceTable,
    flows: &[FlowSpec],
) -> Result<(Vec<f64>, Vec<Bottleneck>)> {
    let mut scratch = Scratch::default();
    scratch.fill(table.capacities(), flows, true)?;
    Ok((scratch.rates, scratch.attribution))
}

/// Read access to a solver input: each flow's route and cap.
trait Flows {
    fn len(&self) -> usize;
    fn route(&self, flow: usize) -> &[ResourceIndex];
    fn cap(&self, flow: usize) -> f64;
}

impl Flows for [FlowSpec] {
    fn len(&self) -> usize {
        <[FlowSpec]>::len(self)
    }

    fn route(&self, flow: usize) -> &[ResourceIndex] {
        &self[flow].route
    }

    fn cap(&self, flow: usize) -> f64 {
        self[flow].cap
    }
}

/// Flows loaded into a [`SolverWorkspace`]: every route back to back in
/// one buffer, so loading a flow copies a few indices and allocates
/// nothing once the buffers have grown.
#[derive(Debug, Clone)]
struct LoadedFlows {
    routes: Vec<ResourceIndex>,
    /// Flow `i`'s route is `routes[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    caps: Vec<f64>,
}

impl Flows for LoadedFlows {
    fn len(&self) -> usize {
        self.caps.len()
    }

    fn route(&self, flow: usize) -> &[ResourceIndex] {
        &self.routes[self.bounds[flow]..self.bounds[flow + 1]]
    }

    fn cap(&self, flow: usize) -> f64 {
        self.caps[flow]
    }
}

/// A max-min solver that keeps its buffers between calls.
///
/// The engine solves rates on a [`RateMemo`] miss: a flow set it has not
/// seen since the run started or the memo was last cleared, a handful of
/// flows each, so per-call set-up, not the filling itself, dominates. The
/// workspace is loaded with [`SolverWorkspace::push`] after a
/// [`SolverWorkspace::clear`], solved, and read back; every buffer is
/// cleared and refilled, never reallocated once grown. Results are
/// bit-identical to [`solve_maxmin_attributed`] on the same flows.
#[derive(Debug, Clone)]
pub(crate) struct SolverWorkspace {
    flows: LoadedFlows,
    scratch: Scratch,
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        Self {
            flows: LoadedFlows { routes: Vec::new(), bounds: vec![0], caps: Vec::new() },
            scratch: Scratch::default(),
        }
    }
}

impl SolverWorkspace {
    /// Unloads every flow.
    pub(crate) fn clear(&mut self) {
        self.flows.routes.clear();
        self.flows.bounds.truncate(1);
        self.flows.caps.clear();
    }

    /// Loads one more flow; flows are solved and answered in push order.
    pub(crate) fn push(&mut self, route: &[ResourceIndex], cap: f64) {
        self.flows.routes.extend_from_slice(route);
        self.flows.bounds.push(self.flows.routes.len());
        self.flows.caps.push(cap);
    }

    /// Solves the loaded flows over `table`'s current capacities,
    /// recording what froze each flow.
    ///
    /// # Errors
    ///
    /// Same as [`solve_maxmin`].
    pub(crate) fn solve(&mut self, table: &ResourceTable) -> Result<()> {
        self.scratch.fill(table.capacities(), &self.flows, true)
    }

    /// The last solve's rates, one per loaded flow.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.scratch.rates
    }

    /// The last solve's bottlenecks, one per loaded flow.
    pub(crate) fn attribution(&self) -> &[Bottleneck] {
        &self.scratch.attribution
    }
}

/// Most flow sets a [`RateMemo`] holds; the next new one clears it.
const MEMO_ENTRIES: usize = 4096;
/// Most flows, summed over its flow sets, a [`RateMemo`] holds before
/// the next new set clears it: bounds the memo's memory on machines
/// whose flow sets are large.
const MEMO_FLOWS: usize = 1 << 16;
/// Open-addressing slots: a power of two, twice [`MEMO_ENTRIES`], so the
/// table is at most half full and a probe always ends at a vacant slot.
const MEMO_SLOTS: usize = 2 * MEMO_ENTRIES;
/// Multiplier of the memo's key hash (the 64-bit golden ratio).
const MEMO_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Max-min solutions remembered by flow set, so a run that repeats a
/// flow set — every iteration of a steady-state loop does — solves it
/// once.
///
/// The key is the ordered sequence of flows, each as (route id, cap
/// bits), where callers give equal ids only to equal routes. The solver
/// is a pure function of that sequence and the capacity table, so a hit
/// is bit-identical to a fresh solve as long as the capacities have not
/// changed: callers [`RateMemo::clear`] it whenever one does. Keys are
/// compared exactly; the hash only picks where to look.
///
/// A key is built with [`RateMemo::push`] after [`RateMemo::begin`] and
/// answered by [`RateMemo::solve`]. The memo is bounded by
/// [`MEMO_ENTRIES`] and [`MEMO_FLOWS`] and starts over when full.
#[derive(Debug, Clone, Default)]
pub(crate) struct RateMemo {
    /// The flow set being looked up: route id then cap bits per flow.
    key: Vec<u64>,
    /// Hash of `key`.
    hash: u64,
    /// Entry index + 1 per slot, 0 when vacant; empty until the first
    /// insert, so a run that never solves allocates no table.
    slots: Vec<u32>,
    entries: Vec<MemoEntry>,
    /// Keys of every entry back to back, two words per flow.
    keys: Vec<u64>,
    /// Solutions of every entry back to back, one per flow.
    rates: Vec<f64>,
    attribution: Vec<Bottleneck>,
}

/// A remembered flow set: its key is `keys[2 * start..2 * (start +
/// flows)]`, its solution `rates[start..start + flows]` and the same
/// range of `attribution`.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    hash: u64,
    start: usize,
    flows: usize,
}

/// Rates and bottlenecks for the flow set a [`RateMemo`] was asked about,
/// in push order.
#[derive(Debug)]
pub(crate) struct Solution<'a> {
    pub(crate) rates: &'a [f64],
    pub(crate) attribution: &'a [Bottleneck],
    /// Whether the solution was remembered rather than solved.
    pub(crate) reused: bool,
}

impl RateMemo {
    /// Forgets every remembered solution: the capacities they were solved
    /// under changed.
    pub(crate) fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.slots.fill(0);
        }
        self.entries.clear();
        self.keys.clear();
        self.rates.clear();
        self.attribution.clear();
    }

    /// Starts a new key.
    pub(crate) fn begin(&mut self) {
        self.key.clear();
        self.hash = 0;
    }

    /// Appends a flow over the route with id `route` and cap `cap` to the
    /// key.
    pub(crate) fn push(&mut self, route: usize, cap: f64) {
        for word in [route as u64, cap.to_bits()] {
            self.key.push(word);
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MEMO_HASH_MUL);
        }
    }

    /// Answers the key's flow set over `table`: from memory when it was
    /// solved before, else by loading `workspace` with `load` (which must
    /// push the same flows, in the same order) and solving. In debug
    /// builds every remembered answer is checked against a fresh solve.
    ///
    /// # Errors
    ///
    /// Same as [`solve_maxmin`].
    pub(crate) fn solve(
        &mut self,
        workspace: &mut SolverWorkspace,
        table: &ResourceTable,
        load: impl FnOnce(&mut SolverWorkspace),
    ) -> Result<Solution<'_>> {
        if let Some(entry) = self.find() {
            #[cfg(debug_assertions)]
            {
                load(workspace);
                workspace.solve(table).expect("a remembered flow set solved before");
                let want = self.solution(entry, true);
                assert!(
                    workspace
                        .rates()
                        .iter()
                        .map(|r| r.to_bits())
                        .eq(want.rates.iter().map(|r| r.to_bits()))
                        && workspace.attribution() == want.attribution,
                    "remembered rates {want:?} differ from a fresh solve {:?} {:?}",
                    workspace.rates(),
                    workspace.attribution()
                );
            }
            return Ok(self.solution(entry, true));
        }
        load(workspace);
        workspace.solve(table)?;
        let entry = self.insert(workspace.rates(), workspace.attribution());
        Ok(self.solution(entry, false))
    }

    fn solution(&self, entry: usize, reused: bool) -> Solution<'_> {
        let MemoEntry { start, flows, .. } = self.entries[entry];
        Solution {
            rates: &self.rates[start..start + flows],
            attribution: &self.attribution[start..start + flows],
            reused,
        }
    }

    /// The slot the key's probe starts at: the hash's top bits, which a
    /// multiplicative hash mixes best.
    fn home(&self) -> usize {
        (self.hash >> (u64::BITS - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// The entry remembering the key's flow set, if any.
    fn find(&self) -> Option<usize> {
        let flows = self.key.len() / 2;
        let mut slot = self.home();
        loop {
            let entry = match *self.slots.get(slot)? {
                0 => return None,
                e => e as usize - 1,
            };
            let MemoEntry { hash, start, flows: have } = self.entries[entry];
            if hash == self.hash
                && have == flows
                && self.keys[2 * start..2 * (start + flows)] == self.key[..]
            {
                return Some(entry);
            }
            slot = (slot + 1) % MEMO_SLOTS;
        }
    }

    /// Remembers the key's solution and returns its entry, first clearing
    /// a full memo.
    fn insert(&mut self, rates: &[f64], attribution: &[Bottleneck]) -> usize {
        if self.entries.len() == MEMO_ENTRIES || self.rates.len() + rates.len() > MEMO_FLOWS {
            self.clear();
        }
        if self.slots.is_empty() {
            self.slots = vec![0; MEMO_SLOTS];
        }
        let mut slot = self.home();
        while self.slots[slot] != 0 {
            slot = (slot + 1) % MEMO_SLOTS;
        }
        let entry = self.entries.len();
        self.slots[slot] = u32::try_from(entry + 1).expect("MEMO_ENTRIES fits a slot");
        self.entries.push(MemoEntry {
            hash: self.hash,
            start: self.rates.len(),
            flows: rates.len(),
        });
        self.keys.extend_from_slice(&self.key);
        self.rates.extend_from_slice(rates);
        self.attribution.extend_from_slice(attribution);
        entry
    }
}

/// The solver's per-call state.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Capacity each resource has left; only entries of `touched`
    /// resources are current.
    remaining: Vec<f64>,
    /// Unfixed flows using each resource. A flow listing the same
    /// resource twice consumes it twice (e.g. a hairpin route), so this
    /// counts multiplicity. All zero between calls: every flow that
    /// counts itself in is frozen, and counted out, before `fill` returns.
    usage: Vec<usize>,
    /// The resources on some loaded route, in first-use order.
    touched: Vec<ResourceIndex>,
    /// Flows still ramping, in increasing index order.
    unfixed: Vec<usize>,
    rates: Vec<f64>,
    attribution: Vec<Bottleneck>,
}

impl Scratch {
    /// Progressive filling over `flows`, leaving one rate (and, with
    /// `attribute`, one bottleneck) per flow. Each resource and each flow
    /// sees the same arithmetic, in the same order, as the reference
    /// solver in `flow/reference.rs`.
    fn fill<F: Flows + ?Sized>(&mut self, caps: &[f64], flows: &F, attribute: bool) -> Result<()> {
        let n = flows.len();
        for i in 0..n {
            let cap = flows.cap(i);
            if !cap.is_finite() || cap < 0.0 {
                return Err(Error::InvalidSpec(format!("flow {i} has invalid cap {cap}")));
            }
            if let Some(&r) = flows.route(i).iter().find(|&&r| r >= caps.len()) {
                return Err(Error::InvalidSpec(format!(
                    "flow {i} references resource {r} outside table of {}",
                    caps.len()
                )));
            }
        }

        let Self { remaining, usage, touched, unfixed, rates, attribution } = self;
        rates.clear();
        rates.resize(n, 0.0);
        attribution.clear();
        if attribute {
            attribution.resize(n, Bottleneck::FlowCap);
        }
        if n == 0 {
            return Ok(());
        }
        if usage.len() < caps.len() {
            usage.resize(caps.len(), 0);
            remaining.resize(caps.len(), 0.0);
        }
        // Exactly-zero-cap flows are frozen from the start and never
        // counted in. Tiny-but-positive caps are real rate limits and
        // must survive to the filling loop — an absolute epsilon here
        // silently zero-rated a 1 B/s flow whenever a GB/s resource
        // shared the table.
        touched.clear();
        unfixed.clear();
        for i in 0..n {
            if flows.cap(i) <= 0.0 {
                continue;
            }
            unfixed.push(i);
            for &r in flows.route(i) {
                if usage[r] == 0 {
                    touched.push(r);
                    remaining[r] = caps[r];
                }
                usage[r] += 1;
            }
        }

        while !unfixed.is_empty() {
            // Smallest headroom: either a resource's fair increment or a
            // flow's distance to its own cap. No candidate is NaN, so the
            // minimum does not depend on the order resources are visited.
            let mut inc = f64::INFINITY;
            for &r in touched.iter() {
                if usage[r] > 0 {
                    inc = inc.min(remaining[r].max(0.0) / usage[r] as f64);
                }
            }
            for &i in unfixed.iter() {
                inc = inc.min(flows.cap(i) - rates[i]);
            }
            debug_assert!(inc.is_finite(), "at least one limit must apply");
            let inc = inc.max(0.0);

            // Ramp all unfixed flows by `inc`.
            for &i in unfixed.iter() {
                rates[i] += inc;
                for &r in flows.route(i) {
                    remaining[r] -= inc;
                }
            }

            // Freeze flows at their cap or on a saturated resource, keeping
            // the rest in order. Slack is relative to the cap being
            // compared against (zero-capacity resources still satisfy
            // `0 <= 0`).
            let before = unfixed.len();
            let mut kept = 0;
            for k in 0..before {
                let i = unfixed[k];
                let cap = flows.cap(i);
                let route = flows.route(i);
                let at_cap = cap - rates[i] <= cap * REL_EPS;
                // When both limits bind in the same round, attribute the
                // freeze to a saturated shared resource — contention is
                // the informative cause — and among saturated route
                // resources pick the most contended one (highest
                // unfixed-flow count, as decremented so far this round).
                let mut saturated: Option<ResourceIndex> = None;
                for &r in route {
                    if remaining[r] <= caps[r] * REL_EPS
                        && saturated.is_none_or(|s| usage[r] > usage[s])
                    {
                        saturated = Some(r);
                    }
                }
                if at_cap || saturated.is_some() {
                    for &r in route {
                        usage[r] -= 1;
                    }
                    if attribute {
                        attribution[i] = match saturated {
                            Some(r) => Bottleneck::Resource(r),
                            None => Bottleneck::FlowCap,
                        };
                    }
                } else {
                    unfixed[kept] = i;
                    kept += 1;
                }
            }
            unfixed.truncate(kept);
            debug_assert!(kept < before, "progressive filling must freeze at least one flow");
            if kept == before {
                // Defensive: avoid an infinite loop under pathological
                // floating-point behaviour by freezing everything.
                for &i in unfixed.iter() {
                    for &r in flows.route(i) {
                        usage[r] -= 1;
                    }
                }
                unfixed.clear();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(caps: &[f64]) -> ResourceTable {
        let mut t = ResourceTable::new();
        for (i, &c) in caps.iter().enumerate() {
            t.add(format!("r{i}"), c);
        }
        t
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_resource() {
        let t = table(&[4.0e9]);
        let rates = solve_maxmin(&t, &[FlowSpec::new(vec![0], 3.0e9)]).unwrap();
        assert!((rates[0] - 3.0e9).abs() < 1.0);
        let rates = solve_maxmin(&t, &[FlowSpec::new(vec![0], 9.0e9)]).unwrap();
        assert!((rates[0] - 4.0e9).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_a_controller_fairly() {
        // The STREAM "second core" effect: both cores capped at 3.7 GB/s
        // individually, but the 6.4 GB/s controller limits each to 3.2.
        let t = table(&[6.4e9]);
        let flows = vec![FlowSpec::new(vec![0], 3.7e9), FlowSpec::new(vec![0], 3.7e9)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 3.2e9).abs() < 1.0);
        assert!((rates[1] - 3.2e9).abs() < 1.0);
    }

    #[test]
    fn capped_flow_releases_bandwidth_to_others() {
        let t = table(&[10.0e9]);
        let flows = vec![FlowSpec::new(vec![0], 1.0e9), FlowSpec::new(vec![0], 20.0e9)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 1.0e9).abs() < 1.0);
        assert!((rates[1] - 9.0e9).abs() < 1.0);
    }

    #[test]
    fn multi_resource_bottleneck() {
        // Flow A uses r0+r1, flow B uses r1 only; r1 is the bottleneck.
        let t = table(&[100.0, 10.0]);
        let flows = vec![FlowSpec::new(vec![0, 1], 1000.0), FlowSpec::new(vec![1], 1000.0)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // Classic max-min example: r0 cap 10 shared by A,B; r1 cap 100
        // used by B only; B should get more once A is frozen at 5.
        let t = table(&[10.0, 100.0]);
        let flows = vec![FlowSpec::new(vec![0], 5.0), FlowSpec::new(vec![0, 1], 1000.0)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9);
        assert!((rates[1] - 5.0).abs() < 1e-9, "r0 still splits fairly: {rates:?}");
    }

    #[test]
    fn zero_capacity_resource_starves_flow() {
        let t = table(&[0.0, 10.0]);
        let flows = vec![FlowSpec::new(vec![0], 5.0), FlowSpec::new(vec![1], 5.0)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_route_flow_runs_at_cap() {
        let t = table(&[1.0]);
        let rates = solve_maxmin(&t, &[FlowSpec::new(Vec::new(), 7.0)]).unwrap();
        assert!((rates[0] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_out_of_range_resource() {
        let t = table(&[1.0]);
        assert!(solve_maxmin(&t, &[FlowSpec::new(vec![3], 1.0)]).is_err());
    }

    #[test]
    fn rejects_non_finite_cap() {
        let t = table(&[1.0]);
        assert!(solve_maxmin(&t, &[FlowSpec::new(vec![0], f64::INFINITY)]).is_err());
        assert!(solve_maxmin(&t, &[FlowSpec::new(vec![0], f64::NAN)]).is_err());
    }

    #[test]
    fn no_resource_oversubscribed() {
        // Random-ish mesh of flows; verify feasibility invariant.
        let t = table(&[7.0, 3.0, 11.0]);
        let flows = vec![
            FlowSpec::new(vec![0, 1], 10.0),
            FlowSpec::new(vec![1, 2], 10.0),
            FlowSpec::new(vec![0, 2], 10.0),
            FlowSpec::new(vec![2], 2.0),
        ];
        let rates = solve_maxmin(&t, &flows).unwrap();
        let mut used = [0.0; 3];
        for (f, &rate) in flows.iter().zip(&rates) {
            for &r in &f.route {
                used[r] += rate;
            }
        }
        for (r, &u) in used.iter().enumerate() {
            assert!(u <= t.get(r).capacity * (1.0 + 1e-9), "resource {r} oversubscribed: {u}");
        }
    }

    #[test]
    fn hairpin_route_counts_twice() {
        let t = table(&[10.0]);
        let rates = solve_maxmin(&t, &[FlowSpec::new(vec![0, 0], 100.0)]).unwrap();
        assert!((rates[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_cap_flow_survives_next_to_a_fast_controller() {
        // Regression: the old absolute epsilon (max cap * 1e-12) silently
        // zero-rated any flow slower than ~10 mB/s on a 10 GB/s table.
        let t = table(&[10.0e9]);
        let flows = vec![FlowSpec::new(vec![0], 1.0), FlowSpec::new(vec![0], 20.0e9)];
        let rates = solve_maxmin(&t, &flows).unwrap();
        assert!((rates[0] - 1.0).abs() < 1e-6, "1 B/s flow zero-rated: {rates:?}");
        assert!((rates[1] - (10.0e9 - 1.0)).abs() < 1.0, "fast flow takes the rest: {rates:?}");
    }

    #[test]
    fn attribution_names_the_saturated_resource() {
        // Two uncapped-ish flows pinned by the shared controller.
        let t = table(&[6.4e9]);
        let flows = vec![FlowSpec::new(vec![0], 3.7e9), FlowSpec::new(vec![0], 3.7e9)];
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        assert!((rates[0] - 3.2e9).abs() < 1.0);
        assert_eq!(attr, vec![Bottleneck::Resource(0), Bottleneck::Resource(0)]);
    }

    #[test]
    fn attribution_reports_flow_cap_when_uncontended() {
        let t = table(&[10.0e9]);
        let flows = vec![FlowSpec::new(vec![0], 3.7e9)];
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        assert!((rates[0] - 3.7e9).abs() < 1.0);
        assert_eq!(attr, vec![Bottleneck::FlowCap]);
    }

    #[test]
    fn attribution_prefers_the_most_contended_resource() {
        // Four flows each cross a private controller (r0..r3, cap 10)
        // and all share r4 (cap 4): every flow freezes at 1.0 because of
        // r4, the resource with the highest unfixed-flow count.
        let t = table(&[10.0, 10.0, 10.0, 10.0, 4.0]);
        let flows: Vec<FlowSpec> = (0..4).map(|r| FlowSpec::new(vec![r, 4], 100.0)).collect();
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        for (&rate, &b) in rates.iter().zip(&attr) {
            assert!((rate - 1.0).abs() < 1e-9, "{rates:?}");
            assert_eq!(b, Bottleneck::Resource(4), "{attr:?}");
        }
    }

    #[test]
    fn attribution_covers_zero_cap_flows() {
        let t = table(&[10.0]);
        let flows = vec![FlowSpec::new(vec![0], 0.0), FlowSpec::new(vec![0], 100.0)];
        let (rates, attr) = solve_maxmin_attributed(&t, &flows).unwrap();
        assert_eq!(rates[0], 0.0);
        assert_eq!(attr[0], Bottleneck::FlowCap);
        assert!((rates[1] - 10.0).abs() < 1e-9);
        assert_eq!(attr[1], Bottleneck::Resource(0));
    }

    #[test]
    fn attributed_rates_match_plain_rates_exactly() {
        let t = table(&[7.0, 3.0, 11.0]);
        let flows = vec![
            FlowSpec::new(vec![0, 1], 10.0),
            FlowSpec::new(vec![1, 2], 10.0),
            FlowSpec::new(vec![0, 2], 10.0),
            FlowSpec::new(vec![2], 2.0),
            FlowSpec::new(vec![0, 0], 100.0),
        ];
        let plain = solve_maxmin(&t, &flows).unwrap();
        let (attributed, _) = solve_maxmin_attributed(&t, &flows).unwrap();
        // Bit-identical, not approximately equal: both paths run the same
        // arithmetic, so tracing can never perturb a simulation.
        assert_eq!(plain, attributed);
    }

    /// A capacity or flow cap drawn from one of the regimes the solver
    /// must keep apart: zero (a dead resource or a zero-cap flow), tiny,
    /// ordinary, and fast enough to dwarf the tiny ones.
    fn regime(kind: u8, unit: f64) -> f64 {
        match kind {
            0 => 0.0,
            1 => 1e-3 + unit,
            2 => 1e9 + unit * 1e11,
            _ => 1.0 + unit * 1e3,
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The workspace solver answers every instance bit for bit like
        /// the frozen reference, rates and attributions alike. One
        /// workspace serves a run of instances of shrinking and growing
        /// size, so a buffer left stale by a bigger call would show.
        #[test]
        fn workspace_matches_the_reference_bit_for_bit(
            instances in proptest::collection::vec(
                (
                    proptest::collection::vec((0u8..4, 0.0f64..1.0), 1..9),
                    proptest::collection::vec(
                        (proptest::collection::vec(0usize..9, 0..5), 0u8..4, 0.0f64..1.0, 0u8..8),
                        0..14,
                    ),
                ),
                1..7,
            ),
        ) {
            let mut workspace = SolverWorkspace::default();
            for (resources, flows) in &instances {
                let table = table(
                    &resources.iter().map(|&(kind, unit)| regime(kind, unit)).collect::<Vec<_>>(),
                );
                let specs: Vec<FlowSpec> = flows
                    .iter()
                    .map(|(route, kind, unit, shape)| {
                        let mut route: Vec<usize> =
                            route.iter().map(|&r| r % table.len()).collect();
                        match shape {
                            // A hairpin: the first resource listed twice.
                            0 => route.extend(route.first().copied()),
                            // Out of the table: both solvers must refuse.
                            1 if flows.len() > 10 => route.push(table.len()),
                            _ => {}
                        }
                        FlowSpec::new(route, regime(*kind, *unit))
                    })
                    .collect();

                let mut want_attribution = vec![Bottleneck::FlowCap; specs.len()];
                let want = reference::solve_inner(&table, &specs, Some(&mut want_attribution));
                workspace.clear();
                for spec in &specs {
                    workspace.push(&spec.route, spec.cap);
                }
                let got = workspace.solve(&table);
                prop_assert_eq!(got.is_ok(), want.is_ok(), "{:?} vs {:?}", got, want);
                let Ok(want) = want else { continue };
                prop_assert_eq!(bits(workspace.rates()), bits(&want));
                prop_assert_eq!(workspace.attribution(), &want_attribution[..]);
                prop_assert_eq!(
                    bits(&solve_maxmin(&table, &specs).expect("same instance")),
                    bits(&want)
                );
                let (rates, attribution) =
                    solve_maxmin_attributed(&table, &specs).expect("same instance");
                prop_assert_eq!(bits(&rates), bits(&want));
                prop_assert_eq!(attribution, want_attribution);
            }
        }

        /// The memo answers a stream of flow sets drawn from a small pool
        /// bit for bit like fresh solves, reuses exactly the flow sets it
        /// has seen since it was last cleared, and solves again after a
        /// clear.
        #[test]
        fn memo_reuses_exactly_the_repeats(
            pool in proptest::collection::vec(
                proptest::collection::vec((0usize..4, 0u8..4, 0.0f64..1.0), 0..6),
                1..5,
            ),
            picks in proptest::collection::vec(0usize..6, 1..40),
        ) {
            let routes: [&[ResourceIndex]; 4] = [&[0], &[0, 1], &[1, 2], &[2, 2]];
            let table = table(&[5.0, 3.0, 11.0]);
            let mut memo = RateMemo::default();
            let mut workspace = SolverWorkspace::default();
            let mut seen = std::collections::HashSet::new();
            for &pick in &picks {
                let Some(flows) = pool.get(pick) else {
                    memo.clear();
                    seen.clear();
                    continue;
                };
                let specs: Vec<FlowSpec> = flows
                    .iter()
                    .map(|&(route, kind, unit)| FlowSpec::new(routes[route].to_vec(), regime(kind, unit)))
                    .collect();
                memo.begin();
                for (&(route, ..), spec) in flows.iter().zip(&specs) {
                    memo.push(route, spec.cap);
                }
                let got = memo
                    .solve(&mut workspace, &table, |workspace| {
                        workspace.clear();
                        for spec in &specs {
                            workspace.push(&spec.route, spec.cap);
                        }
                    })
                    .expect("valid flows");
                let (want, want_attribution) =
                    solve_maxmin_attributed(&table, &specs).expect("valid flows");
                prop_assert_eq!(bits(got.rates), bits(&want));
                prop_assert_eq!(got.attribution, &want_attribution[..]);
                let key: Vec<(ResourceIndex, u64)> =
                    flows.iter().zip(&specs).map(|(&(route, ..), spec)| (route, spec.cap.to_bits())).collect();
                prop_assert_eq!(got.reused, !seen.insert(key));
            }
        }
    }

    #[test]
    fn a_full_memo_starts_over() {
        let t = table(&[1.0e9]);
        let mut memo = RateMemo::default();
        let mut workspace = SolverWorkspace::default();
        let mut solve = |memo: &mut RateMemo, cap: f64| {
            memo.begin();
            memo.push(0, cap);
            let solution = memo
                .solve(&mut workspace, &t, |workspace| {
                    workspace.clear();
                    workspace.push(&[0], cap);
                })
                .expect("valid flow");
            assert_eq!(solution.rates, [cap]);
            solution.reused
        };
        for i in 0..MEMO_ENTRIES {
            assert!(!solve(&mut memo, 1.0 + i as f64));
        }
        assert!(solve(&mut memo, 1.0), "a memo with room keeps every entry");
        assert!(!solve(&mut memo, 0.5), "a new flow set still solves");
        assert!(!solve(&mut memo, 1.0), "the memo started over when full");
        assert!(solve(&mut memo, 0.5));
    }
}
