//! Per-rank simulated programs.
//!
//! A [`Program`] is the list of operations one rank executes: compute
//! phases (with flop counts and memory-traffic profiles), point-to-point
//! messages with explicit cost parameters (filled in by the MPI layer),
//! barriers, fixed delays, and loops over a body of further ops. Workload
//! models in the kernel/application crates build programs; the
//! [`Engine`](crate::engine::Engine) executes them.
//!
//! A loop ([`Op::Repeat`]) keeps a program's size proportional to its
//! text, not to its iteration count: a 4,096-chunk RandomAccess run stores
//! one chunk. Iteration `i` of a loop shifts every message tag in its body
//! by `i × tag_stride`, so a loop runs exactly like its
//! [`Program::unrolled`] expansion, in which every iteration carries fresh
//! tags.

use crate::ids::RankId;
use crate::memory::MemoryLayout;
use crate::traffic::TrafficProfile;

/// One compute phase on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePhase {
    /// Label for tracing/metrics ("triad", "dgemm", "fft-butterfly", ...).
    pub label: &'static str,
    /// Double-precision floating-point operations executed.
    pub flops: f64,
    /// Fraction of core peak flop/s the phase sustains when its data is
    /// cache-resident (ACML DGEMM ≈ 0.88, compiled Fortran ≈ 0.13,
    /// bandwidth-bound loops ≈ anything — they are memory-limited anyway).
    pub efficiency: f64,
    /// Memory traffic the phase generates.
    pub traffic: TrafficProfile,
    /// Page distribution of the data this phase touches. `None` (the
    /// default) uses the rank's own placement layout; workloads whose hot
    /// structure lives elsewhere (a shared lookup table spilled across
    /// nodes) override it per phase.
    pub layout: Option<MemoryLayout>,
}

impl ComputePhase {
    /// Creates a phase; efficiency defaults to 1.0 via [`Self::with_efficiency`].
    pub fn new(label: &'static str, flops: f64, traffic: TrafficProfile) -> Self {
        Self { label, flops, efficiency: 1.0, traffic, layout: None }
    }

    /// Sets the sustained-fraction-of-peak efficiency.
    pub fn with_efficiency(mut self, efficiency: f64) -> Self {
        self.efficiency = efficiency.clamp(1e-6, 1.0);
        self
    }

    /// Pins the phase's data to an explicit page distribution instead of
    /// the rank's placement layout.
    pub fn with_layout(mut self, layout: MemoryLayout) -> Self {
        self.layout = Some(layout);
        self
    }
}

/// Resolved cost parameters of a message, provided by the MPI layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageCost {
    /// Fixed pre-transfer cost in seconds (software overhead + lock
    /// acquisition + per-hop wire latency).
    pub setup: f64,
    /// Maximum transfer rate in bytes/s (e.g. the shared-memory copy
    /// bandwidth); link contention may lower the achieved rate.
    pub cap: f64,
    /// Time the *sender* is occupied before it can continue, for eager
    /// (buffered) sends. Ignored for rendezvous sends.
    pub sender_busy: f64,
    /// Rendezvous protocol: the sender blocks until delivery completes.
    /// Eager protocol (`false`): the sender continues after `sender_busy`.
    pub rendezvous: bool,
}

impl MessageCost {
    /// A free message (useful in tests): zero setup and an effectively
    /// unlimited (1 TB/s) rate cap.
    pub fn free() -> Self {
        Self { setup: 0.0, cap: 1e12, sender_busy: 0.0, rendezvous: false }
    }
}

/// One operation in a rank's program.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Execute a compute phase (roofline: duration is the max of the cpu
    /// time and the time to drain the phase's DRAM traffic).
    Compute(ComputePhase),
    /// Send `bytes` to `to` with matching `tag`.
    Send {
        /// Destination rank.
        to: RankId,
        /// Payload size in bytes.
        bytes: f64,
        /// Match tag (FIFO matching per `(src, dst, tag)`).
        tag: u64,
        /// Resolved cost parameters.
        cost: MessageCost,
    },
    /// Receive a message from `from` with matching `tag`. Blocks until the
    /// matching transfer is delivered.
    Recv {
        /// Source rank.
        from: RankId,
        /// Match tag.
        tag: u64,
    },
    /// Synchronize with every other rank in the run.
    Barrier,
    /// Sleep for a fixed number of seconds (serial sections, lock costs,
    /// I/O stand-ins).
    Delay(f64),
    /// Run `body` `count` times. Iteration `i` adds `i × tag_stride` to
    /// every send and receive tag in the body (on top of the offsets of
    /// enclosing loops). Entering, iterating and leaving a loop takes no
    /// simulated time and dispatches nothing.
    Repeat {
        /// The ops of one iteration.
        body: Program,
        /// Number of iterations.
        count: u64,
        /// Tag offset between consecutive iterations.
        tag_stride: u64,
    },
}

/// A rank's full operation list (its program text; loops stay rolled up).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a compute phase.
    pub fn compute(&mut self, phase: ComputePhase) -> &mut Self {
        self.ops.push(Op::Compute(phase));
        self
    }

    /// Appends a send.
    pub fn send(&mut self, to: RankId, bytes: f64, tag: u64, cost: MessageCost) -> &mut Self {
        self.ops.push(Op::Send { to, bytes, tag, cost });
        self
    }

    /// Appends a receive.
    pub fn recv(&mut self, from: RankId, tag: u64) -> &mut Self {
        self.ops.push(Op::Recv { from, tag });
        self
    }

    /// Appends a barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.ops.push(Op::Barrier);
        self
    }

    /// Appends a fixed delay.
    pub fn delay(&mut self, seconds: f64) -> &mut Self {
        self.ops.push(Op::Delay(seconds));
        self
    }

    /// Appends a loop running `body` `count` times, shifting its message
    /// tags by `tag_stride` per iteration (see [`Op::Repeat`]).
    pub fn repeat(&mut self, body: Program, count: u64, tag_stride: u64) -> &mut Self {
        self.ops.push(Op::Repeat { body, count, tag_stride });
        self
    }

    /// Appends an arbitrary op.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// The top-level operation list (loop bodies stay inside their
    /// [`Op::Repeat`]).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations stored: the program's text length. A loop
    /// counts as one op plus its body, whatever its iteration count.
    pub fn len(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Repeat { body, .. } => 1 + body.len(),
                _ => 1,
            })
            .sum()
    }

    /// Number of operations the engine dispatches: every loop body counted
    /// once per iteration, the loops themselves not at all. Equals
    /// `self.unrolled().len()` (saturating at `u64::MAX`).
    pub fn executed_len(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Repeat { body, count, .. } => count.saturating_mul(body.executed_len()),
                _ => 1,
            })
            .fold(0, u64::saturating_add)
    }

    /// The same program with every loop expanded in place and each
    /// iteration's tag offset applied: the flat op list the loop form is
    /// defined to run exactly like.
    pub fn unrolled(&self) -> Program {
        let mut out = Program::new();
        self.unroll_into(0, &mut out.ops);
        out
    }

    fn unroll_into(&self, tag_offset: u64, out: &mut Vec<Op>) {
        for op in &self.ops {
            match op {
                Op::Repeat { body, count, tag_stride } => {
                    for i in 0..*count {
                        body.unroll_into(tag_offset + i * tag_stride, out);
                    }
                }
                Op::Send { to, bytes, tag, cost } => {
                    out.push(Op::Send {
                        to: *to,
                        bytes: *bytes,
                        tag: tag + tag_offset,
                        cost: *cost,
                    });
                }
                Op::Recv { from, tag } => out.push(Op::Recv { from: *from, tag: tag + tag_offset }),
                other => out.push(other.clone()),
            }
        }
    }

    /// Whether the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total flops across all executed compute phases, loop iterations
    /// included (for sanity checks).
    pub fn total_flops(&self) -> f64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Compute(p) => p.flops,
                Op::Repeat { body, count, .. } => *count as f64 * body.total_flops(),
                _ => 0.0,
            })
            .sum()
    }

    /// Total bytes sent by this program, loop iterations included.
    pub fn total_sent_bytes(&self) -> f64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Send { bytes, .. } => *bytes,
                Op::Repeat { body, count, .. } => *count as f64 * body.total_sent_bytes(),
                _ => 0.0,
            })
            .sum()
    }
}

impl FromIterator<Op> for Program {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Self { ops: iter.into_iter().collect() }
    }
}

impl Extend<Op> for Program {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_ops() {
        let mut p = Program::new();
        p.compute(ComputePhase::new("x", 100.0, TrafficProfile::none()))
            .send(RankId::new(1), 64.0, 0, MessageCost::free())
            .recv(RankId::new(1), 0)
            .barrier()
            .delay(1e-6);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.total_flops(), 100.0);
        assert_eq!(p.total_sent_bytes(), 64.0);
    }

    #[test]
    fn efficiency_is_clamped() {
        let p = ComputePhase::new("x", 1.0, TrafficProfile::none()).with_efficiency(7.0);
        assert_eq!(p.efficiency, 1.0);
        let p = ComputePhase::new("x", 1.0, TrafficProfile::none()).with_efficiency(-1.0);
        assert!(p.efficiency > 0.0);
    }

    #[test]
    fn loops_store_their_text_and_unroll_with_shifted_tags() {
        let mut body = Program::new();
        body.send(RankId::new(1), 8.0, 3, MessageCost::free())
            .recv(RankId::new(1), 4)
            .compute(ComputePhase::new("x", 10.0, TrafficProfile::none()));
        let mut inner = Program::new();
        inner.recv(RankId::new(2), 0);
        body.repeat(inner, 2, 1);
        let mut p = Program::new();
        p.barrier().repeat(body, 3, 10);
        // barrier + repeat + (send, recv, compute, repeat + recv)
        assert_eq!(p.len(), 7);
        assert_eq!(p.executed_len(), 1 + 3 * (3 + 2));
        let flat = p.unrolled();
        assert_eq!(flat.len() as u64, p.executed_len());
        assert_eq!(p.total_flops(), 30.0);
        assert_eq!(p.total_sent_bytes(), 24.0);
        assert_eq!(flat.total_sent_bytes(), p.total_sent_bytes());
        let tags: Vec<u64> = flat
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Send { tag, .. } | Op::Recv { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, [3, 4, 0, 1, 13, 14, 10, 11, 23, 24, 20, 21]);
    }

    #[test]
    fn collects_from_iterator() {
        let p: Program = vec![Op::Barrier, Op::Delay(1.0)].into_iter().collect();
        assert_eq!(p.len(), 2);
    }
}
