//! Differential tests for the loop IR.
//!
//! A program with nested [`Op::Repeat`]s must run exactly like its
//! [`Program::unrolled`] expansion, the flat op list that is its oracle:
//! bit-identical reports, partial metrics and traces, both fault-free and
//! through a checkpoint rollback triggered by a kill inside a loop.

use corescope_machine::engine::RankPlacement;
use corescope_machine::program::MessageCost;
use corescope_machine::{
    systems, CheckpointPolicy, ComputePhase, CoreId, Engine, FaultPlan, Machine, MemoryLayout, Op,
    Program, RankId, TraceConfig, TrafficProfile,
};
use proptest::prelude::*;

/// SplitMix64: the program generator's random stream, seeded per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn rank(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }
}

/// Builds per-rank programs one statement at a time. A statement is
/// appended to all of its ranks at once, so the programs complete for any
/// mix of eager and rendezvous sends; loops and tags work exactly as in
/// `CommWorld::repeat`.
struct Builder {
    programs: Vec<Program>,
    next_tag: u64,
}

impl Builder {
    fn new(ranks: usize) -> Self {
        Self { programs: vec![Program::new(); ranks], next_tag: 0 }
    }

    fn fresh_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag - 1
    }

    fn repeat(&mut self, count: u64, body: impl FnOnce(&mut Self)) {
        let n = self.programs.len();
        let outer = std::mem::replace(&mut self.programs, vec![Program::new(); n]);
        let first_tag = self.next_tag;
        body(self);
        let tag_stride = self.next_tag - first_tag;
        let bodies = std::mem::replace(&mut self.programs, outer);
        for (program, body) in self.programs.iter_mut().zip(bodies) {
            if !body.is_empty() {
                program.repeat(body, count, tag_stride);
            }
        }
        self.next_tag = first_tag + count * tag_stride;
    }

    fn cost(g: &mut Gen, rendezvous: bool) -> MessageCost {
        MessageCost {
            setup: g.unit() * 2e-6,
            cap: 5e8 + g.unit() * 2e9,
            sender_busy: g.unit() * 1e-6,
            rendezvous,
        }
    }

    fn bytes(g: &mut Gen) -> f64 {
        [0.0, 64.0, 1e4, 1e6][g.rank(4)]
    }

    /// Appends one random statement; loops nest at most `3 - depth` deep.
    fn statement(&mut self, g: &mut Gen, depth: u32) {
        let n = self.programs.len();
        match g.below(if depth < 3 { 8 } else { 6 }) {
            0 => {
                let phase = ComputePhase::new(
                    "work",
                    g.unit() * 1e6,
                    TrafficProfile::stream(g.unit() * 1e7),
                );
                self.programs[g.rank(n)].compute(phase);
            }
            1 => {
                let seconds = if g.below(4) == 0 { 0.0 } else { g.unit() * 1e-4 };
                self.programs[g.rank(n)].delay(seconds);
            }
            2 => {
                // Point to point, eager or rendezvous.
                let src = g.rank(n);
                let dst = (src + 1 + g.rank(n - 1)) % n;
                let tag = self.fresh_tag();
                let rendezvous = g.below(2) == 0;
                let cost = Self::cost(g, rendezvous);
                self.programs[src].send(RankId::new(dst), Self::bytes(g), tag, cost);
                self.programs[dst].recv(RankId::new(src), tag);
            }
            3 => {
                // Exchange: both send (eager), then both receive.
                let a = g.rank(n);
                let b = (a + 1 + g.rank(n - 1)) % n;
                let (t_ab, t_ba) = (self.fresh_tag(), self.fresh_tag());
                let bytes = Self::bytes(g);
                self.programs[a].send(RankId::new(b), bytes, t_ab, Self::cost(g, false));
                self.programs[b].send(RankId::new(a), bytes, t_ba, Self::cost(g, false));
                self.programs[b].recv(RankId::new(a), t_ab);
                self.programs[a].recv(RankId::new(b), t_ba);
            }
            4 => {
                for p in &mut self.programs {
                    p.barrier();
                }
            }
            5 => {
                // A ring shift over every rank.
                let tags: Vec<u64> = (0..n).map(|_| self.fresh_tag()).collect();
                let bytes = Self::bytes(g);
                for (r, &tag) in tags.iter().enumerate() {
                    let cost = Self::cost(g, false);
                    self.programs[r].send(RankId::new((r + 1) % n), bytes, tag, cost);
                }
                for r in 0..n {
                    let src = (r + n - 1) % n;
                    self.programs[r].recv(RankId::new(src), tags[src]);
                }
            }
            _ => {
                let count = g.below(4);
                let statements = 1 + g.below(4);
                self.repeat(count, |b| {
                    for _ in 0..statements {
                        b.statement(g, depth + 1);
                    }
                });
            }
        }
    }
}

fn placements(m: &Machine, ranks: usize) -> Vec<RankPlacement> {
    (0..ranks)
        .map(|core| {
            let node = m.node_of_socket(m.socket_of(CoreId::new(core)));
            RankPlacement::new(CoreId::new(core), MemoryLayout::single(node))
        })
        .collect()
}

fn unrolled(programs: &[Program]) -> Vec<Program> {
    programs.iter().map(Program::unrolled).collect()
}

/// Runs both forms untraced and traced, requiring bit-identical
/// outcomes (`Debug` prints every f64 in shortest round-trip form, so
/// equal text means equal bits). Returns the untraced loop-form outcome.
fn assert_equivalent(
    engine: &Engine<'_>,
    placements: &[RankPlacement],
    programs: &[Program],
    plan: &FaultPlan,
) -> Result<corescope_machine::Observed, TestCaseError> {
    let flat = unrolled(programs);
    for trace in [TraceConfig::off(), TraceConfig::on()] {
        let looped = engine.observe(placements, programs, plan, trace);
        let oracle = engine.observe(placements, &flat, plan, trace);
        prop_assert_eq!(format!("{looped:?}"), format!("{oracle:?}"));
    }
    Ok(engine.observe(placements, programs, plan, TraceConfig::off()))
}

fn has_loop(programs: &[Program]) -> bool {
    programs.iter().any(|p| p.ops().iter().any(|op| matches!(op, Op::Repeat { .. })))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault-free: random statement lists with nested loops.
    #[test]
    fn loops_run_exactly_like_their_unrolled_programs(
        seed in 0u64..u64::MAX,
        ranks in 2usize..5,
        statements in 1u64..10,
    ) {
        let m = Machine::new(systems::dmz());
        let engine = Engine::new(&m);
        let mut g = Gen(seed);
        let mut b = Builder::new(ranks);
        for _ in 0..statements {
            b.statement(&mut g, 0);
        }
        for p in &b.programs {
            prop_assert_eq!(p.unrolled().len() as u64, p.executed_len());
        }
        let observed =
            assert_equivalent(&engine, &placements(&m, ranks), &b.programs, &FaultPlan::new())?;
        prop_assert!(observed.result.is_ok(), "generated programs always complete");
    }

    /// A checkpointed run whose kill lands inside the outer loop replays
    /// the rollback exactly as the unrolled program does.
    #[test]
    fn a_kill_inside_a_loop_rolls_back_like_the_unrolled_program(
        seed in 0u64..u64::MAX,
        ranks in 2usize..5,
        count in 2u64..5,
        statements in 2u64..6,
        kill_at in 0.2f64..0.8,
        intervals in 2u32..6,
    ) {
        let m = Machine::new(systems::dmz());
        let placements = placements(&m, ranks);
        let mut g = Gen(seed);
        let mut b = Builder::new(ranks);
        b.repeat(count, |b| {
            // A compute phase per rank keeps every rank busy in the loop.
            for r in 0..ranks {
                b.programs[r].compute(ComputePhase::new("work", 0.0, TrafficProfile::stream(1e7)));
            }
            for _ in 0..statements {
                b.statement(&mut g, 1);
            }
        });
        prop_assert!(has_loop(&b.programs));
        let report = Engine::new(&m).run(&placements, &b.programs).unwrap();
        // Kill the last rank to finish, mid-run: it is inside the loop.
        let victim = (0..ranks)
            .max_by(|&x, &y| report.rank_finish[x].total_cmp(&report.rank_finish[y]))
            .unwrap();
        let policy = CheckpointPolicy::new(report.makespan / f64::from(intervals), 1e6)
            .with_restart_delay(report.makespan * 0.05);
        let engine = Engine::new(&m).with_recovery(policy);
        let plan = FaultPlan::new().rank_kill(report.makespan * kill_at, RankId::new(victim));
        let observed = assert_equivalent(&engine, &placements, &b.programs, &plan)?;
        let recovered = observed.result.unwrap();
        prop_assert_eq!(recovered.metrics.recoveries, 1);
    }
}
