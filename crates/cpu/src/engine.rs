//! The scoreboard timing engine.
//!
//! A timestamp-based model: each instruction's fetch, issue, completion
//! and retire cycles are computed in program order under the structural
//! constraints of [`CoreConfig`]. This resolves to the same first-order
//! behaviour as a cycle-stepped in-order dual-issue core at a fraction of
//! the cost, and it is exactly deterministic.

use std::collections::VecDeque;

use dvs_workloads::{OpClass, TraceOp};

use crate::{BimodalPredictor, Btb, CoreConfig, MemSystem, SimResult};

/// Runs `trace` to exhaustion on a core described by `config` against the
/// memory system `mem`, returning the aggregate result.
///
/// The simulation is a pure function of its inputs: the same trace, memory
/// system and configuration always produce the same cycle count.
pub fn simulate(
    config: &CoreConfig,
    mem: MemSystem,
    trace: impl Iterator<Item = TraceOp>,
) -> SimResult {
    let mut core = Core::new(config, mem);
    for op in trace {
        core.step(op);
    }
    core.finish()
}

/// A core part-way through a trace: [`simulate`] with its loop turned
/// inside out, so a caller can feed ops one at a time — for instance
/// from a walk shared with other cores — and stop whenever it likes.
///
/// `Core::new` + [`Core::step`] per op + [`Core::finish`] is exactly
/// [`simulate`] over the same ops; `simulate` is that loop.
#[derive(Debug)]
pub struct Core<'c> {
    config: &'c CoreConfig,
    mem: MemSystem,
    bht: BimodalPredictor,
    btb: Btb,
    /// Hit latency of the L1I including the scheme's extra cycle — the
    /// front-end pipeline depth that streaming fetch hides and redirects
    /// expose.
    l1i_hit: u64,
    reg_ready: [u64; 32],
    int_alu: Vec<u64>,
    int_mult: Vec<u64>,
    fp_alu: Vec<u64>,
    fp_mult: Vec<u64>,
    rob: VecDeque<u64>,
    lsq: VecDeque<u64>,
    fetch_cycle: u64,
    fetched_in_cycle: u32,
    pending_redirect: Option<u64>,
    last_issue: u64,
    issued_in_cycle: u32,
    last_retire: u64,
    instructions: u64,
    synthetic: u64,
    branches: u64,
    mispredicts: u64,
}

impl<'c> Core<'c> {
    /// A core at cycle 0 with cold predictors, running against `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid ([`CoreConfig::validate`]).
    pub fn new(config: &'c CoreConfig, mem: MemSystem) -> Self {
        config.validate();
        let l1i_hit =
            u64::from(mem.latency().l1_hit_cycles) + u64::from(mem.l1i().extra_hit_cycles());
        Core {
            config,
            bht: BimodalPredictor::new(config.bht_entries),
            btb: Btb::new(config.btb_entries, config.btb_ways),
            l1i_hit,
            mem,
            reg_ready: [0; 32],
            int_alu: vec![0; config.int_alu_units as usize],
            int_mult: vec![0; config.int_mult_units as usize],
            fp_alu: vec![0; config.fp_alu_units as usize],
            fp_mult: vec![0; config.fp_mult_units as usize],
            rob: VecDeque::with_capacity(config.rob_entries as usize),
            lsq: VecDeque::with_capacity(config.lsq_entries as usize),
            fetch_cycle: 0,
            fetched_in_cycle: 0,
            pending_redirect: None,
            last_issue: 0,
            issued_in_cycle: 0,
            last_retire: 0,
            instructions: 0,
            synthetic: 0,
            branches: 0,
            mispredicts: 0,
        }
    }

    /// Instructions stepped so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Fetches, issues, executes and retires one instruction.
    #[inline]
    pub fn step(&mut self, op: TraceOp) {
        let config = self.config;
        let l1i_hit = self.l1i_hit;
        self.instructions += 1;
        if op.synthetic {
            self.synthetic += 1;
        }

        // ---- Fetch ----
        if self.fetched_in_cycle == config.width {
            self.fetch_cycle += 1;
            self.fetched_in_cycle = 0;
        }
        if let Some(t) = self.pending_redirect.take() {
            self.fetch_cycle = self.fetch_cycle.max(t);
            self.fetched_in_cycle = 0;
        }
        let fetch_lat = self.mem.fetch(op.pc);
        if fetch_lat > l1i_hit {
            // I-cache miss: the stream stalls by the excess latency (hit
            // latency itself is pipelined away while streaming).
            self.fetch_cycle += fetch_lat - l1i_hit;
        }
        let fetch_done = self.fetch_cycle + l1i_hit;
        self.fetched_in_cycle += 1;

        // ---- Issue (in-order, width per cycle) ----
        let mut t = fetch_done.max(self.last_issue);
        for r in [op.src1, op.src2].into_iter().flatten() {
            t = t.max(self.reg_ready[r as usize]);
        }
        if self.rob.len() == config.rob_entries as usize {
            let oldest = self.rob.pop_front().expect("rob nonempty");
            t = t.max(oldest);
        }
        let is_mem = matches!(op.class, OpClass::Load | OpClass::Store);
        if is_mem && self.lsq.len() == config.lsq_entries as usize {
            let oldest = self.lsq.pop_front().expect("lsq nonempty");
            t = t.max(oldest);
        }
        // Functional unit: loads, stores and branches use an integer ALU
        // slot (address generation / condition resolution).
        let pool: &mut Vec<u64> = match op.class {
            OpClass::IntMult => &mut self.int_mult,
            OpClass::FpAlu => &mut self.fp_alu,
            OpClass::FpMult => &mut self.fp_mult,
            _ => &mut self.int_alu,
        };
        let (unit_idx, unit_free) = pool
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, free)| free)
            .expect("unit pools are nonempty");
        t = t.max(unit_free);
        if t == self.last_issue && self.issued_in_cycle == config.width {
            t += 1;
        }
        if t > self.last_issue {
            self.last_issue = t;
            self.issued_in_cycle = 0;
        }
        self.issued_in_cycle += 1;
        pool[unit_idx] = t + 1; // fully pipelined units

        // ---- Execute ----
        let exec_lat = match op.class {
            OpClass::IntAlu | OpClass::Branch => 1,
            OpClass::IntMult => u64::from(config.int_mult_latency),
            OpClass::FpAlu => u64::from(config.fp_alu_latency),
            OpClass::FpMult => u64::from(config.fp_mult_latency),
            OpClass::Load => self.mem.load(op.mem_addr.expect("loads carry addresses")),
            OpClass::Store => {
                self.mem.store(op.mem_addr.expect("stores carry addresses"));
                1
            }
        };
        let complete = t + exec_lat;
        if let Some(d) = op.dest {
            self.reg_ready[d as usize] = complete;
        }

        // ---- Retire (in order) ----
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.rob.push_back(retire);
        if is_mem {
            self.lsq.push_back(retire);
        }

        // ---- Control flow ----
        if let Some(info) = op.branch {
            self.branches += 1;
            let pred_taken = self.bht.predict(op.pc);
            let pred_target = self.btb.lookup(op.pc);
            let correct =
                pred_taken == info.taken && (!info.taken || pred_target == Some(info.target));
            self.bht.update(op.pc, info.taken);
            if info.taken {
                self.btb.update(op.pc, info.target);
            }
            if correct {
                if info.taken {
                    // Predicted-taken redirect: the target fetch starts only
                    // once the taken prediction emerges from the fetch
                    // pipeline — a full I-cache-depth bubble, so deeper
                    // (slower) I-caches pay more per taken branch. This is
                    // the front-end half of the paper's L1-latency
                    // sensitivity (Figure 10).
                    self.pending_redirect = Some(self.fetch_cycle + l1i_hit);
                }
            } else {
                self.mispredicts += 1;
                // The front end restarts after resolution plus the refill
                // penalty.
                self.pending_redirect = Some(complete + u64::from(config.mispredict_penalty));
            }
        }
    }

    /// Ends the run: drains the memory system's statistics and returns
    /// the aggregate result.
    pub fn finish(self) -> SimResult {
        let recorder = self.mem.recorder().cloned();
        let result = SimResult {
            instructions: self.instructions,
            synthetic: self.synthetic,
            cycles: self.last_retire.max(1),
            mem: self.mem.finish(),
            branches: self.branches,
            mispredicts: self.mispredicts,
        };
        if let Some(rec) = recorder {
            rec.add("cpu.instructions", result.instructions);
            rec.add("cpu.synthetic_instructions", result.synthetic);
            rec.add("cpu.cycles", result.cycles);
            rec.add("cpu.branches", result.branches);
            rec.add("cpu.mispredicts", result.mispredicts);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_schemes::{L1Cache, SchemeKind};
    use dvs_sram::{CacheGeometry, FaultMap, MilliVolts, PfailModel};
    use dvs_workloads::{Benchmark, BranchInfo, Layout};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clean_mem(kind: SchemeKind) -> MemSystem {
        let geom = CacheGeometry::dsn_l1();
        MemSystem::new(
            L1Cache::new(kind, FaultMap::fault_free(&geom)),
            L1Cache::new(kind, FaultMap::fault_free(&geom)),
            1607,
        )
    }

    fn run_benchmark(b: Benchmark, kind: SchemeKind, n: usize) -> SimResult {
        let wl = b.build(1);
        let layout = Layout::sequential(wl.program());
        simulate(
            &CoreConfig::dsn2016(),
            clean_mem(kind),
            wl.trace(&layout, 0).take(n),
        )
    }

    fn alu(pc: u64, dest: Option<u8>, src1: Option<u8>) -> TraceOp {
        TraceOp {
            pc,
            class: OpClass::IntAlu,
            mem_addr: None,
            dest,
            src1,
            src2: None,
            branch: None,
            synthetic: false,
        }
    }

    #[test]
    fn stepping_a_core_is_simulate() {
        let wl = Benchmark::Basicmath.build(3);
        let layout = Layout::sequential(wl.program());
        let config = CoreConfig::dsn2016();
        let whole = simulate(
            &config,
            clean_mem(SchemeKind::EightT),
            wl.trace(&layout, 0).take(20_000),
        );
        let mut core = Core::new(&config, clean_mem(SchemeKind::EightT));
        for op in wl.trace(&layout, 0).take(20_000) {
            core.step(op);
        }
        assert_eq!(core.instructions(), 20_000);
        assert_eq!(core.finish(), whole);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run_benchmark(Benchmark::Qsort, SchemeKind::Conventional, 30_000);
        let b = run_benchmark(Benchmark::Qsort, SchemeKind::Conventional, 30_000);
        assert_eq!(a, b);
    }

    #[test]
    fn ipc_is_plausible_for_a_2_wide_core() {
        for b in [Benchmark::Crc32, Benchmark::Basicmath, Benchmark::Mcf] {
            let r = run_benchmark(b, SchemeKind::Conventional, 50_000);
            let ipc = r.ipc();
            assert!((0.2..=2.0).contains(&ipc), "{b}: ipc {ipc}");
        }
    }

    #[test]
    fn independent_alus_dual_issue() {
        // 4000 independent 1-cycle ALU ops in a 2-block loop (warm
        // I-cache): ~half as many cycles on a 2-wide core.
        let ops = (0..4000).map(|i| alu((i % 16) * 4, Some((i % 14) as u8 + 2), None));
        let r = simulate(
            &CoreConfig::dsn2016(),
            clean_mem(SchemeKind::Conventional),
            ops,
        );
        assert!(r.ipc() > 1.6, "ipc {}", r.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // Each op reads the previous op's destination: 1 IPC ceiling.
        let ops = (0..100).map(|i| alu(i * 4, Some(5), Some(5)));
        let r = simulate(
            &CoreConfig::dsn2016(),
            clean_mem(SchemeKind::Conventional),
            ops,
        );
        assert!(r.cycles >= 100, "cycles {}", r.cycles);
    }

    #[test]
    fn load_to_use_stall_is_visible() {
        // load → dependent ALU, repeated on the same (warm) address.
        let mk = |dep: bool| {
            let ops: Vec<TraceOp> = (0..2000u64)
                .flat_map(|i| {
                    let pc = (i % 4) * 8; // warm, single-block code footprint
                    let load = TraceOp {
                        pc,
                        class: OpClass::Load,
                        mem_addr: Some(0x4000_0000),
                        dest: Some(4),
                        src1: None,
                        src2: None,
                        branch: None,
                        synthetic: false,
                    };
                    let use_op = alu(pc + 4, Some(5), if dep { Some(4) } else { None });
                    [load, use_op]
                })
                .collect();
            simulate(
                &CoreConfig::dsn2016(),
                clean_mem(SchemeKind::Conventional),
                ops.into_iter(),
            )
        };
        let dependent = mk(true);
        let independent = mk(false);
        assert!(
            dependent.cycles > independent.cycles + 1000,
            "dep {} vs indep {}",
            dependent.cycles,
            independent.cycles
        );
    }

    #[test]
    fn one_extra_l1_cycle_costs_double_digit_percent() {
        // The paper's central observation (Figure 10): at 560 mV the
        // +1-cycle schemes lose heavily even with zero defects.
        for b in [Benchmark::Mcf, Benchmark::Basicmath] {
            let base = run_benchmark(b, SchemeKind::Conventional, 60_000);
            let slow = run_benchmark(b, SchemeKind::EightT, 60_000);
            let ratio = slow.cycles as f64 / base.cycles as f64;
            assert!(
                ratio > 1.06,
                "{b}: +1 cycle only cost {:.1}%",
                (ratio - 1.0) * 100.0
            );
            assert!(ratio < 2.0, "{b}: implausibly slow ({ratio})");
        }
    }

    #[test]
    fn defective_words_increase_l2_traffic_and_runtime() {
        let geom = CacheGeometry::dsn_l1();
        let model = PfailModel::dsn45();
        let p_word = model.pfail_word(MilliVolts::new(400));
        let fmap = FaultMap::sample(&geom, p_word, &mut StdRng::seed_from_u64(7));
        let wl = Benchmark::Dijkstra.build(1);
        let layout = Layout::sequential(wl.program());

        let clean = simulate(
            &CoreConfig::dsn2016(),
            clean_mem(SchemeKind::Conventional),
            wl.trace(&layout, 0).take(60_000),
        );
        let faulty_mem = MemSystem::new(
            L1Cache::new(SchemeKind::SimpleWordDisable, fmap.clone()),
            L1Cache::new(SchemeKind::SimpleWordDisable, fmap),
            1607,
        );
        let wdis = simulate(
            &CoreConfig::dsn2016(),
            faulty_mem,
            wl.trace(&layout, 0).take(60_000),
        );
        assert!(wdis.l2_per_kilo_instr() > 2.0 * clean.l2_per_kilo_instr());
        assert!(wdis.cycles as f64 > 1.3 * clean.cycles as f64);
    }

    #[test]
    fn mispredicts_are_counted_and_penalized() {
        // A branch whose outcome alternates defeats the bimodal predictor.
        let mk = |alternating: bool| {
            let ops: Vec<TraceOp> = (0..400)
                .map(|i| TraceOp {
                    pc: 0x100,
                    class: OpClass::Branch,
                    mem_addr: None,
                    dest: None,
                    src1: None,
                    src2: None,
                    branch: Some(BranchInfo {
                        taken: if alternating { i % 2 == 0 } else { true },
                        target: 0x100,
                    }),
                    synthetic: false,
                })
                .collect();
            simulate(
                &CoreConfig::dsn2016(),
                clean_mem(SchemeKind::Conventional),
                ops.into_iter(),
            )
        };
        let flaky = mk(true);
        let steady = mk(false);
        assert!(flaky.mispredicts > 100);
        assert!(steady.mispredicts < 10);
        assert!(flaky.cycles > steady.cycles);
        assert!(flaky.mispredict_rate() > 0.4);
    }

    #[test]
    fn rob_bounds_inflight_instructions() {
        // A DRAM-latency load followed by thousands of independent ALU ops:
        // with a 128-entry ROB the core cannot run arbitrarily far ahead.
        let tiny_rob = CoreConfig {
            rob_entries: 4,
            ..CoreConfig::dsn2016()
        };
        let mk = |cfg: &CoreConfig| {
            let mut ops = vec![TraceOp {
                pc: 0,
                class: OpClass::Load,
                mem_addr: Some(0x7000_0000),
                dest: Some(4),
                src1: None,
                src2: None,
                branch: None,
                synthetic: false,
            }];
            ops.extend((1..500).map(|i| alu(i * 4, Some((i % 10) as u8 + 2), None)));
            simulate(cfg, clean_mem(SchemeKind::Conventional), ops.into_iter())
        };
        let big = mk(&CoreConfig::dsn2016());
        let small = mk(&tiny_rob);
        assert!(small.cycles >= big.cycles);
    }

    #[test]
    fn branch_heavy_code_pays_more_with_slow_icache() {
        // Taken-branch redirects expose the I-cache pipeline depth.
        let r_fast = run_benchmark(Benchmark::Patricia, SchemeKind::Conventional, 50_000);
        let r_slow = run_benchmark(Benchmark::Patricia, SchemeKind::EightT, 50_000);
        assert!(r_slow.cycles > r_fast.cycles);
    }

    #[test]
    fn stats_conserve_instruction_count() {
        let r = run_benchmark(Benchmark::Adpcm, SchemeKind::Conventional, 40_000);
        assert_eq!(r.instructions, 40_000);
        assert_eq!(r.mem.l1i_accesses, 40_000);
        let mem_ops = r.mem.l1d_loads + r.mem.l1d_stores;
        assert!(mem_ops > 10_000 && mem_ops < 25_000, "mem ops {mem_ops}");
        assert!(r.branches > 3_000);
    }
}
