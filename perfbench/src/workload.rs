//! The four workloads: what each one runs and how its outputs are
//! checked.
//!
//! Sizing guard: runs are sized by `maps` (and by how many campaigns fit
//! in the run), never by trace length. The engine records trace
//! templates only up to [`TEMPLATE_MAX_INSTRS`] instructions per trial;
//! a longer trace silently moves every trial from template resolve to
//! the CFG walker, which would turn `sweep-checked` and `serve-mixed`
//! into different workloads. Each workload declares the resolve path it
//! measures, and [`ResolvePath::of`] refuses a configuration that takes
//! the other one.

use std::collections::HashMap;

use dvs_core::{CellKey, EvalConfig, EvalError, ExperimentPlan, Scheme, SchemeRun};
use dvs_sram::MilliVolts;
use dvs_workloads::Benchmark;

/// Mirror of the engine's template limit (`Evaluator::TEMPLATE_MAX_INSTRS`
/// in `crates/core/src/eval.rs`): above it trials walk the CFG.
pub const TEMPLATE_MAX_INSTRS: usize = 50_000;

/// The voltage ladder every sweep covers, in millivolts.
pub const LADDER_MV: [u32; 6] = [760, 560, 520, 480, 440, 400];

/// Engine root seeds a run draws from. `--seed n` starts at pool entry
/// `n % POOL` and each further round moves to the next entry, so every
/// output a run can produce has a checked-in digest.
pub const POOL: u64 = 16;

/// The engine root seed of pool entry `p`.
pub fn root_seed(p: u64) -> u64 {
    0x5eed_0000 + (p % POOL)
}

/// Engine worker threads: one per available core, as the issue's
/// workloads specify.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FFW+BBR over bench10 × the ladder, figure configuration.
    SweepFig,
    /// The Fig. 10–12 competitors that skip BBR, figure configuration.
    SweepBaselines,
    /// FFW+BBR on the template path with validation and a recorder.
    SweepChecked,
    /// A `dvs-serve` daemon under a campaign client and a query stream.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepFig,
        Workload::SweepBaselines,
        Workload::SweepChecked,
        Workload::ServeMixed,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepFig => "sweep-fig",
            Workload::SweepBaselines => "sweep-baselines",
            Workload::SweepChecked => "sweep-checked",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep shape, or `None` for the serve workload.
    pub fn sweep(self) -> Option<SweepShape> {
        let baselines = vec![
            Scheme::DefectFree,
            Scheme::EightT,
            Scheme::SimpleWdis,
            Scheme::WilkersonPlus,
            Scheme::FbaPlus,
            Scheme::IdcPlus,
            Scheme::TsCache,
        ];
        match self {
            Workload::SweepFig => Some(SweepShape {
                schemes: vec![Scheme::FfwBbr],
                trace_instrs: EvalConfig::standard().trace_instrs,
                maps: 1,
                checked: false,
                split_schemes: false,
                path: ResolvePath::Walker,
            }),
            Workload::SweepBaselines => Some(SweepShape {
                schemes: baselines,
                trace_instrs: EvalConfig::standard().trace_instrs,
                maps: 1,
                checked: false,
                split_schemes: true,
                path: ResolvePath::Walker,
            }),
            Workload::SweepChecked => Some(SweepShape {
                schemes: vec![Scheme::FfwBbr],
                trace_instrs: EvalConfig::quick().trace_instrs,
                maps: EvalConfig::quick().maps,
                checked: true,
                split_schemes: false,
                path: ResolvePath::Template,
            }),
            Workload::ServeMixed => None,
        }
    }
}

/// How trials obtain their instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvePath {
    /// A recorded trace template resolved against each trial's layout.
    Template,
    /// A fresh CFG walk per trial.
    Walker,
}

impl ResolvePath {
    /// The path the engine takes under `cfg`.
    pub fn of(cfg: &EvalConfig) -> ResolvePath {
        if cfg.reuse_buffers && cfg.trace_instrs <= TEMPLATE_MAX_INSTRS {
            ResolvePath::Template
        } else {
            ResolvePath::Walker
        }
    }

    /// The name printed in run logs and the doc.
    pub fn name(self) -> &'static str {
        match self {
            ResolvePath::Template => "template",
            ResolvePath::Walker => "walker",
        }
    }

    /// Fails when `cfg` would take another path than `self`.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn guard(self, cfg: &EvalConfig) -> Result<(), String> {
        let actual = ResolvePath::of(cfg);
        if actual == self {
            Ok(())
        } else {
            Err(format!(
                "sizing guard: {} instructions per trial take the {} path, not the {} path \
                 this workload measures; size runs by maps, not trace length",
                cfg.trace_instrs,
                actual.name(),
                self.name()
            ))
        }
    }
}

/// One sweep workload's grid and engine configuration.
#[derive(Debug, Clone)]
pub struct SweepShape {
    /// Schemes of the grid.
    pub schemes: Vec<Scheme>,
    /// Dynamic instructions per trial.
    pub trace_instrs: usize,
    /// Fault maps per faulty cell.
    pub maps: u64,
    /// `validate_images` on and a `MetricsRegistry` attached.
    pub checked: bool,
    /// One campaign per (benchmark, scheme) instead of per benchmark.
    pub split_schemes: bool,
    /// The resolve path this workload measures.
    pub path: ResolvePath,
}

impl SweepShape {
    /// The engine configuration for pool entry `pool`.
    pub fn config(&self, pool: u64) -> EvalConfig {
        EvalConfig {
            trace_instrs: self.trace_instrs,
            maps: self.maps,
            seed: root_seed(pool),
            threads: nproc(),
            validate_images: self.checked,
            ..EvalConfig::standard()
        }
    }

    /// One round of campaigns, benchmark-major so every prefix of a
    /// round mixes the schemes evenly.
    pub fn campaigns(&self) -> Vec<ExperimentPlan> {
        let ladder: Vec<MilliVolts> = LADDER_MV.iter().map(|&mv| MilliVolts::new(mv)).collect();
        let mut out = Vec::new();
        for b in Benchmark::ALL {
            if self.split_schemes {
                for &s in &self.schemes {
                    out.push(ExperimentPlan::for_grid(&[b], &[s], &ladder));
                }
            } else {
                out.push(ExperimentPlan::for_grid(&[b], &self.schemes, &ladder));
            }
        }
        out
    }
}

/// FNV-1a accumulator for result digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a campaign's results: every cell's identity, link-failure
/// count and every trial's full `SimResult`, in plan order.
pub fn digest_results(results: &[(CellKey, Result<std::sync::Arc<SchemeRun>, EvalError>)]) -> u64 {
    let mut d = Digest::default();
    for (key, r) in results {
        d.bytes(key.to_string().as_bytes());
        match r {
            Ok(run) => {
                d.u64(run.failed_links);
                d.u64(run.trials.len() as u64);
                for t in &run.trials {
                    digest_sim(&mut d, &t.result);
                }
            }
            Err(e) => d.bytes(e.to_string().as_bytes()),
        }
    }
    d.value()
}

/// Mixes every field of a `SimResult` into `d`.
pub fn digest_sim(d: &mut Digest, r: &dvs_cpu::SimResult) {
    let m = &r.mem;
    for v in [
        r.instructions,
        r.synthetic,
        r.cycles,
        r.branches,
        r.mispredicts,
        m.l1i_accesses,
        m.l1i_misses,
        m.l1i_word_misses,
        m.l1d_loads,
        m.l1d_stores,
        m.l1d_load_misses,
        m.l1d_word_misses,
        m.l2_accesses,
        m.l2_misses,
        m.l2_writebacks,
    ] {
        d.u64(v);
    }
}

/// Checked-in digests: (workload, pool entry, campaign index) → digest.
/// Serve digests use campaign index 0 for the first
/// [`crate::serve::DIGEST_CAMPAIGNS`] campaigns of a run.
pub struct DigestTable(HashMap<(String, u64, usize), u64>);

/// The table's file, relative to the benchmark's directory.
pub const DIGEST_FILE: &str = "digests.tsv";

impl DigestTable {
    /// Parses the tab-separated table (`workload pool index digest`).
    ///
    /// # Errors
    ///
    /// A malformed line.
    pub fn parse(text: &str) -> Result<DigestTable, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("{DIGEST_FILE}:{}: malformed line {line:?}", i + 1);
            if f.len() != 4 {
                return Err(bad());
            }
            let pool = f[1].parse().map_err(|_| bad())?;
            let idx = f[2].parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(f[3], 16).map_err(|_| bad())?;
            map.insert((f[0].to_string(), pool, idx), digest);
        }
        Ok(DigestTable(map))
    }

    /// The expected digest, if the table has one.
    pub fn get(&self, w: Workload, pool: u64, idx: usize) -> Option<u64> {
        self.0
            .get(&(w.name().to_string(), pool % POOL, idx))
            .copied()
    }
}

/// Renders one table line.
pub fn digest_line(w: Workload, pool: u64, idx: usize, digest: u64) -> String {
    format!("{}\t{pool}\t{idx}\t{digest:016x}", w.name())
}

/// A short, metric-name-safe slug for a scheme.
pub fn scheme_slug(s: Scheme) -> &'static str {
    match s {
        Scheme::Baseline760 => "baseline-760",
        Scheme::DefectFree => "defect-free",
        Scheme::FfwBbr => "ffw-bbr",
        Scheme::EightT => "eight-t",
        Scheme::SimpleWdis => "simple-wdis",
        Scheme::WilkersonPlus => "wilkerson-plus",
        Scheme::Fba => "fba",
        Scheme::FbaPlus => "fba-plus",
        Scheme::Idc => "idc",
        Scheme::IdcPlus => "idc-plus",
        Scheme::WordSub => "word-sub",
        Scheme::LineDisable => "line-disable",
        Scheme::WayDisable => "way-disable",
        Scheme::TsCache => "ts-cache",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_guard_pins_each_workload_to_its_resolve_path() {
        for w in Workload::ALL {
            if let Some(shape) = w.sweep() {
                shape.path.guard(&shape.config(0)).unwrap();
            }
        }
        // Growing the checked sweep's trace past the template limit
        // silently switches it to the walker; the guard refuses that.
        let shape = Workload::SweepChecked.sweep().unwrap();
        let mut cfg = shape.config(0);
        cfg.trace_instrs = TEMPLATE_MAX_INSTRS + 1;
        assert!(shape.path.guard(&cfg).unwrap_err().contains("walker"));
        cfg.trace_instrs = TEMPLATE_MAX_INSTRS;
        shape.path.guard(&cfg).unwrap();
    }

    #[test]
    fn digest_table_round_trips() {
        let line = digest_line(Workload::SweepFig, 3, 7, 0xdead_beef);
        let table = DigestTable::parse(&format!("# header\n{line}\n")).unwrap();
        assert_eq!(table.get(Workload::SweepFig, 3, 7), Some(0xdead_beef));
        assert_eq!(
            table.get(Workload::SweepFig, 3 + POOL, 7),
            Some(0xdead_beef)
        );
        assert_eq!(table.get(Workload::SweepChecked, 3, 7), None);
        assert!(DigestTable::parse("sweep-fig\t1\t2\n").is_err());
    }

    #[test]
    fn rounds_cover_bench10_and_the_ladder() {
        let fig = Workload::SweepFig.sweep().unwrap().campaigns();
        assert_eq!(fig.len(), 10);
        assert!(fig.iter().all(|p| p.len() == LADDER_MV.len()));
        let base = Workload::SweepBaselines.sweep().unwrap().campaigns();
        assert_eq!(base.len(), 70);
        assert_eq!(base[0].cells()[0].scheme, Scheme::DefectFree);
        assert_eq!(base[1].cells()[0].scheme, Scheme::EightT);
    }
}
