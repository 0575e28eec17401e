//! The traced run: a single-threaded replica of the engine's trial path
//! built from each layer's public functions, with a span around every
//! layer call, checked bit for bit against the engine.
//!
//! The replica mirrors three engine details that decide results:
//!
//! * the ladder probability clamp (`crates/core/src/engine.rs`,
//!   `ChainEntry::advance`): each rung's word-failure probability is
//!   clamped to at least the chain's current one;
//! * the adaptive BBR split threshold
//!   (`adaptive_max_block_words(point.pfail_word())` unless the config
//!   fixes one);
//! * the 50 k template limit ([`TEMPLATE_MAX_INSTRS`]): templates are
//!   recorded only up to it, with the engine's recording budget, and a
//!   template that runs out falls back to a fresh walk.
//!
//! Every replayed cell is also run by a fresh `Evaluator`; if any trial's
//! `SimResult` or any link-failure count differs, the run reports
//! `"correct": false` and the per-layer numbers are withheld.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvs_analysis::{analyze_image, check_trace_equivalence, EquivConfig, Severity};
use dvs_core::{
    CellKey, EvalConfig, EvalError, Evaluator, ExperimentPlan, ResultStore, Scheme, SchemeRun,
    StoreKey, StoredCell,
};
use dvs_cpu::{simulate, CoreConfig, MemSystem, SimResult};
use dvs_linker::{adaptive_max_block_words, bbr_transform, BbrLinker};
use dvs_obs::MetricsRegistry;
use dvs_schemes::L1Cache;
use dvs_serve::api::CampaignSpec;
use dvs_sram::montecarlo::trial_seed;
use dvs_sram::{ladder_mv, CacheGeometry, FaultChain, FaultMap, MilliVolts, PfailModel};
use dvs_workloads::{
    Benchmark, Layout, Program, TraceOp, TraceTemplate, Workload as BenchWorkload,
};

use crate::serve::{self, Session};
use crate::stats::{median, percentile, ratio, Timed};
use crate::sweep::round_pool;
use crate::trace::Tracer;
use crate::workload::{
    digest_line, digest_results, scheme_slug, DigestTable, ResolvePath, Workload, POOL,
};
use crate::{work_dir, Metric, Outcome};

/// Campaigns at the start of a traced run that are also timed with the
/// reuse arena off and with the recorder toggled.
const AB_CAMPAIGNS: usize = 6;

/// Schemes with their own `cpu.ns_per_instr.<slug>` metric.
const SCHEME_METRICS: [Scheme; 8] = [
    Scheme::FfwBbr,
    Scheme::DefectFree,
    Scheme::EightT,
    Scheme::SimpleWdis,
    Scheme::WilkersonPlus,
    Scheme::FbaPlus,
    Scheme::IdcPlus,
    Scheme::TsCache,
];

/// Layer spans, in report order; each reports `<name>_ns` (mean self
/// time per call) and `<name>_calls`.
const SPANS: [&str; 12] = [
    "sram.fault_map",
    "linker.transform",
    "linker.link",
    "analysis.validate",
    "analysis.equiv",
    "workloads.build",
    "workloads.template_record",
    "workloads.resolve",
    "workloads.walk",
    "schemes.l1_build",
    "cache.memsys_build",
    "cpu.simulate",
];

/// One replayed cell.
#[derive(Debug, Default, PartialEq)]
struct ReplicaCell {
    trials: Vec<SimResult>,
    failed_links: u64,
    invalid: u64,
}

/// Counters the replica accumulates beside its spans.
#[derive(Default)]
struct Acc {
    maps: u64,
    faulty_words: u64,
    links: u64,
    link_fails: u64,
    link_repeats: u64,
    seen_links: HashSet<(Benchmark, u32, Vec<u64>)>,
    sim: BTreeMap<&'static str, (u64, u64)>,
    l1d_loads: u64,
    l1d_misses: u64,
    l2: u64,
    instrs: u64,
    trials: u64,
    next_trial: u64,
}

impl Acc {
    fn add_sim(&mut self, key: &'static str, ns: u64, instrs: u64) {
        let e = self.sim.entry(key).or_default();
        e.0 += ns;
        e.1 += instrs;
    }

    fn ns_per_instr(&self, key: &str) -> f64 {
        self.sim
            .get(key)
            .map_or(0.0, |&(ns, n)| ratio(ns as f64, n as f64))
    }
}

/// Per-campaign artifacts, rebuilt for every campaign as a fresh
/// evaluator rebuilds them.
#[derive(Default)]
struct Artifacts {
    built: HashMap<Benchmark, Arc<(BenchWorkload, Layout)>>,
    transformed: HashMap<(Benchmark, u32), Arc<Program>>,
    equiv: HashMap<(Benchmark, u32), bool>,
    templates: HashMap<(Benchmark, Option<u32>), Arc<TraceTemplate>>,
}

fn fault_map(
    tr: &mut Tracer,
    geometry: &CacheGeometry,
    cfg: &EvalConfig,
    seed_base: u64,
    trial: u64,
    side: u8,
    vcc_mv: u32,
) -> FaultMap {
    tr.span("sram.fault_map", |_| {
        let seed = trial_seed(seed_base, 2 * trial + u64::from(side));
        let mut chain = FaultChain::with_model(geometry, seed, cfg.fault_model);
        let model = PfailModel::dsn45();
        for mv in ladder_mv(vcc_mv) {
            // The engine's clamp: probabilities must not fall down the ladder.
            let p = model.pfail_word(MilliVolts::new(mv)).max(chain.p_current());
            chain.advance_to(p);
        }
        chain.into_map()
    })
}

#[allow(clippy::too_many_lines)]
fn replay_campaign(
    tr: &mut Tracer,
    acc: &mut Acc,
    cfg: &EvalConfig,
    plan: &ExperimentPlan,
) -> Vec<(CellKey, ReplicaCell)> {
    let core = CoreConfig::dsn2016();
    let geometry = CacheGeometry::dsn_l1();
    let templated = ResolvePath::of(cfg) == ResolvePath::Template;
    let budget = cfg.trace_instrs + cfg.trace_instrs / 4 + 64;
    let mut art = Artifacts::default();
    let mut out = Vec::new();
    for &key in plan.cells() {
        let bench = key.benchmark;
        let built = art
            .built
            .entry(bench)
            .or_insert_with(|| {
                tr.span("workloads.build", |_| {
                    let w = bench.build(cfg.seed);
                    let seq = Layout::sequential(w.program());
                    Arc::new((w, seq))
                })
            })
            .clone();
        let (workload, seq_layout) = (&built.0, &built.1);
        let point = key.point();
        let bbr = key.scheme.needs_bbr_link();
        let max_words = bbr.then(|| {
            cfg.bbr_max_block_words
                .unwrap_or_else(|| adaptive_max_block_words(point.pfail_word()))
        });
        let transformed = max_words.map(|mw| {
            art.transformed
                .entry((bench, mw))
                .or_insert_with(|| {
                    tr.span("linker.transform", |_| {
                        Arc::new(bbr_transform(workload.program(), mw))
                    })
                })
                .clone()
        });
        let equiv_ok = match (max_words, &transformed) {
            (Some(mw), Some(t)) if cfg.validate_images => {
                *art.equiv.entry((bench, mw)).or_insert_with(|| {
                    tr.span("analysis.equiv", |_| {
                        check_trace_equivalence(workload.program(), t, &EquivConfig::default())
                            .is_ok()
                    })
                })
            }
            _ => true,
        };
        let template = templated.then(|| {
            art.templates
                .entry((bench, max_words))
                .or_insert_with(|| {
                    tr.span("workloads.template_record", |_| {
                        let t = match &transformed {
                            Some(t) => {
                                let seq = Layout::sequential(t);
                                TraceTemplate::record(
                                    &mut workload.trace_program(t, &seq, 0),
                                    budget,
                                )
                            }
                            None => TraceTemplate::record(
                                &mut workload.trace_program(workload.program(), seq_layout, 0),
                                budget,
                            ),
                        };
                        Arc::new(t)
                    })
                })
                .clone()
        });

        let mut cell = ReplicaCell::default();
        let seed_base = key.seed_base(cfg.seed);
        let mut buf: Vec<TraceOp> = Vec::new();
        for trial in 0..key.trials(cfg) {
            if !equiv_ok {
                cell.invalid += 1;
                continue;
            }
            tr.set_trial(acc.next_trial);
            acc.next_trial += 1;
            let root = tr.enter("replay.trial");
            let (fi, fd) = if key.scheme.sees_faults() {
                let vcc = point.vcc.get();
                (
                    fault_map(tr, &geometry, cfg, seed_base, trial, 0, vcc),
                    fault_map(tr, &geometry, cfg, seed_base, trial, 1, vcc),
                )
            } else {
                (
                    FaultMap::fault_free(&geometry),
                    FaultMap::fault_free(&geometry),
                )
            };
            if key.scheme.sees_faults() {
                acc.maps += 2;
                acc.faulty_words += (fi.faulty_words() + fd.faulty_words()) as u64;
            }
            let linked = match (&transformed, max_words) {
                (Some(t), Some(mw)) => {
                    acc.links += 1;
                    if !acc
                        .seen_links
                        .insert((bench, mw, fi.word_bits().words().to_vec()))
                    {
                        acc.link_repeats += 1;
                    }
                    let image = tr.span("linker.link", |_| BbrLinker::new(geometry).link(t, &fi));
                    let Ok(image) = image else {
                        acc.link_fails += 1;
                        cell.failed_links += 1;
                        tr.exit(root);
                        continue;
                    };
                    if cfg.validate_images {
                        let deny = tr.span("analysis.validate", |_| {
                            analyze_image(&image, &fi, None)
                                .iter()
                                .any(|d| d.severity == Severity::Deny)
                        });
                        if deny {
                            cell.invalid += 1;
                            tr.exit(root);
                            continue;
                        }
                    }
                    Some(image.into_parts())
                }
                _ => None,
            };
            let (program, layout) = match &linked {
                Some((p, l)) => (p, l),
                None => (workload.program(), seq_layout),
            };
            let l1i = tr.span("schemes.l1_build", |_| {
                L1Cache::new(key.scheme.l1i_kind(), fi)
            });
            let l1d = tr.span("schemes.l1_build", |_| {
                L1Cache::new(key.scheme.l1d_kind(), fd)
            });
            let mem = tr.span("cache.memsys_build", |_| {
                MemSystem::new(l1i, l1d, point.freq_mhz)
            });
            let resolved = template.as_ref().is_some_and(|tpl| {
                tr.span("workloads.resolve", |_| {
                    tpl.resolve_into(program, layout, cfg.trace_instrs, &mut buf)
                })
            });
            if !resolved {
                buf = tr.span("workloads.walk", |_| {
                    workload
                        .trace_program(program, layout, 0)
                        .take(cfg.trace_instrs)
                        .collect()
                });
            }
            let t = Instant::now();
            let result = tr.span("cpu.simulate", |_| {
                simulate(&core, mem, buf.iter().copied())
            });
            let ns = t.elapsed().as_nanos() as u64;
            tr.exit(root);

            acc.trials += 1;
            acc.add_sim("all", ns, result.instructions);
            acc.add_sim(scheme_slug(key.scheme), ns, result.instructions);
            match point.vcc.get() {
                760 => acc.add_sim("760mv", ns, result.instructions),
                400 => acc.add_sim("400mv", ns, result.instructions),
                _ => {}
            }
            acc.l1d_loads += result.mem.l1d_loads;
            acc.l1d_misses += result.mem.l1d_load_misses + result.mem.l1d_word_misses;
            acc.l2 += result.mem.l2_accesses;
            acc.instrs += result.instructions;
            cell.trials.push(result);
        }
        tr.set_trial(u64::MAX);
        out.push((key, cell));
    }
    out
}

/// The engine's view of a cell in the replica's shape.
fn engine_cell(
    key: &CellKey,
    cfg: &EvalConfig,
    r: &Result<Arc<SchemeRun>, EvalError>,
) -> ReplicaCell {
    match r {
        Ok(run) => ReplicaCell {
            trials: run.trials.iter().map(|t| t.result).collect(),
            failed_links: run.failed_links,
            invalid: 0,
        },
        Err(EvalError::AllLinksFailed { attempts, .. }) => ReplicaCell {
            trials: Vec::new(),
            failed_links: *attempts,
            invalid: 0,
        },
        Err(_) => ReplicaCell {
            trials: Vec::new(),
            failed_links: 0,
            invalid: key.trials(cfg),
        },
    }
}

/// One campaign's engine results, in plan order.
type CampaignResults = Vec<(CellKey, Result<Arc<SchemeRun>, EvalError>)>;

/// Times one campaign through a fresh evaluator.
fn timed_engine(cfg: EvalConfig, recorder: bool, plan: &ExperimentPlan) -> (f64, CampaignResults) {
    let t = Instant::now();
    let mut e = Evaluator::new(cfg);
    if recorder {
        e = e.with_recorder(Arc::new(MetricsRegistry::new()));
    }
    let r = e.run_plan(plan);
    (t.elapsed().as_secs_f64(), r)
}

/// Campaign `i` of a traced run: its config, its plan and, for sweeps,
/// the (pool entry, campaign index) its digest is filed under.
type CampaignSource =
    dyn Fn(usize) -> Result<(EvalConfig, ExperimentPlan, Option<(u64, usize)>), String>;

/// Result of a traced run.
pub struct Traced {
    /// Counts and per-layer metrics.
    pub outcome: Outcome,
    /// Whether every replayed trial matched the engine.
    pub replica_ok: bool,
}

/// Cost of one enter/exit pair on this machine, in nanoseconds.
fn span_cost_ns() -> f64 {
    let mut tr = Tracer::new();
    let n = 100_000u32;
    let t = Instant::now();
    for _ in 0..n {
        let id = tr.enter("calibrate");
        tr.exit(id);
    }
    t.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Runs the traced replay of workload `w`.
///
/// # Errors
///
/// The serve session failed, or spans could not be written.
#[allow(clippy::too_many_lines)]
pub fn run(w: Workload, seed: u64, seconds: f64, table: &DigestTable) -> Result<Traced, String> {
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    let mut outcome = Outcome::default();
    let mut mismatched = 0u64;
    let (mut reuse_on, mut reuse_off, mut rec_on, mut rec_off) = (0.0, 0.0, 0.0, 0.0);
    let (mut engine_ms, mut engine_trials) = (Vec::new(), 0u64);
    let mut session: Option<Session> = None;
    let mut store_probe: Option<ResultStore> = None;

    // Campaign source: the sweep's rounds, or the serve client's specs.
    let (budget, campaigns): (f64, Box<CampaignSource>) = match w.sweep() {
        Some(shape) => {
            let plans = shape.campaigns();
            (
                seconds,
                Box::new(move |i| {
                    let (pool, idx) = (round_pool(seed, i / plans.len()), i % plans.len());
                    Ok((shape.config(pool), plans[idx].clone(), Some((pool, idx))))
                }),
            )
        }
        None => {
            session = Some(serve::session(seed, seconds / 2.0, table)?);
            let dir = work_dir().join(format!("replay-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            store_probe = Some(ResultStore::open(&dir).map_err(|e| format!("open store: {e}"))?);
            let pool = seed % POOL;
            let mut rng = serve::campaign_rng(pool);
            let specs: Vec<String> = (0..4096)
                .map(|i| serve::campaign_spec(pool, i, &mut rng).0)
                .collect();
            (
                seconds / 2.0,
                Box::new(move |i| {
                    let spec = CampaignSpec::from_json(&specs[i % specs.len()])?;
                    Ok((spec.config(&serve::base_config()), spec.plan(), None))
                }),
            )
        }
    };

    let checked = w.sweep().is_some_and(|s| s.checked);
    let start = Instant::now();
    let mut i = 0usize;
    while i == 0 || start.elapsed() < Duration::from_secs_f64(budget) {
        let (cfg, plan, idx) = campaigns(i)?;
        let (t_ref, engine) = if i < AB_CAMPAIGNS {
            // The same campaign as configured, with the arena off, and
            // with the recorder toggled; the order rotates so no variant
            // always runs first on cold caches.
            let variants = [
                (cfg, checked),
                (
                    EvalConfig {
                        reuse_buffers: false,
                        ..cfg
                    },
                    checked,
                ),
                (cfg, !checked),
            ];
            let mut times = [0.0; 3];
            let mut reference = None;
            for k in 0..variants.len() {
                let v = (i + k) % variants.len();
                let (t, r) = timed_engine(variants[v].0, variants[v].1, &plan);
                times[v] = t;
                if v == 0 {
                    reference = Some(r);
                }
            }
            reuse_on += times[0];
            reuse_off += times[1];
            let (with, without) = if checked {
                (times[0], times[2])
            } else {
                (times[2], times[0])
            };
            rec_on += with;
            rec_off += without;
            (times[0], reference.expect("variant 0 always runs"))
        } else {
            timed_engine(cfg, checked, &plan)
        };
        engine_ms.push(t_ref * 1e3);
        engine_trials += plan.total_trials(&cfg);
        if let Some((pool, idx)) = idx {
            if table.get(w, pool, idx) != Some(digest_results(&engine)) {
                eprintln!(
                    "perfbench: {} pool {pool} campaign {idx}: engine digest mismatch",
                    w.name()
                );
                outcome.failed += plan.total_trials(&cfg);
            }
        }
        let replica = replay_campaign(&mut tr, &mut acc, &cfg, &plan);
        for ((key, got), (ekey, er)) in replica.iter().zip(&engine) {
            outcome.attempted += key.trials(&cfg);
            if key != ekey || *got != engine_cell(key, &cfg, er) {
                eprintln!("perfbench: replica differs from the engine on {key}");
                mismatched += 1;
            }
            if let (Some(store), Ok(run)) = (&store_probe, er) {
                let skey =
                    StoreKey::for_cell(&cfg, &CoreConfig::dsn2016(), &CacheGeometry::dsn_l1(), key);
                let cell = StoredCell {
                    failed_links: run.failed_links,
                    trials: run.trials.clone(),
                };
                tr.span("core.store_save", |_| store.save(&skey, &cell))
                    .map_err(|e| format!("store save: {e}"))?;
                let back = tr.span("core.store_load", |_| store.load(&skey));
                if back.as_ref() != Some(&cell) {
                    mismatched += 1;
                }
            }
        }
        i += 1;
    }
    if let Some(store) = &store_probe {
        let _ = std::fs::remove_dir_all(store.dir());
    }

    let totals = tr.totals();
    let traced_ns: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns() as f64)
        .sum();
    let overhead = ratio(span_cost_ns() * tr.spans().len() as f64, traced_ns);
    let path = work_dir().join(format!("spans-{}-{seed}.tsv", w.name()));
    tr.write_tsv(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: traced {} campaigns, {} trials, {} spans -> {}",
        i,
        acc.trials,
        tr.spans().len(),
        path.display()
    );

    let mut m = Vec::new();
    for span in SPANS {
        let t = totals.get(span).copied().unwrap_or_default();
        m.push(Metric::new(format!("{span}_ns"), t.mean_ns(), "ns"));
        m.push(Metric::new(
            format!("{span}_calls"),
            t.calls as f64,
            "count",
        ));
    }
    m.push(Metric::new(
        "sram.faulty_words_per_map",
        ratio(acc.faulty_words as f64, acc.maps as f64),
        "words",
    ));
    m.push(Metric::new(
        "linker.link_fail_ratio",
        ratio(acc.link_fails as f64, acc.links as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "linker.map_repeat_ratio",
        ratio(acc.link_repeats as f64, acc.links as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "cpu.ns_per_instr",
        acc.ns_per_instr("all"),
        "ns",
    ));
    m.push(Metric::new(
        "cpu.ns_per_instr.760mv",
        acc.ns_per_instr("760mv"),
        "ns",
    ));
    m.push(Metric::new(
        "cpu.ns_per_instr.400mv",
        acc.ns_per_instr("400mv"),
        "ns",
    ));
    for s in SCHEME_METRICS {
        m.push(Metric::new(
            format!("cpu.ns_per_instr.{}", scheme_slug(s)),
            acc.ns_per_instr(scheme_slug(s)),
            "ns",
        ));
    }
    m.push(Metric::new(
        "cache.l1d_miss_ratio",
        ratio(acc.l1d_misses as f64, acc.l1d_loads as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "cache.l2_per_kinstr",
        ratio(acc.l2 as f64 * 1000.0, acc.instrs as f64),
        "count",
    ));
    m.push(Metric::new(
        "core.campaign_wall_ms",
        median(&engine_ms),
        "ms",
    ));
    m.push(Metric::new(
        "core.trials_per_wall_s",
        ratio(engine_trials as f64, engine_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    ));
    m.push(Metric::new(
        "core.reuse_saving_frac",
        1.0 - ratio(reuse_on, reuse_off),
        "ratio",
    ));
    m.push(Metric::new(
        "obs.recorder_overhead_frac",
        ratio(rec_on, rec_off) - 1.0,
        "ratio",
    ));
    for (span, name) in [
        ("core.store_load", "core.store_load_ns"),
        ("core.store_save", "core.store_save_ns"),
    ] {
        m.push(Metric::new(
            name,
            totals.get(span).copied().unwrap_or_default().mean_ns(),
            "ns",
        ));
    }
    let s = session.unwrap_or_default();
    let late: Vec<f64> = s.queries.iter().map(Timed::late_us).collect();
    let query_us: Vec<f64> = s.queries.iter().map(Timed::latency_us).collect();
    // Wall-clock service latencies, with the percentile sample rule;
    // zero for the sweeps, which have no service.
    let pct = |v: &[f64], q: f64| -> Result<f64, String> {
        if v.is_empty() {
            return Ok(0.0);
        }
        let p = percentile(v, q)?;
        eprintln!(
            "perfbench: p{:.0} from {} samples, {} beyond it",
            q * 100.0,
            p.n,
            p.beyond
        );
        Ok(p.value)
    };
    m.push(Metric::new(
        "serve.campaign_p50_ms",
        pct(&s.campaign_ms, 0.5)?,
        "ms",
    ));
    m.push(Metric::new(
        "serve.campaign_p90_ms",
        pct(&s.campaign_ms, 0.9)?,
        "ms",
    ));
    m.push(Metric::new(
        "serve.campaigns_per_s",
        ratio(s.campaign_ms.len() as f64, s.window_s),
        "1/s",
    ));
    m.push(Metric::new(
        "serve.query_p50_us",
        pct(&query_us, 0.5)?,
        "us",
    ));
    m.push(Metric::new(
        "serve.query_p99_us",
        pct(&query_us, 0.99)?,
        "us",
    ));
    m.push(Metric::new(
        "core.store_hit_ratio",
        if s.trials_total == 0 {
            0.0
        } else {
            1.0 - ratio(s.trials_computed as f64, s.trials_total as f64)
        },
        "ratio",
    ));
    m.push(Metric::new("serve.healthz_us", median(&s.healthz_us), "us"));
    m.push(Metric::new("serve.submit_us", median(&s.submit_us), "us"));
    m.push(Metric::new("serve.poll_us", median(&s.poll_us), "us"));
    m.push(Metric::new(
        "serve.queue_wait_ms",
        median(&s.queue_wait_ms),
        "ms",
    ));
    m.push(Metric::new("serve.run_ms", median(&s.run_ms), "ms"));
    m.push(Metric::new(
        "serve.throttled_frac",
        ratio(s.throttled as f64, s.submits as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "serve.query_capacity_per_s",
        s.query_capacity_per_s,
        "1/s",
    ));
    m.push(Metric::new("loadgen.late_p99_us", pct(&late, 0.99)?, "us"));
    m.push(Metric::new("trace.overhead_frac", overhead, "ratio"));
    m.push(Metric::new("replay.trials", acc.trials as f64, "count"));

    outcome.attempted += s.attempted;
    outcome.failed += s.failed + mismatched;
    if mismatched > 0 {
        eprintln!("perfbench: {mismatched} replayed cells differ from the engine; per-layer numbers withheld");
        m.clear();
    }
    outcome.metrics = m;
    Ok(Traced {
        outcome,
        replica_ok: mismatched == 0,
    })
}

/// `--bless [WORKLOAD...]`: recomputes the checked-in digests of the
/// named workloads (all when none are named) from the engine and
/// rewrites `perfbench/digests.tsv`, keeping the other workloads' lines.
pub fn bless_main(names: &[String]) -> ExitCode {
    let mut chosen = Vec::new();
    for n in names {
        match Workload::parse(n) {
            Some(w) => chosen.push(w),
            None => {
                eprintln!("perfbench: unknown workload {n}");
                return ExitCode::FAILURE;
            }
        }
    }
    if chosen.is_empty() {
        chosen = Workload::ALL.to_vec();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.tsv");
    let old = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| {
            !chosen
                .iter()
                .any(|w| l.starts_with(&format!("{}\t", w.name())))
        })
        .map(str::to_string)
        .collect();
    for w in chosen {
        for pool in 0..POOL {
            match w.sweep() {
                Some(shape) => {
                    for (idx, plan) in shape.campaigns().iter().enumerate() {
                        let results = Evaluator::new(shape.config(pool)).run_plan(plan);
                        lines.push(digest_line(w, pool, idx, digest_results(&results)));
                    }
                }
                None => match serve::bless_digest(pool) {
                    Ok(d) => lines.push(digest_line(w, pool, 0, d)),
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            }
            eprintln!("perfbench: blessed {} pool {pool}", w.name());
        }
    }
    let text = lines.join("\n") + "\n";
    match std::fs::File::create(path).and_then(|mut f| f.write_all(text.as_bytes())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TEMPLATE_MAX_INSTRS;

    /// The replica reproduces the engine on both sides of the template
    /// limit, with validation on.
    #[test]
    fn replica_matches_engine_on_both_resolve_paths() {
        let key_b = CellKey::new(Benchmark::Crc32, Scheme::FfwBbr, MilliVolts::new(400));
        let key_d = CellKey::new(Benchmark::Crc32, Scheme::SimpleWdis, MilliVolts::new(480));
        let plan = ExperimentPlan::for_cells([key_b, key_d]);
        for instrs in [TEMPLATE_MAX_INSTRS / 20, TEMPLATE_MAX_INSTRS + 1_000] {
            let cfg = EvalConfig {
                trace_instrs: instrs,
                maps: 2,
                threads: 2,
                validate_images: true,
                ..EvalConfig::standard()
            };
            let engine = Evaluator::new(cfg).run_plan(&plan);
            let mut tr = Tracer::new();
            let mut acc = Acc::default();
            let replica = replay_campaign(&mut tr, &mut acc, &cfg, &plan);
            for ((key, got), (_, er)) in replica.iter().zip(&engine) {
                assert_eq!(
                    *got,
                    engine_cell(key, &cfg, er),
                    "{key} at {instrs} instructions"
                );
            }
            let totals = tr.totals();
            let (tpl, walk) = (
                totals.get("workloads.resolve"),
                totals.get("workloads.walk"),
            );
            if instrs <= TEMPLATE_MAX_INSTRS {
                assert!(tpl.is_some());
            } else {
                assert!(tpl.is_none() && walk.is_some());
            }
        }
    }
}
