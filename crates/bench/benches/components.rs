//! Criterion micro-benchmarks of the simulator's hot paths: one group per
//! substrate, so regressions in any layer of the reproduction are caught.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use dvs_cpu::{simulate, CoreConfig, MemSystem};
use dvs_linker::{adaptive_max_block_words, bbr_transform, BbrLinker};
use dvs_obs::MetricsRegistry;
use dvs_schemes::ffw::remap_word_offset;
use dvs_schemes::{L1Cache, SchemeKind};
use dvs_sram::{bist, CacheGeometry, FaultMap, MilliVolts, PfailModel, SramArray};
use dvs_workloads::{locality, Benchmark, Layout};

fn geom() -> CacheGeometry {
    CacheGeometry::dsn_l1()
}

fn bench_sram(c: &mut Criterion) {
    let mut g = c.benchmark_group("sram");
    let p_word = PfailModel::dsn45().pfail_word(MilliVolts::new(400));
    g.bench_function("faultmap_sample_32kb", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| FaultMap::sample(&geom(), p_word, &mut rng));
    });
    g.bench_function("march_bist_32kb", |b| {
        b.iter_batched(
            || {
                let mut a = SramArray::new(geom().total_words());
                a.inject_random(1e-3, &mut StdRng::seed_from_u64(2));
                a
            },
            |mut a| bist::march_test(&mut a),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_ffw_remap(c: &mut Criterion) {
    c.bench_function("ffw_remap_word_offset", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for fault in 0u32..64 {
                for word in 0..8 {
                    if let Some(s) = remap_word_offset(0b0111_1100, fault, word) {
                        acc = acc.wrapping_add(s);
                    }
                }
            }
            acc
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("l1_cache");
    g.throughput(Throughput::Elements(10_000));
    for kind in [SchemeKind::Conventional, SchemeKind::Ffw, SchemeKind::fba()] {
        let p_word = PfailModel::dsn45().pfail_word(MilliVolts::new(400));
        let fmap = FaultMap::sample(&geom(), p_word, &mut StdRng::seed_from_u64(3));
        g.bench_function(format!("read_10k_{kind}"), |b| {
            b.iter_batched(
                || (L1Cache::new(kind, fmap.clone()), dvs_cache::L2Cache::dsn()),
                |(mut l1, mut l2)| {
                    for i in 0..10_000u64 {
                        l1.read(dvs_cache::Addr::new((i * 36) % 65_536), &mut l2);
                    }
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_linker(c: &mut Criterion) {
    let mut g = c.benchmark_group("bbr");
    let wl = Benchmark::Basicmath.build(1);
    let p_word = PfailModel::dsn45().pfail_word(MilliVolts::new(400));
    let transformed = bbr_transform(wl.program(), adaptive_max_block_words(p_word));
    g.bench_function("transform_basicmath", |b| {
        b.iter(|| bbr_transform(wl.program(), adaptive_max_block_words(p_word)));
    });
    g.bench_function("link_basicmath_400mv", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let fmap = FaultMap::sample(&geom(), p_word, &mut StdRng::seed_from_u64(seed));
            BbrLinker::new(geom()).link(&transformed, &fmap)
        });
    });
    g.finish();
}

fn bench_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu");
    let n = 50_000usize;
    g.throughput(Throughput::Elements(n as u64));
    let wl = Benchmark::Qsort.build(1);
    let layout = Layout::sequential(wl.program());
    g.bench_function("simulate_50k_instructions", |b| {
        b.iter(|| {
            let mem = MemSystem::new(
                L1Cache::new(SchemeKind::Conventional, FaultMap::fault_free(&geom())),
                L1Cache::new(SchemeKind::Conventional, FaultMap::fault_free(&geom())),
                1607,
            );
            simulate(&CoreConfig::dsn2016(), mem, wl.trace(&layout, 0).take(n))
        });
    });
    // A/B pair for the observability overhead budget (< 2 % disabled):
    // the same simulation with no recorder vs a live registry. Compare
    // `simulate_50k_instructions` against `simulate_50k_recorded`.
    g.bench_function("simulate_50k_recorded", |b| {
        let registry = Arc::new(MetricsRegistry::new());
        b.iter(|| {
            let mem = MemSystem::new(
                L1Cache::new(SchemeKind::Conventional, FaultMap::fault_free(&geom())),
                L1Cache::new(SchemeKind::Conventional, FaultMap::fault_free(&geom())),
                1607,
            )
            .with_recorder(registry.clone());
            simulate(&CoreConfig::dsn2016(), mem, wl.trace(&layout, 0).take(n))
        });
    });
    g.bench_function("trace_generation_50k", |b| {
        b.iter(|| wl.trace(&layout, 0).take(n).count());
    });
    g.bench_function("locality_measure_50k", |b| {
        b.iter(|| locality::measure(wl.trace(&layout, 0).take(n), 10_000));
    });
    // Figure scale (`EvalConfig::standard()`): past the template cap, so
    // every trial walks the CFG this far.
    let n_fig = 200_000usize;
    g.throughput(Throughput::Elements(n_fig as u64));
    g.bench_function("trace_generation_200k", |b| {
        b.iter(|| wl.trace(&layout, 0).take(n_fig).count());
    });
    g.finish();
}

/// The two RNG calls every walker op makes several of: raw keystream
/// words and narrow `gen_range` draws (operand picks span 1–3 values).
fn bench_rand(c: &mut Criterion) {
    let mut g = c.benchmark_group("rand");
    let n = 1024u32;
    g.throughput(Throughput::Elements(u64::from(n)));
    g.bench_function("chacha12_next_u32", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| (0..n).fold(0u32, |acc, _| acc ^ rng.next_u32()));
    });
    g.bench_function("gen_range_small", |b| {
        let mut rng = StdRng::seed_from_u64(8);
        b.iter(|| {
            (0..n).fold(0usize, |acc, i| {
                acc ^ rng.gen_range(0..1 + (i as usize & 3))
            })
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sram,
    bench_ffw_remap,
    bench_cache,
    bench_linker,
    bench_cpu,
    bench_rand
);
criterion_main!(benches);
