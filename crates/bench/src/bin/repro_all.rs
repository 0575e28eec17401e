//! Regenerates every table and figure in one process, sharing one
//! evaluator so the Monte-Carlo cells are simulated exactly once — and,
//! via the on-disk result store, at most once across *processes*.

use dvs_bench::{evaluator, fmt_ci, parse_args, render_histogram};
use dvs_core::figures::{
    default_benchmarks, default_voltages, fig10, fig11, fig12, fig2, fig3, fig6,
};
use dvs_core::DvfsPoint;
use dvs_power::fo4::{ffw_timeline, DATA_ARRAY_COLUMN_MUX_FO4, REMAP_READY_FO4};
use dvs_power::table3;
use dvs_sram::MilliVolts;
use dvs_workloads::Benchmark;

fn main() {
    let opts = parse_args();

    println!("=== Table II ===");
    for p in DvfsPoint::table2() {
        println!(
            "{:>6} mV {:>6} MHz  P_fail={:.2e}",
            p.vcc.get(),
            p.freq_mhz,
            p.pfail_bit
        );
    }

    println!();
    println!("=== Table III ===");
    for row in table3() {
        println!(
            "{:<20} area {:>6.1}%  static {:>6.1}%  latency +{} cyc",
            row.scheme,
            row.overheads.normalized_area * 100.0,
            row.overheads.normalized_static_power * 100.0,
            row.overheads.latency_cycles
        );
    }

    println!();
    println!("=== Figure 2 ===");
    let f2 = fig2(400, 800, 40);
    println!("{:>6} {:>11} {:>11} {:>11}", "mV", "bit", "word", "block");
    for r in &f2.rows {
        println!(
            "{:>6} {:>11.2e} {:>11.2e} {:>11.2e}",
            r.vcc.get(),
            r.pfail_bit,
            r.pfail_word,
            r.pfail_block
        );
    }
    println!("Vccmin(32KB, 99.9%) = {}", f2.vccmin_32kb);

    println!();
    println!("=== Figure 3 ===");
    for e in fig3(opts.cfg.seed, opts.cfg.trace_instrs.max(200_000)) {
        println!(
            "{:>16}: spatial {:>5.1}%  reuse {:>5.1}%",
            e.benchmark.name(),
            e.mean_spatial * 100.0,
            e.mean_reuse * 100.0
        );
    }

    println!();
    println!("=== Figure 6 (basicmath @ 400 mV) ===");
    let f6 = fig6(
        Benchmark::Basicmath,
        MilliVolts::new(400),
        opts.cfg.maps.min(16),
        opts.cfg.trace_instrs.max(400_000),
        100_000,
        opts.cfg.seed,
    );
    let mut caps = f6.capacity_fractions.clone();
    caps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "fault-free {:.1}% of the cache; interval capacity median {:.1}%, max {:.1}%",
        f6.fault_free_fraction * 100.0,
        caps[caps.len() / 2] * 100.0,
        caps[caps.len() - 1] * 100.0
    );
    let hist: Vec<f64> = f6.block_size_hist.iter().map(|&(_, p)| p).collect();
    print!("{}", render_histogram("block sizes (1..16 words)", &hist));
    let hist: Vec<f64> = f6.chunk_size_hist.iter().map(|&(_, p)| p).collect();
    print!("{}", render_histogram("chunk sizes (1..16+ words)", &hist));

    println!();
    println!("=== Figure 9 ===");
    for s in ffw_timeline() {
        println!(
            "{:<18} {:<24} {:>6.1} .. {:>6.1} FO4",
            format!("{:?}", s.path),
            s.name,
            s.start_fo4,
            s.end_fo4()
        );
    }
    println!("remap {REMAP_READY_FO4} FO4 <= column mux {DATA_ARRAY_COLUMN_MUX_FO4} FO4 -> 0-cycle overhead");

    let mut eval = evaluator(&opts);
    if let Some(store) = eval.store() {
        eprintln!("\nresult store: {}", store.dir().display());
    }
    eval.set_progress(|p| {
        eprintln!(
            "  [{}/{}] {} ({} trials computed)",
            p.cells_done, p.cells_total, p.cell, p.trials_computed
        );
    });
    let benches = default_benchmarks();
    let volts = default_voltages();
    eprintln!(
        "running the Monte-Carlo grid: 6 schemes x {} voltages x {} benchmarks x {} maps x {} instrs",
        volts.len(),
        benches.len(),
        opts.cfg.maps,
        opts.cfg.trace_instrs
    );

    for (title, cells) in [
        (
            "Figure 10 (normalized runtime)",
            fig10(&mut eval, &benches, &volts),
        ),
        (
            "Figure 11 (L2 accesses / 1000 instructions)",
            fig11(&mut eval, &benches, &volts),
        ),
        (
            "Figure 12 (normalized EPI, geomean)",
            fig12(&mut eval, &benches, &volts),
        ),
    ] {
        println!();
        println!("=== {title} ===");
        print!("{:<14}", "scheme");
        for v in &volts {
            print!(" {:>14}", format!("{v}"));
        }
        println!();
        for chunk in cells.chunks(volts.len()) {
            print!("{:<14}", chunk[0].scheme.name());
            for c in chunk {
                if title.contains("EPI") {
                    print!(" {:>14.3}", c.geomean);
                } else {
                    print!(" {:>14}", fmt_ci(&c.summary));
                }
            }
            println!();
        }
    }

    // Per-cell failure report: a cell whose every trial failed its BBR
    // link is dropped from the series above, not fatal to the campaign.
    let failures = eval.failures();
    if !failures.is_empty() {
        println!();
        println!("=== cells without data ({}) ===", failures.len());
        for (_, err) in &failures {
            println!("  {err}");
        }
    }

    let stats = eval.stats();
    println!();
    println!(
        "engine: computed={} from_store={} cells_from_store={} link_failures={} \
         trials/sec={:.0} link={:.1}s sim={:.1}s walk={:.1}s wall={:.1}s",
        stats.trials_computed,
        stats.trials_from_store,
        stats.cells_from_store,
        stats.link_failures,
        stats.trials_per_sec(),
        stats.link_nanos as f64 / 1e9,
        stats.sim_nanos as f64 / 1e9,
        stats.walk_nanos as f64 / 1e9,
        stats.wall_nanos as f64 / 1e9,
    );
}
