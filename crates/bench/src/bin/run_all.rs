//! Run every experiment binary in sequence — the one-command reproduction
//! of the paper's entire evaluation section plus the extensions.
//!
//! Usage: `cargo run --release -p sosd-bench --bin run_all -- [--quick]
//! [--n 1m --lookups 200k --seed 42 --out results]`. Flags are forwarded to
//! every experiment — `--quick` in particular, which is how CI smokes every
//! registered experiment in one step instead of one workflow step per
//! binary. Each experiment's stdout+stderr is captured to
//! `<out>/log_<name>.txt`; a summary with per-experiment wall time is
//! printed at the end and written to `<out>/run_all_summary.csv`.
//!
//! Exit status: nonzero when any experiment that *ran* failed (its own exit
//! status was nonzero, or it could not be spawned). Experiments whose
//! binaries are not built are reported as `skipped` and do not fail the
//! run — build with `--bins` to cover everything.
//!
//! This is a smoke and reproduction driver, not a perf gate: the repo's
//! performance yardstick is stackbench (`benchmark/`), which times the
//! serving stack at 10M keys.

use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Every experiment binary, in paper order then extensions.
const EXPERIMENTS: &[&str] = &[
    "table1_capabilities",
    "fig06_cdf",
    "fig07_pareto",
    "fig08_strings",
    "table2_fastest",
    "fig09_scaling",
    "fig10_keysize",
    "fig11_search",
    "fig12_metrics",
    "fig13_compression",
    "fig14_cold_cache",
    "fig15_fence",
    "fig16_multithread",
    "fig17_build_times",
    "ext01_dynamic_mixed",
    "ext02_synthetic",
    "ext03_rmi_ablation",
    "ext04_dynamic_ablation",
    "ext05_batching",
    "ext06_sharding",
    "ext07_writebehind",
    "ext09_openloop",
    "ext10_storage",
    "ext11_advisor",
];

/// Outcome of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Ran and exited zero.
    Ok,
    /// Binary not built; nothing ran.
    Skipped,
    /// Ran and exited nonzero, or failed to spawn.
    Failed,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Skipped => "skipped",
            Status::Failed => "FAILED",
        }
    }
}

fn main() {
    let wall = Instant::now();
    let forwarded: Vec<String> = std::env::args().skip(1).collect();

    // Reuse the shared parser only to locate the output directory.
    let out_dir = sosd_bench::Args::parse_from(forwarded.clone()).out_dir;
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin directory");

    let mut summary: Vec<(String, f64, Status)> = Vec::new();
    for &name in EXPERIMENTS {
        let exe = bin_dir.join(name);
        if !exe.exists() {
            eprintln!("[run_all] SKIP {name}: {} not built (build with --bins)", exe.display());
            // Drop any log a previous run left in this out_dir so the
            // on-disk evidence matches the summary.
            let _ = std::fs::remove_file(out_dir.join(format!("log_{name}.txt")));
            summary.push((name.to_string(), 0.0, Status::Skipped));
            continue;
        }
        eprint!("[run_all] {name} ... ");
        let t = Instant::now();
        let status = match Command::new(&exe).args(&forwarded).output() {
            Ok(output) => {
                let log = out_dir.join(format!("log_{name}.txt"));
                let mut f = std::fs::File::create(&log).expect("create log file");
                f.write_all(&output.stdout).expect("write log");
                f.write_all(&output.stderr).expect("write log");
                if output.status.success() {
                    Status::Ok
                } else {
                    Status::Failed
                }
            }
            Err(e) => {
                eprintln!("[run_all] spawn failed for {name}: {e}");
                // Overwrite any stale log from a previous run into this
                // out_dir so the on-disk evidence matches the summary.
                let log = out_dir.join(format!("log_{name}.txt"));
                let _ = std::fs::write(&log, format!("[run_all] spawn failed: {e}\n"));
                Status::Failed
            }
        };
        let secs = t.elapsed().as_secs_f64();
        eprintln!("{} in {secs:.1}s", status.label());
        summary.push((name.to_string(), secs, status));
    }

    let mut csv = String::from("experiment,seconds,status\n");
    println!("\n{:<24} {:>9} {:>8}", "experiment", "seconds", "status");
    for (name, secs, status) in &summary {
        println!("{name:<24} {secs:>9.1} {:>8}", status.label());
        csv.push_str(&format!("{name},{secs:.1},{}\n", status.label()));
    }
    let total: f64 = summary.iter().map(|(_, secs, _)| secs).sum();
    println!("{:<24} {total:>9.1}", "total");
    csv.push_str(&format!("total,{total:.1},-\n"));
    // `total` sums per-experiment child time; `wall` is this process's own
    // elapsed clock, which additionally covers spawn/log/summary overhead
    // — the number a CI step budget actually has to fit.
    let wall_seconds = wall.elapsed().as_secs_f64();
    println!("{:<24} {wall_seconds:>9.1}", "wall");
    csv.push_str(&format!("wall,{wall_seconds:.1},-\n"));
    write_summary(&out_dir, &csv);

    let count = |s: Status| summary.iter().filter(|(_, _, st)| *st == s).count();
    let failed: Vec<&str> = summary
        .iter()
        .filter(|(_, _, st)| *st == Status::Failed)
        .map(|(n, _, _)| n.as_str())
        .collect();
    if failed.is_empty() {
        println!(
            "\n{} experiments completed ({} skipped); results in {}",
            count(Status::Ok),
            count(Status::Skipped),
            out_dir.display()
        );
    } else {
        eprintln!("\nFAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
}

fn write_summary(out_dir: &Path, csv: &str) {
    std::fs::write(out_dir.join("run_all_summary.csv"), csv).expect("write summary");
}
