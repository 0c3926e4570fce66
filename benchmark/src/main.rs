//! `stackbench`: the repo's benchmark. One process runs one workload on the
//! standard stack, checks every answer against the benchmark's own oracle,
//! and prints every metric by name with its unit and sample count; the
//! last line of standard output is the one-line JSON the driver reads.
//!
//! ```text
//! stackbench --workload W --seed N --seconds T --trace 0|1 [--scale full|smoke] [--out DIR]
//! stackbench merge --rev REV [--out DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ledger (and writes the spans to `DIR/trace_<workload>.json`). `merge`
//! folds the eight run files of `DIR` into `DIR/BENCH_<rev>.json`.

mod gen;
mod ledger;
mod merge;
mod oracle;
mod probe;
mod report;
mod stats;
mod workloads;

use report::{Fingerprint, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Run, Scale};

const USAGE: &str = "usage: stackbench --workload <point-cold|point-hot|mixed-rw|serve-openloop> \
--seed <n> --seconds <1..=60> --trace <0|1> [--scale full|smoke] [--out DIR]\n       \
stackbench merge --rev <rev> [--out DIR]";

struct Args {
    merge: bool,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
    rev: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        merge: argv.first().is_some_and(|a| a == "merge"),
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("benchmark/results"),
        rev: "unknown".into(),
    };
    let mut it = argv.iter().skip(args.merge as usize);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: 0 or 1")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale {value}: full or smoke")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--rev" => args.rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {}: 1 to 60", args.seconds));
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<Report, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let run = Run { spec, scale: args.scale, seed: args.seed, seconds: args.seconds };
    let outcome = if args.trace {
        ledger::run_traced(&run, &args.out.join(format!("trace_{name}.json")))
            .map_err(|e| format!("writing the trace: {e}"))?
    } else {
        workloads::run_untraced(&run)
    };
    Ok(Report {
        workload: name.to_string(),
        scale: args.scale.name().to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        fingerprint: Fingerprint::of_host(outcome.inputs_hash),
        attempted: outcome.attempted,
        mismatched: outcome.mismatched,
        shed: outcome.shed,
        invalid: outcome.invalid,
        disturbed: outcome.disturbed,
        metrics: outcome.metrics.finish(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.merge {
        return match merge::merge(&args.out, &args.rev) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("stackbench merge: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match run_workload(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = report.write(&args.out) {
        eprintln!("stackbench: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    report.print();
    if !report.correct() {
        // No result line for a run that must not be believed.
        eprintln!(
            "stackbench: run invalid ({} oracle mismatches, {:?})",
            report.mismatched, report.invalid
        );
        return ExitCode::FAILURE;
    }
    println!("{}", report.driver_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn args(workload: &str, trace: bool, out: &std::path::Path) -> Args {
        let argv: Vec<String> = [
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--scale",
            "smoke",
            "--trace",
            if trace { "1" } else { "0" },
            "--out",
            out.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        parse_args(&argv).unwrap()
    }

    /// Every workload, untraced and traced, at smoke scale (200k keys, one
    /// "second" of a fiftieth of the operations): every answer correct,
    /// every metric of the table reported, exact counts repeating for a
    /// fixed seed. One test, so the runs do not fight for the two cores.
    #[test]
    fn smoke_runs_are_correct_complete_and_repeatable() {
        let out = std::env::temp_dir().join(format!("stackbench-smoke-{}", std::process::id()));
        for spec in workloads::WORKLOADS {
            for trace in [false, true] {
                let report = run_workload(&args(spec.name, trace, &out)).unwrap();
                assert_eq!(report.failed(), 0, "{} trace={trace}", spec.name);
                assert!(report.attempted > 1_000, "{} trace={trace}", spec.name);
                assert!(report.correct(), "{} trace={trace}: {:?}", spec.name, report.invalid);
                assert!(report.disturbed.is_empty(), "the lateness guard is for full scale");
                let table = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, table.iter().map(|(n, _)| *n).collect::<Vec<_>>());
                report.write(&out).unwrap();
                let back = report::read_report(&out.join(report.file_name())).unwrap();
                assert_eq!(back, report);
                if trace {
                    let again = run_workload(&args(spec.name, trace, &out)).unwrap();
                    assert_eq!(again.fingerprint.inputs_hash, report.fingerprint.inputs_hash);
                    for exact in [
                        "index.log2_err_mean",
                        "search.steps_floor",
                        "cache.hit_ratio",
                        "writebehind.merges",
                        "writebehind.merged_entries",
                        "writebehind.write_amp",
                    ] {
                        let value =
                            |r: &Report| r.metrics.iter().find(|m| m.name == exact).unwrap().value;
                        assert_eq!(value(&again), value(&report), "{} {exact}", spec.name);
                    }
                    let trace_file = out.join(format!("trace_{}.json", spec.name));
                    let spans: serde_json::Value =
                        serde_json::from_str(&std::fs::read_to_string(trace_file).unwrap())
                            .unwrap();
                    assert!(spans.get_field("spans").and_then(|s| s.get_index(0)).is_some());
                }
            }
        }
        merge::merge(&out, "smoke").ok(); // the cross-workload guard is for full scale
        assert!(out.join("BENCH_smoke.json").exists());
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "point-cold", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "point-cold", "--seconds", "61"]).is_err());
        assert!(parse(&["--workload", "point-cold", "--trace", "2"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
        let ok =
            parse(&["--workload", "x", "--seed", "9", "--seconds", "3", "--trace", "1"]).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace, ok.merge), (9, 3, true, false));
        assert!(parse(&["merge", "--rev", "abc"]).unwrap().merge);
        let unknown = parse(&["--workload", "x"]).unwrap();
        assert!(run_workload(&unknown).is_err());
    }
}
