//! Metric names and units (the same tables `BENCHMARK.json` carries), the
//! per-run report with its input and host fingerprint, and the JSON the
//! driver and the trajectory files read.

use serde_json::Value;
use std::path::Path;

/// `(name, unit)` of every end-to-end metric, reported by every workload's
/// untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mem_bytes_per_key", "B/key"),
    ("throughput_mops", "Mops/s"),
    ("get_ns_p50", "ns"),
    ("get_ns_p99", "ns"),
];

/// `(name, unit)` of every per-layer metric, reported by every workload's
/// traced run. The prefix is the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.gen_ms", "ms"),
    ("harness.oracle_ms", "ms"),
    ("harness.timer_overhead_ns", "ns"),
    ("harness.trace_overhead_ratio", "ratio"),
    ("index.build_ms", "ms"),
    ("index.size_bytes_per_key", "B/key"),
    ("index.get_ns", "ns"),
    ("index.predict_ns", "ns"),
    ("index.log2_err_mean", "log2"),
    ("search.last_mile_ns", "ns"),
    ("search.steps_floor", "steps"),
    ("engine.get_ns", "ns"),
    ("engine.self_ns", "ns"),
    ("engine.batch_ns", "ns"),
    ("engine.range_ns_per_entry", "ns"),
    ("shard.build_ms", "ms"),
    ("shard.get_ns", "ns"),
    ("shard.self_ns", "ns"),
    ("shard.batch_ns", "ns"),
    ("writebehind.build_ms", "ms"),
    ("writebehind.get_ns", "ns"),
    ("writebehind.self_ns", "ns"),
    ("writebehind.batch_ns", "ns"),
    ("writebehind.pinned_get_ns", "ns"),
    ("writebehind.live_pinned_ratio", "ratio"),
    ("writebehind.probes_per_lookup", "probes/op"),
    ("writebehind.filter_skip_ratio", "ratio"),
    ("writebehind.insert_ns", "ns"),
    ("writebehind.remove_ns", "ns"),
    ("writebehind.write_ns_p50", "ns"),
    ("writebehind.write_ns_p99", "ns"),
    ("writebehind.range_ns_p50", "ns"),
    ("writebehind.write_amp", "entries/write"),
    ("writebehind.merges", "count"),
    ("writebehind.compactions", "count"),
    ("writebehind.merged_entries", "count"),
    ("writebehind.run_count_end", "count"),
    ("writebehind.stall_ms_total", "ms"),
    ("writebehind.stall_ms_max", "ms"),
    ("cache.get_ns", "ns"),
    ("cache.self_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_ns", "ns"),
    ("cache.size_bytes_per_key", "B/key"),
    ("serve.get_ns", "ns"),
    ("serve.self_ns", "ns"),
    ("serve.submit_ns", "ns"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.internal_us_p50", "us"),
    ("serve.avg_wave", "req/wave"),
    ("serve.fast_hit_ratio", "ratio"),
    ("serve.shed_ratio", "ratio"),
    ("serve.peak_queue", "count"),
    ("serve.generator_late_us_p99", "us"),
    ("serve.served_us_p50_r100", "us"),
    ("serve.served_us_p99_r100", "us"),
    ("serve.served_us_p50_r300", "us"),
    ("serve.served_us_p99_r300", "us"),
    ("serve.slo_rate_kreq_s", "kreq/s"),
    ("serve.drain_mops", "Mops/s"),
    ("store.snapshot_write_ms", "ms"),
    ("store.cold_open_ms", "ms"),
    ("store.bytes_per_key", "B/key"),
    ("store.get_ns", "ns"),
    ("store.pages_per_lookup", "pages/op"),
];

/// One measured value. `samples` is the number of timing samples (or
/// counted events) behind it; 1 for a single measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// The metrics of one run, checked against one of the tables above so a
/// run can neither invent a name nor forget one.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Metric>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics { table, values: Vec::new() }
    }

    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let &(name, unit) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.values.push(Metric { name, unit, value, samples: samples as u64 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics in table order; panics when one is missing.
    pub fn finish(mut self) -> Vec<Metric> {
        let position = |name: &str| self.table.iter().position(|(n, _)| *n == name);
        if let Some((missing, _)) = self.table.iter().find(|(n, _)| self.get(n).is_none()) {
            panic!("metric {missing} was not measured");
        }
        self.values.sort_by_key(|m| position(m.name));
        self.values
    }
}

/// Where the numbers came from: enough to tell whether two reports are
/// comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Hash of the dataset and of every generated stream.
    pub inputs_hash: u64,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

impl Fingerprint {
    /// Host facts; `run.sh` passes the toolchain and revision in through
    /// the environment because the binary cannot ask git or rustc itself
    /// in a checkout that has neither.
    pub fn of_host(inputs_hash: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
        Fingerprint {
            inputs_hash,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: env("STACKBENCH_RUSTC"),
            git_rev: env("STACKBENCH_REV"),
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub scale: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub fingerprint: Fingerprint,
    pub attempted: u64,
    /// Answers that differ from the oracle's: any makes the run incorrect.
    pub mismatched: u64,
    /// Requests the scheduler refused at the base rate. They count as
    /// failed operations but are not wrong answers.
    pub shed: u64,
    /// Self-validity guards that cannot trip by chance and did: the run is
    /// invalid and prints no result.
    pub invalid: Vec<String>,
    /// Guards the host can trip (a late generator): the run is reported,
    /// flagged here, and refused by `merge` as a trajectory point.
    pub disturbed: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_string())
}

impl Report {
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.invalid.is_empty()
    }

    /// Oracle mismatches + shed requests (errors panic).
    pub fn failed(&self) -> u64 {
        self.mismatched + self.shed
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    fn metrics_value(&self, with_samples: bool) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields =
                        vec![("value", Value::Float(m.value)), ("unit", str_value(m.unit))];
                    if with_samples {
                        fields.push(("samples", Value::UInt(m.samples)));
                    }
                    (m.name.to_string(), obj(fields))
                })
                .collect(),
        )
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        let v = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed())),
            ("metrics", self.metrics_value(false)),
        ]);
        serde_json::to_string(&v).expect("json")
    }

    /// The full report, as stored in `results/` and merged into
    /// `BENCH_<rev>.json`.
    pub fn to_value(&self) -> Value {
        let fp = &self.fingerprint;
        obj(vec![
            ("workload", str_value(&self.workload)),
            ("scale", str_value(&self.scale)),
            ("seed", Value::UInt(self.seed)),
            ("seconds", Value::UInt(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("inputs_hash", str_value(&format!("{:016x}", fp.inputs_hash))),
            ("nproc", Value::UInt(fp.nproc as u64)),
            ("cpu_model", str_value(&fp.cpu_model)),
            ("rustc", str_value(&fp.rustc)),
            ("git_rev", str_value(&fp.git_rev)),
            ("attempted", Value::UInt(self.attempted)),
            ("mismatched", Value::UInt(self.mismatched)),
            ("shed", Value::UInt(self.shed)),
            ("fail_ratio", Value::Float(self.fail_ratio())),
            ("correct", Value::Bool(self.correct())),
            ("invalid", Value::Array(self.invalid.iter().map(|s| str_value(s)).collect())),
            ("disturbed", Value::Array(self.disturbed.iter().map(|s| str_value(s)).collect())),
            ("metrics", self.metrics_value(true)),
        ])
    }

    /// Inverse of [`Report::to_value`]; metric names must be in one of the
    /// tables.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name: &str| v.get_field(name).ok_or_else(|| format!("missing `{name}`"));
        let text = |name: &str| {
            field(name)?.as_str().map(str::to_string).ok_or_else(|| format!("`{name}`: string"))
        };
        let uint = |name: &str| field(name)?.as_u64().ok_or_else(|| format!("`{name}`: unsigned"));
        let flag = |name: &str| match field(name)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("`{name}`: bool")),
        };
        let trace = flag("trace")?;
        let table = if trace { PER_LAYER } else { END_TO_END };
        let Value::Object(metric_fields) = field("metrics")? else {
            return Err("`metrics`: object".into());
        };
        let metrics = metric_fields
            .iter()
            .map(|(name, m)| {
                let &(name, unit) = table
                    .iter()
                    .find(|(n, _)| n == name)
                    .ok_or_else(|| format!("unknown metric `{name}`"))?;
                let value = m.get_field("value").and_then(Value::as_f64);
                let samples = m.get_field("samples").and_then(Value::as_u64);
                match (value, samples) {
                    (Some(value), Some(samples)) => Ok(Metric { name, unit, value, samples }),
                    _ => Err(format!("metric `{name}`: value and samples")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        let texts = |name: &str| match field(name)? {
            Value::Array(items) => {
                Ok(items.iter().filter_map(|s| s.as_str().map(str::to_string)).collect::<Vec<_>>())
            }
            _ => Err(format!("`{name}`: array")),
        };
        Ok(Report {
            workload: text("workload")?,
            scale: text("scale")?,
            seed: uint("seed")?,
            seconds: uint("seconds")?,
            trace,
            fingerprint: Fingerprint {
                inputs_hash: u64::from_str_radix(&text("inputs_hash")?, 16)
                    .map_err(|e| format!("`inputs_hash`: {e}"))?,
                nproc: uint("nproc")? as usize,
                cpu_model: text("cpu_model")?,
                rustc: text("rustc")?,
                git_rev: text("git_rev")?,
            },
            attempted: uint("attempted")?,
            mismatched: uint("mismatched")?,
            shed: uint("shed")?,
            invalid: texts("invalid")?,
            disturbed: texts("disturbed")?,
            metrics,
        })
    }

    /// Every metric by name with its unit and sample count, then the
    /// verdict. The caller prints [`Report::driver_line`] last, and only
    /// for a run that is correct.
    pub fn print(&self) {
        let fp = &self.fingerprint;
        println!(
            "stackbench {} scale={} seed={} seconds={} trace={}",
            self.workload, self.scale, self.seed, self.seconds, self.trace as u8
        );
        println!(
            "  inputs_hash={:016x} nproc={} cpu=\"{}\" rustc=\"{}\" rev={}",
            fp.inputs_hash, fp.nproc, fp.cpu_model, fp.rustc, fp.git_rev
        );
        for m in &self.metrics {
            println!("  {:<34} {:>16.4} {:<14} n={}", m.name, m.value, m.unit, m.samples);
        }
        println!(
            "  fail_ratio {} ({} oracle mismatches + {} shed of {} attempted)",
            self.fail_ratio(),
            self.mismatched,
            self.shed,
            self.attempted
        );
        for reason in &self.invalid {
            println!("  INVALID: {reason}");
        }
        for reason in &self.disturbed {
            println!("  DISTURBED: {reason}");
        }
    }

    pub fn file_name(&self) -> String {
        format!("run_{}_t{}.json", self.workload, self.trace as u8)
    }

    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let text = serde_json::to_string_pretty(&self.to_value()).expect("json");
        std::fs::write(dir.join(self.file_name()), text + "\n")
    }
}

pub fn read_report(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Report::from_value(&value).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(trace: bool) -> Report {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut m = Metrics::new(table);
        // Reverse order: finish() must restore table order.
        for (i, (name, _)) in table.iter().enumerate().rev() {
            m.put(name, 1.5 + i as f64 * 0.123_456_789, i + 1);
        }
        Report {
            workload: "point-cold".into(),
            scale: "smoke".into(),
            seed: 42,
            seconds: 10,
            trace,
            fingerprint: Fingerprint {
                inputs_hash: 0xDEAD_BEEF_0123_4567,
                nproc: 2,
                cpu_model: "Some \"CPU\" @ 2GHz".into(),
                rustc: "rustc 1.0".into(),
                git_rev: "abc1234".into(),
            },
            attempted: 1000,
            mismatched: 0,
            shed: 0,
            invalid: vec![],
            disturbed: vec![],
            metrics: m.finish(),
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        for trace in [false, true] {
            let report = sample_report(trace);
            let text = serde_json::to_string_pretty(&report.to_value()).unwrap();
            let back = Report::from_value(&serde_json::from_str::<Value>(&text).unwrap()).unwrap();
            assert_eq!(back, report);
        }
        let mut bad = sample_report(false);
        bad.invalid.push("guard".into());
        bad.disturbed.push("late".into());
        bad.mismatched = 3;
        let back = Report::from_value(&bad.to_value()).unwrap();
        assert_eq!(back, bad);
        assert!(!back.correct());
        // A shed request is a failed operation, not a wrong answer.
        let mut shed = sample_report(false);
        shed.shed = 2;
        shed.disturbed.push("late".into());
        assert!(shed.correct());
        assert_eq!((shed.failed(), shed.fail_ratio()), (2, 0.002));
        assert!(shed.driver_line().contains("\"failed\":2"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let report = sample_report(false);
        let v: Value = serde_json::from_str(&report.driver_line()).unwrap();
        let Value::Object(fields) = &v else { panic!("object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Object(metrics)) = v.get_field("metrics") else { panic!("metrics") };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        let setup = v.get_field("metrics").unwrap().get_field("setup_s").unwrap();
        assert_eq!(setup.get_field("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get_field("value").and_then(Value::as_f64), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_names_are_refused() {
        Metrics::new(END_TO_END).put("latency", 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_refused() {
        let mut m = Metrics::new(END_TO_END);
        m.put("setup_s", 1.0, 1);
        m.finish();
    }

    /// `BENCHMARK.json` at the repo root and the tables here must name the
    /// same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (field, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(listed)) = v.get_field(field) else { panic!("{field}") };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    let s = |k| m.get_field(k).and_then(Value::as_str).unwrap();
                    (s("name"), s("unit"))
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{field}");
        }
    }
}
