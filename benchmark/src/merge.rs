//! `stackbench merge`: fold the eight run files of a results directory
//! (four workloads, untraced and traced) into one trajectory point,
//! `BENCH_<rev>.json`, with the self-time share of every layer per
//! workload and the one guard that needs two workloads to evaluate.

use crate::report::{read_report, Report};
use crate::workloads::WORKLOADS;
use serde_json::Value;
use std::path::Path;

/// The rungs a closed-loop `get` passes through, with the metric that
/// holds each one's self time (`index` has no rung below it, so its total
/// is its own).
const SHARE_LAYERS: [(&str, &str); 5] = [
    ("index", "index.get_ns"),
    ("engine", "engine.self_ns"),
    ("shard", "shard.self_ns"),
    ("writebehind", "writebehind.self_ns"),
    ("cache", "cache.self_ns"),
];

/// Each layer's share of the time of a top-rung `get`, from one traced
/// report: the layer's self time per call that reaches it, weighted by how
/// many calls do — every call reaches `cache`, only its misses reach the
/// rungs below. A negative self time (noise) counts as zero.
pub fn self_time_shares(traced: &Report) -> Vec<(&'static str, f64)> {
    let value =
        |name: &str| traced.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let miss_ratio = 1.0 - value("cache.hit_ratio");
    let own: Vec<(&str, f64)> = SHARE_LAYERS
        .iter()
        .map(|&(layer, metric)| {
            let reach = if layer == "cache" { 1.0 } else { miss_ratio };
            (layer, value(metric).max(0.0) * reach)
        })
        .collect();
    let total: f64 = own.iter().map(|(_, ns)| ns).sum();
    own.into_iter().map(|(layer, ns)| (layer, if total > 0.0 { ns / total } else { 0.0 })).collect()
}

/// A lead smaller than this share of a `get` does not settle which layer
/// is the largest: two measurements of the same code differ by as much.
const CLEAR_LEAD: f64 = 0.05;

/// The layer with the largest share and its lead over the runner-up.
fn largest(shares: &[(&'static str, f64)]) -> (&'static str, f64) {
    let mut sorted = shares.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    (sorted[0].0, sorted[0].1 - sorted[1].1)
}

pub fn merge(dir: &Path, rev: &str) -> Result<(), String> {
    let mut runs = Vec::new();
    let mut shares = Vec::new();
    let mut invalid = Vec::new();
    for spec in WORKLOADS {
        for trace in [0, 1] {
            let report = read_report(&dir.join(format!("run_{}_t{trace}.json", spec.name)))?;
            if !report.correct() {
                invalid.push(format!("{} trace={trace}: run incorrect or invalid", spec.name));
            }
            for reason in &report.disturbed {
                invalid.push(format!("{} trace={trace}: {reason}", spec.name));
            }
            if trace == 1 {
                shares.push((spec.name, self_time_shares(&report)));
            }
            runs.push(report);
        }
    }
    let top = |workload: &str| {
        shares.iter().find(|(w, _)| *w == workload).map(|(_, s)| largest(s)).expect("all four ran")
    };
    let ((cold, _), (hot, hot_lead)) = (top("point-cold"), top("point-hot"));
    if cold == hot && hot_lead > CLEAR_LEAD {
        invalid.push(format!(
            "`{cold}` has the largest self-time share on both point-cold and point-hot: the cache \
             capacity or the skew is mis-sized and the workloads do not separate layers"
        ));
    }

    let shares_value = Value::Object(
        shares
            .iter()
            .map(|(workload, s)| {
                let layers = s.iter().map(|&(l, v)| (l.to_string(), Value::Float(v))).collect();
                (workload.to_string(), Value::Object(layers))
            })
            .collect(),
    );
    let out = Value::Object(vec![
        ("rev".to_string(), Value::Str(rev.to_string())),
        ("valid".to_string(), Value::Bool(invalid.is_empty())),
        (
            "invalid".to_string(),
            Value::Array(invalid.iter().map(|s| Value::Str(s.clone())).collect()),
        ),
        ("self_time_shares".to_string(), shares_value),
        ("runs".to_string(), Value::Array(runs.iter().map(Report::to_value).collect())),
    ]);
    let path = dir.join(format!("BENCH_{rev}.json"));
    let text = serde_json::to_string_pretty(&out).expect("json") + "\n";
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;

    println!("self-time shares of a closed-loop get (traced run, outside-in):");
    for (workload, s) in &shares {
        let row: Vec<String> = s.iter().map(|(l, v)| format!("{l} {:.1}%", v * 100.0)).collect();
        println!("  {workload:<15} {}", row.join("  "));
    }
    println!("wrote {}", path.display());
    if invalid.is_empty() {
        Ok(())
    } else {
        Err(invalid.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Fingerprint, Metric};

    #[test]
    fn shares_sum_to_one_and_clamp_negative_self_times() {
        let metric = |name, value| Metric { name, unit: "ns", value, samples: 1 };
        let report = Report {
            workload: "point-cold".into(),
            scale: "smoke".into(),
            seed: 1,
            seconds: 1,
            trace: true,
            fingerprint: Fingerprint {
                inputs_hash: 0,
                nproc: 2,
                cpu_model: String::new(),
                rustc: String::new(),
                git_rev: String::new(),
            },
            attempted: 1,
            mismatched: 0,
            shed: 0,
            invalid: vec![],
            disturbed: vec![],
            metrics: vec![
                metric("index.get_ns", 300.0),
                metric("engine.self_ns", -20.0),
                metric("shard.self_ns", 50.0),
                metric("writebehind.self_ns", 100.0),
                metric("cache.self_ns", 50.0),
                metric("cache.hit_ratio", 0.5),
            ],
        };
        // Below the cache only the missing half of the calls arrives:
        // 150 + 0 + 25 + 50 + 50 = 275 ns of a top-rung get.
        let shares = self_time_shares(&report);
        let want = [
            ("index", 150.0),
            ("engine", 0.0),
            ("shard", 25.0),
            ("writebehind", 50.0),
            ("cache", 50.0),
        ];
        for ((layer, share), (want_layer, want_ns)) in shares.iter().zip(want) {
            assert_eq!(*layer, want_layer);
            assert!((share - want_ns / 275.0).abs() < 1e-12, "{layer}: {share}");
        }
        let (top, lead) = largest(&shares);
        assert_eq!(top, "index");
        assert!((lead - 100.0 / 275.0).abs() < 1e-12);
    }
}
