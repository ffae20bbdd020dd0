//! The repository's `BENCHMARK.json`: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics.
//!
//! The file is embedded at build time, so `--compare` judges runs by the
//! bounds the binary was built with and a renamed metric fails the build's
//! own tests rather than a later comparison.

use crate::stats::Better;
use simcov_obs::json::{self, Json};

/// `BENCHMARK.json` as committed at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as the binary prints it.
    pub name: String,
    /// Unit as the binary prints it.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the base median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark declaration.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (measured with tracing off).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (measured by the traced pass).
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

/// Absolute allowance, in the metric's unit, below which a worsening is
/// not a regression whatever its share: set-up times of a few
/// milliseconds and resident sets of a few MiB move by more than their
/// bound between identical runs.
pub fn abs_floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.05,
        "peak_rss_mb" => 2.0,
        _ => 0.0,
    }
}

/// End-to-end metrics a run records and `--compare` judges, but which
/// `BENCHMARK.json` cannot declare: its metrics must appear on every
/// workload and never read 0. `batch_p90_ms` exists only where at least
/// ten batches lie beyond the 90th percentile (never on `dlx-full`), and
/// `error_rate` is 0 on a correct run; its zero bound admits no failed
/// job at all.
pub fn recorded_only() -> Vec<MetricSpec> {
    let spec = |name: &str, unit: &str, bound| MetricSpec {
        name: name.to_string(),
        unit: unit.to_string(),
        better: Better::Lower,
        bound: Some(bound),
    };
    vec![
        spec("batch_p90_ms", "ms", 0.25),
        spec("error_rate", "fraction", 0.0),
    ]
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn metrics(doc: &Json, key: &str, with_bound: bool) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("`{key}` must be an array"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .ok_or(format!("{key} entry needs a string `{f}`"))
            };
            let name = field("name")?;
            let unit = field("unit")?;
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("{key}: bad name or unit in `{name}` [{unit}]"));
            }
            let better = Better::parse(field("better")?)
                .ok_or(format!("{key}: `{name}` better must be higher|lower"))?;
            let keys = m.as_obj().map_or(0, <[_]>::len);
            let bound = if with_bound {
                let b = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{key}: `{name}` needs a numeric bound"))?;
                if !(0.0..=0.25).contains(&b) {
                    return Err(format!("{key}: `{name}` bound {b} outside [0, 0.25]"));
                }
                Some(b)
            } else {
                None
            };
            if keys != 3 + usize::from(with_bound) {
                return Err(format!("{key}: `{name}` has unexpected keys"));
            }
            Ok(MetricSpec {
                name: name.to_string(),
                unit: unit.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Parses and validates a `BENCHMARK.json` text.
pub fn parse(text: &str) -> Result<BenchSpec, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("`workloads` must be an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .filter(|n| valid_name(n))
                .map(str::to_string)
                .ok_or_else(|| "workload needs a valid `name`".to_string())
        })
        .collect::<Result<_, _>>()?;
    let end_to_end = metrics(&doc, "end_to_end", true)?;
    let per_layer = metrics(&doc, "per_layer", false)?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .filter(|s| (1..=60).contains(s))
        .ok_or("`run_seconds` must be a whole number in 1..=60")?;
    if !(2..=8).contains(&workloads.len())
        || !(1..=16).contains(&end_to_end.len())
        || !(1..=128).contains(&per_layer.len())
    {
        return Err("workload or metric count out of range".to_string());
    }
    let mut names: Vec<&str> = workloads
        .iter()
        .map(String::as_str)
        .chain(end_to_end.iter().map(|m| m.name.as_str()))
        .chain(per_layer.iter().map(|m| m.name.as_str()))
        .collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name `{}` is used twice", w[0]));
    }
    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => {}
        _ => return Err("end_to_end must declare setup_s [s], lower".to_string()),
    }
    Ok(BenchSpec {
        workloads,
        end_to_end,
        per_layer,
        run_seconds,
    })
}

/// The embedded declaration.
pub fn load() -> BenchSpec {
    parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is validated by this crate's tests")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_grammar() {
        assert!(valid_name("fsm.enumerate_ms"));
        assert!(valid_name("dlx-full"));
        assert!(valid_name("2x"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn committed_declaration_is_valid() {
        let spec = load();
        assert!(spec.end_to_end.len() <= 16);
        assert!(spec.per_layer.len() <= 128);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn parse_rejects_malformed_declarations() {
        let ok = r#"{"command":["x"],"paths":["p"],"run_seconds":5,
            "workloads":[{"name":"a","why":"."},{"name":"b","why":"."}],
            "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.2}],
            "per_layer":[{"name":"l.x","unit":"ms","better":"lower"}]}"#;
        assert!(parse(ok).is_ok());
        for (from, to) in [
            ("\"bound\":0.2", "\"bound\":0.3"),
            ("\"name\":\"l.x\"", "\"name\":\"a\""),
            ("\"run_seconds\":5", "\"run_seconds\":61"),
            ("\"unit\":\"ms\"", "\"unit\":\"m s\""),
            ("\"name\":\"setup_s\"", "\"name\":\"setup\""),
            (
                "\"better\":\"lower\"}]}",
                "\"better\":\"lower\",\"bound\":1}]}",
            ),
        ] {
            let bad = ok.replace(from, to);
            assert!(parse(&bad).is_err(), "{from} -> {to} must be refused");
        }
    }
}
