//! Metric values, the per-workload result record, and its JSON form.

use histmerge_bench::json::JsonVal;
use histmerge_bench::Table;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `<crate>.<module>.<metric>` for layers, a bare name end to end.
    pub name: String,
    /// Unit, e.g. `ms`, `count`, `%`.
    pub unit: String,
    /// The value.
    pub value: f64,
}

impl Metric {
    /// A metric from static name and unit.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric { name: name.to_string(), unit: unit.to_string(), value }
    }
}

/// An end-to-end metric over the timed reps: median and quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The median, the reported value.
    pub metric: Metric,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// One value per timed rep, in run order.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarizes one value per rep.
    pub fn of(name: &str, unit: &str, samples: Vec<f64>) -> Summary {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted);
        Summary { metric: Metric::new(name, unit, median(&sorted)), q1, q3, samples }
    }

    /// The interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.metric.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.metric.value.abs()
        }
    }
}

/// The median of sorted values (0 when empty).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles of sorted values by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`), so the spread printed
/// here is the spread a reader computes from the samples.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Everything one workload's run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Every correctness check passed.
    pub correct: bool,
    /// Syncs attempted in the reference run.
    pub attempted: u64,
    /// Syncs that failed (abandoned sessions and ledger gaps).
    pub failed: u64,
    /// End-to-end metrics over the timed reps.
    pub end_to_end: Vec<Summary>,
    /// Per-layer metrics from the traced run (empty when untraced).
    pub per_layer: Vec<Metric>,
}

impl Record {
    /// The full record as one JSON object.
    pub fn to_json(&self) -> String {
        let e2e: Vec<String> = self
            .end_to_end
            .iter()
            .map(|s| {
                let samples: Vec<String> = s.samples.iter().map(|v| num(*v)).collect();
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"samples\":[{}]}}",
                    s.metric.name,
                    num(s.metric.value),
                    s.metric.unit,
                    num(s.q1),
                    num(s.q3),
                    samples.join(",")
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"end_to_end\":{{{}}},\"per_layer\":{}}}",
            self.workload,
            self.seed,
            self.correct,
            self.attempted,
            self.failed,
            e2e.join(","),
            metrics_json(&self.per_layer)
        )
    }

    /// The one-line result of a single-workload run: end-to-end
    /// medians untraced, per-layer metrics traced.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            metrics_json(&self.per_layer)
        } else {
            let medians: Vec<Metric> = self.end_to_end.iter().map(|s| s.metric.clone()).collect();
            metrics_json(&medians)
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Reads a record written by [`Record::to_json`].
    pub fn from_json(value: &JsonVal) -> Result<Record, String> {
        let field = |key: &str| value.get(key).ok_or(format!("record lacks `{key}`"));
        let e2e = field("end_to_end")?.as_obj().ok_or("`end_to_end` is not an object")?;
        let end_to_end = e2e
            .iter()
            .map(|(name, v)| {
                let samples = v
                    .get("samples")
                    .and_then(JsonVal::as_arr)
                    .ok_or(format!("`{name}` lacks samples"))?
                    .iter()
                    .map(number)
                    .collect::<Result<Vec<f64>, String>>()?;
                Ok(Summary {
                    metric: metric(name, v)?,
                    q1: number(v.get("q1").unwrap_or(&JsonVal::Null))?,
                    q3: number(v.get("q3").unwrap_or(&JsonVal::Null))?,
                    samples,
                })
            })
            .collect::<Result<Vec<Summary>, String>>()?;
        let per_layer = field("per_layer")?
            .as_obj()
            .ok_or("`per_layer` is not an object")?
            .iter()
            .map(|(name, v)| metric(name, v))
            .collect::<Result<Vec<Metric>, String>>()?;
        Ok(Record {
            workload: field("workload")?.as_str().ok_or("`workload` is not a string")?.to_string(),
            seed: number(field("seed")?)? as u64,
            correct: matches!(field("correct")?, JsonVal::Bool(true)),
            attempted: number(field("attempted")?)? as u64,
            failed: number(field("failed")?)? as u64,
            end_to_end,
            per_layer,
        })
    }

    /// The end-to-end table: median, quartiles and spread per metric.
    pub fn e2e_table(&self) -> Table {
        let mut table = Table::new(&["metric", "unit", "median", "q1", "q3", "iqr/median", "n"]);
        for s in &self.end_to_end {
            table.row_owned(vec![
                s.metric.name.clone(),
                s.metric.unit.clone(),
                fmt(s.metric.value),
                fmt(s.q1),
                fmt(s.q3),
                format!("{:.2}%", 100.0 * s.spread()),
                s.samples.len().to_string(),
            ]);
        }
        table
    }
}

/// Renders metrics as `{"name":{"value":..,"unit":".."},..}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, num(m.value), m.unit))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A JSON number with every digit Rust prints (shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A value for a human table: four significant decimals.
pub fn fmt(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn number(v: &JsonVal) -> Result<f64, String> {
    match v {
        JsonVal::Num(n) => Ok(*n),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

fn metric(name: &str, v: &JsonVal) -> Result<Metric, String> {
    Ok(Metric {
        name: name.to_string(),
        unit: v
            .get("unit")
            .and_then(JsonVal::as_str)
            .ok_or(format!("`{name}` lacks a unit"))?
            .into(),
        value: number(v.get("value").unwrap_or(&JsonVal::Null))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles([1.25, 2.0, 3.5], n=4) == [1.25, 2.0, 3.5]
        assert_eq!(quartiles(&[1.25, 2.0, 3.5]), (1.25, 3.5));
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = Record {
            workload: "window-merge".into(),
            seed: 1906,
            correct: true,
            attempted: 12,
            failed: 0,
            end_to_end: vec![Summary::of("syncs_per_s", "syncs/s", vec![3.5, 1.25, 2.0])],
            per_layer: vec![Metric::new("core.merge.plans", "count", 7.0)],
        };
        let parsed = histmerge_bench::json::parse(&record.to_json()).expect("valid JSON");
        assert_eq!(Record::from_json(&parsed).expect("a record"), record);
        let line = histmerge_bench::json::parse(&record.result_line(false)).expect("valid JSON");
        let metrics = line.get("metrics").and_then(JsonVal::as_obj).expect("metrics");
        assert_eq!(metrics[0].0, "syncs_per_s");
        assert_eq!(metrics[0].1.get("value"), Some(&JsonVal::Num(2.0)));
    }
}
