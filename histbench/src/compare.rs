//! `histbench compare A.json B.json`: one verdict per workload and
//! end-to-end metric, and on a regression the per-layer metrics that
//! moved most on that workload.

use histmerge_bench::json::JsonVal;
use histmerge_bench::Table;

use crate::report::{fmt, Metric, Record, Summary};

/// An end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn bounds(doc: &JsonVal) -> Result<Vec<Bound>, String> {
    let rows = doc.get("end_to_end").and_then(JsonVal::as_arr).ok_or("no `end_to_end` list")?;
    rows.iter()
        .map(|row| {
            let name = row.get("name").and_then(JsonVal::as_str).ok_or("metric without name")?;
            let better = row.get("better").and_then(JsonVal::as_str);
            let bound = match row.get("bound") {
                Some(JsonVal::Num(b)) => *b,
                _ => return Err(format!("`{name}` has no numeric bound")),
            };
            Ok(Bound { name: name.to_string(), lower_is_better: better == Some("lower"), bound })
        })
        .collect()
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Better by more than the bound.
    Improved,
    /// One side's interquartile range is wider than the bound.
    Unresolved,
}

/// Judges `after` against `before` under `bound`. The change is read as
/// the share of the baseline median by which the metric got worse.
pub fn verdict(before: &Summary, after: &Summary, bound: &Bound) -> (Verdict, f64) {
    let (a, b) = (before.metric.value, after.metric.value);
    let worse = if a == 0.0 {
        0.0
    } else if bound.lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    };
    let verdict = if before.spread().max(after.spread()) > bound.bound {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else if worse < -bound.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// The `n` per-layer metrics with the largest relative change.
pub fn biggest_moves(before: &[Metric], after: &[Metric], n: usize) -> Vec<(String, f64, f64)> {
    let mut moves: Vec<(String, f64, f64, f64)> = before
        .iter()
        .filter_map(|a| {
            let b = after.iter().find(|b| b.name == a.name)?;
            let scale = a.value.abs().max(b.value.abs());
            (scale > 0.0)
                .then(|| (a.name.clone(), a.value, b.value, (b.value - a.value).abs() / scale))
        })
        .collect();
    moves.sort_by(|x, y| y.3.total_cmp(&x.3));
    moves.into_iter().take(n).map(|(name, a, b, _)| (name, a, b)).collect()
}

/// Compares two result sets; prints the verdict table and, for each
/// regression, the three layers that moved most. Returns the number of
/// regressions.
pub fn compare(before: &[Record], after: &[Record], bounds: &[Bound]) -> usize {
    let mut table = Table::new(&["workload", "metric", "before", "after", "worse_by", "verdict"]);
    let mut regressions = Vec::new();
    for a in before {
        let Some(b) = after.iter().find(|b| b.workload == a.workload) else {
            println!("{}: missing from the second result set", a.workload);
            continue;
        };
        for bound in bounds {
            let find =
                |r: &Record| r.end_to_end.iter().find(|s| s.metric.name == bound.name).cloned();
            let (Some(sa), Some(sb)) = (find(a), find(b)) else {
                println!("{}: `{}` missing from a result set", a.workload, bound.name);
                continue;
            };
            let (verdict, worse) = verdict(&sa, &sb, bound);
            if verdict == Verdict::Regressed {
                regressions.push((a, b, bound.name.clone()));
            }
            table.row_owned(vec![
                a.workload.clone(),
                bound.name.clone(),
                fmt(sa.metric.value),
                fmt(sb.metric.value),
                format!("{:+.2}%", 100.0 * worse),
                format!("{verdict:?}").to_lowercase(),
            ]);
        }
    }
    table.print();
    for (a, b, metric) in &regressions {
        println!("\n{} regressed on {metric}; layers that moved most:", a.workload);
        for (name, va, vb) in biggest_moves(&a.per_layer, &b.per_layer, 3) {
            println!("  {name}: {} -> {}", fmt(va), fmt(vb));
        }
    }
    regressions.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(samples: &[f64]) -> Summary {
        Summary::of("syncs_per_s", "syncs/s", samples.to_vec())
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let higher = Bound { name: "syncs_per_s".into(), lower_is_better: false, bound: 0.1 };
        let base = summary(&[100.0, 100.0, 100.0, 100.0, 100.0]);
        assert_eq!(verdict(&base, &summary(&[95.0; 5]), &higher).0, Verdict::Ok);
        assert_eq!(verdict(&base, &summary(&[85.0; 5]), &higher).0, Verdict::Regressed);
        assert_eq!(verdict(&base, &summary(&[120.0; 5]), &higher).0, Verdict::Improved);
        let noisy = summary(&[60.0, 80.0, 100.0, 120.0, 140.0]);
        assert_eq!(verdict(&base, &noisy, &higher).0, Verdict::Unresolved);
        let lower = Bound { lower_is_better: true, ..higher };
        assert_eq!(verdict(&base, &summary(&[120.0; 5]), &lower).0, Verdict::Regressed);
    }

    #[test]
    fn the_biggest_layer_moves_come_first() {
        let before = vec![
            Metric::new("a", "%", 10.0),
            Metric::new("b", "%", 10.0),
            Metric::new("c", "count", 0.0),
        ];
        let after = vec![
            Metric::new("a", "%", 11.0),
            Metric::new("b", "%", 20.0),
            Metric::new("c", "count", 0.0),
        ];
        let moves = biggest_moves(&before, &after, 3);
        assert_eq!(moves[0].0, "b");
        assert_eq!(moves.len(), 2, "metrics zero on both sides never rank");
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let doc = histmerge_bench::json::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .expect("valid JSON");
        let expected = Bound { name: "setup_s".into(), lower_is_better: true, bound: 0.25 };
        assert_eq!(bounds(&doc), Ok(vec![expected]));
    }
}
