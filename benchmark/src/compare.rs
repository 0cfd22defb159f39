//! `compare A1.json B1.json [A2.json B2.json ...]`: judge the B files
//! against the A files, one row per end-to-end metric and workload.
//!
//! One pair is a coarse gate: the bounds `BENCHMARK.json` fixes, with each
//! file's own repetitions as the measure of noise. Ten or more pairs, made
//! by running A and B alternately, are the real gate: the host's drift hits
//! both sides of a pair alike, so a row is also judged by how many pairs
//! each side won.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr, iqr_share, median};

/// Pairs from which the pair rule applies (choosing-metrics, section 8).
const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The samples spread wider than the bound, so a difference of that
    /// size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row. With one file a side, `value` is the file's metric
/// and `samples` are the repetitions behind it (just the value when the
/// metric has none). With several, `value` is the median over the files
/// and `samples` are the files' values, in the order given.
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Side {
    fn over_runs(values: Vec<f64>) -> Side {
        Side {
            value: median(&values),
            samples: values,
        }
    }
}

/// `paired`: the samples are runs made pair by pair, A and B alternating,
/// and there are enough of them for the pair rule.
pub fn judge(a: &Side, b: &Side, lower_is_better: bool, bound: f64, paired: bool) -> Verdict {
    // Signed so that positive always means "B is worse".
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worsening = sign * (b.value - a.value) / a.value.abs();

    // Paired runs: a side that wins nine pairs in ten, by more than A's own
    // runs spread, has moved — a gain and a regression by the same rule,
    // however wide the bound. Ties count for neither.
    if paired {
        let pairs = a.samples.len();
        let diffs = a
            .samples
            .iter()
            .zip(&b.samples)
            .map(|(x, y)| sign * (y - x));
        let (wins, losses) = diffs.fold((0, 0), |(w, l), d| {
            (w + usize::from(d < 0.0), l + usize::from(d > 0.0))
        });
        let decisive = (b.value - a.value).abs() > iqr(&a.samples);
        if decisive && wins * 10 >= pairs * 9 {
            return Verdict::Better;
        }
        if decisive && losses * 10 >= pairs * 9 {
            return Verdict::Worse;
        }
    }

    if iqr_share(&a.samples).max(iqr_share(&b.samples)) > bound {
        // Noise wider than the bound still resolves when every sample of B
        // beats every sample of A.
        let beats_all = |x: f64| a.samples.iter().all(|&y| sign * (x - y) < 0.0);
        return if !b.samples.is_empty() && b.samples.iter().all(|&x| beats_all(x)) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric_value(workload: &Json, section: &str, name: &str) -> Option<f64> {
    workload.get(section)?.get(name)?.get("value")?.as_f64()
}

/// One side's view of one row, from that side's result files.
fn side(workloads: &[Json], metric: &str) -> Option<Side> {
    let values: Option<Vec<f64>> = workloads
        .iter()
        .map(|w| metric_value(w, "end_to_end", metric))
        .collect();
    let values = values?;
    if let [value] = values[..] {
        // Metrics with per-repetition raw values carry them in `detail`.
        let reps = workloads[0].get("detail").and_then(|d| d.get(metric));
        return Some(Side {
            value,
            samples: reps.map_or_else(|| vec![value], Json::f64s),
        });
    }
    Some(Side::over_runs(values))
}

/// Print the table; `Ok(true)` when no row is `worse`. `a` and `b` hold the
/// same number of result files, pair by pair.
pub fn compare(a: &[Json], b: &[Json]) -> Result<bool, String> {
    let pairs = a.len();
    if pairs == 0 || pairs != b.len() {
        return Err("compare needs as many B files as A files, at least one each".to_string());
    }
    if pairs > 1 && pairs < MIN_PAIRS {
        println!(
            "{pairs} pairs: fewer than the {MIN_PAIRS} the pair rule needs, so rows are judged by medians and bounds only"
        );
    }
    let mut worse = 0usize;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for w in &WORKLOADS {
        let of = |files: &[Json]| -> Result<Vec<Json>, String> {
            files
                .iter()
                .map(|file| {
                    file.get("workloads")
                        .and_then(|ws| ws.get(w.name))
                        .cloned()
                        .ok_or(format!("workload {} is missing from a result file", w.name))
                })
                .collect()
        };
        let (wa, wb) = (of(a)?, of(b)?);
        for e in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(&wa, e.name), side(&wb, e.name)) else {
                return Err(format!("{}: {} is missing", w.name, e.name));
            };
            let verdict = judge(&sa, &sb, e.better == "lower", e.bound, pairs >= MIN_PAIRS);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<12} {:<12} {:>14.6} {:>14.6} {:>+7.1}%  {}",
                w.name,
                e.name,
                sa.value,
                sb.value,
                (sb.value - sa.value) / sa.value * 100.0,
                verdict.label()
            );
        }
        let failed = |side: &[Json]| {
            side.iter()
                .map(|wl| wl.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0))
                .fold(0.0, f64::max)
        };
        if failed(&wb) > failed(&wa) {
            worse += 1;
            println!(
                "{:<12} {:<12} {:>14.6} {:>14.6} {:>8}  worse",
                w.name,
                "failed_share",
                failed(&wa),
                failed(&wb),
                ""
            );
        }
        // Every file of both sides must hold the first file's exact counts.
        for p in PER_LAYER.iter().filter(|p| p.exact_on(w.name)) {
            let want = metric_value(&wa[0], "per_layer", p.name);
            for got in wa
                .iter()
                .chain(&wb)
                .map(|wl| metric_value(wl, "per_layer", p.name))
            {
                if got != want {
                    worse += 1;
                    println!(
                        "{:<12} {:<28} exact metric differs: {want:?} vs {got:?}  worse",
                        w.name, p.name
                    );
                }
            }
        }
    }
    println!(
        "{}",
        if worse == 0 {
            "no row is worse; every exact metric is identical".to_string()
        } else {
            format!("{worse} rows are worse")
        }
    );
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn within_the_bound_is_same_beyond_it_is_worse_or_better() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(
            judge(
                &side(1.0, &a),
                &side(1.05, &[1.05, 1.04, 1.06]),
                true,
                0.10,
                false
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(
                &side(1.0, &a),
                &side(1.2, &[1.2, 1.19, 1.21]),
                true,
                0.10,
                false
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &side(1.0, &a),
                &side(0.8, &[0.8, 0.79, 0.81]),
                true,
                0.10,
                false
            ),
            Verdict::Better
        );
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(
                &side(100.0, &a),
                &side(80.0, &[80.0, 81.0, 79.0]),
                false,
                0.10,
                false
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &side(100.0, &a),
                &side(125.0, &[125.0, 124.0, 126.0]),
                false,
                0.10,
                false
            ),
            Verdict::Better
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        // B's own repetitions span 0.8..1.6: a 20 % shift means nothing.
        let noisy = [0.8, 1.2, 1.6];
        assert_eq!(
            judge(
                &side(1.0, &[1.0, 1.0, 1.0]),
                &side(1.2, &noisy),
                true,
                0.10,
                false
            ),
            Verdict::Unresolved
        );
        // ... unless every repetition of B beats every repetition of A.
        assert_eq!(
            judge(
                &side(2.0, &[2.0, 2.1, 1.9]),
                &side(1.2, &noisy),
                true,
                0.10,
                false
            ),
            Verdict::Better
        );
        // A single value has no spread to hide behind.
        assert_eq!(
            judge(
                &side(100.0, &[100.0]),
                &side(130.0, &[130.0]),
                true,
                0.10,
                false
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn ten_alternating_pairs_resolve_what_one_wide_bound_cannot() {
        // The host drifts 9 % over the ten pairs; B is 12 % slower in each.
        let a: Vec<f64> = (0..10).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.12).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.88).collect();
        let sides = |b: &[f64]| (Side::over_runs(a.clone()), Side::over_runs(b.to_vec()));
        // 12 % is far inside the 25 % bound: without the pairs this row
        // would read `same`.
        let (sa, sb) = sides(&slower);
        assert_eq!(judge(&sa, &sb, true, 0.25, true), Verdict::Worse);
        let (sa, sb) = sides(&faster);
        assert_eq!(judge(&sa, &sb, true, 0.25, true), Verdict::Better);
        // The same runs against themselves, and a side that wins only half
        // the pairs, have not moved.
        let (sa, sb) = sides(&a);
        assert_eq!(judge(&sa, &sb, true, 0.25, true), Verdict::Same);
        let mixed: Vec<f64> = a
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 2 == 0 { x * 1.08 } else { x * 0.92 })
            .collect();
        let (sa, sb) = sides(&mixed);
        assert_eq!(judge(&sa, &sb, true, 0.25, true), Verdict::Same);
        // A shift smaller than A's own runs spread is not decisive, even
        // when B loses every pair.
        let barely: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        let (sa, sb) = sides(&barely);
        assert_eq!(judge(&sa, &sb, true, 0.25, true), Verdict::Same);
        // Unpaired, the bound decides.
        let (sa, sb) = sides(&slower);
        assert_eq!(judge(&sa, &sb, true, 0.25, false), Verdict::Same);
    }
}
