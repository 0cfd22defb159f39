//! Declarative campaign files: parameter sweeps expressed as data.
//!
//! A campaign file is one or more blocks separated by `---` lines. A
//! block is the same `key=value` grammar as a single job file, plus any
//! number of `sweep <key> = v1, v2, ...` axes. Each block expands to the
//! cartesian product of its axes (in file order: the first axis varies
//! slowest), layered over the block's fixed pairs. `#` starts a comment.
//!
//! ```text
//! workload=allreduce
//! gpus=4
//! sweep elems = 64, 4096
//! sweep algo  = ring, rd
//! ---
//! workload=exchange
//! nodes=2
//! ```
//!
//! expands to 4 allreduce jobs plus 1 exchange job. Because jobs are
//! content-addressed, sweeps with a shared prefix of already-run points
//! are memoized for free — only the novel points execute.

use crate::job::JobSpec;

/// A parsed campaign: the expanded job list, in file order.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Every job the campaign describes, after sweep expansion.
    pub jobs: Vec<JobSpec>,
}

impl Campaign {
    /// Parse and expand a campaign file body. Errors carry the 1-based
    /// line number of the offending line.
    pub fn parse(text: &str) -> Result<Campaign, String> {
        let mut jobs = Vec::new();
        let mut fixed: Vec<(String, String)> = Vec::new();
        let mut axes: Vec<(String, Vec<String>)> = Vec::new();

        let flush = |fixed: &mut Vec<(String, String)>,
                     axes: &mut Vec<(String, Vec<String>)>,
                     jobs: &mut Vec<JobSpec>|
         -> Result<(), String> {
            if fixed.is_empty() && axes.is_empty() {
                return Ok(());
            }
            for combo in cartesian(axes) {
                let pairs = fixed
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .chain(combo.iter().map(|(k, v)| (*k, v.as_str())));
                // `from_pairs` validates what it builds.
                jobs.push(JobSpec::from_pairs(pairs)?);
            }
            fixed.clear();
            axes.clear();
            Ok(())
        };

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.chars().all(|c| c == '-') && line.len() >= 3 {
                flush(&mut fixed, &mut axes, &mut jobs)
                    .map_err(|e| format!("line {lineno}: {e}"))?;
                continue;
            }
            if let Some(rest) = line.strip_prefix("sweep ") {
                let (key, values) = rest
                    .split_once('=')
                    .ok_or_else(|| format!("line {lineno}: sweep needs <key> = v1, v2, ..."))?;
                let key = key.trim().to_string();
                let values: Vec<String> = values
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect();
                if values.is_empty() {
                    return Err(format!("line {lineno}: sweep {key} has no values"));
                }
                if axes.iter().any(|(k, _)| *k == key) {
                    return Err(format!("line {lineno}: duplicate sweep axis {key}"));
                }
                axes.push((key, values));
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected key=value, got {line:?}"))?;
            fixed.push((k.trim().to_string(), v.trim().to_string()));
        }
        flush(&mut fixed, &mut axes, &mut jobs).map_err(|e| format!("at end of file: {e}"))?;
        if jobs.is_empty() {
            return Err("campaign expands to zero jobs".to_string());
        }
        Ok(Campaign { jobs })
    }

    /// Parse a campaign file from disk. Every expanded job is tagged with
    /// the file stem as its `campaign` correlation id (unless a block set
    /// one explicitly), so results, heartbeat rows and flight dumps all
    /// carry the campaign they came from. The tag is not part of the
    /// cache key — memoization across campaigns is unaffected.
    pub fn load(path: &std::path::Path) -> Result<Campaign, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut camp = Campaign::parse(&text)?;
        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
            for job in &mut camp.jobs {
                if job.campaign.is_empty() {
                    job.campaign = stem.to_string();
                }
            }
        }
        Ok(camp)
    }
}

/// Cartesian product of the sweep axes: first axis varies slowest, so
/// expansion order matches reading order.
fn cartesian<'a>(axes: &'a [(String, Vec<String>)]) -> Vec<Vec<(&'a str, String)>> {
    let mut out: Vec<Vec<(&'a str, String)>> = vec![Vec::new()];
    for (key, values) in axes {
        let mut next = Vec::with_capacity(out.len() * values.len());
        for prefix in &out {
            for v in values {
                let mut combo = prefix.clone();
                combo.push((key.as_str(), v.clone()));
                next.push(combo);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_expands_in_file_order() {
        let c = Campaign::parse(
            "workload=allreduce\ngpus=2\nsweep elems = 16, 32\nsweep seed = 1, 2\n",
        )
        .unwrap();
        assert_eq!(c.jobs.len(), 4);
        let points: Vec<(usize, u64)> = c.jobs.iter().map(|j| (j.elems, j.seed)).collect();
        assert_eq!(points, vec![(16, 1), (16, 2), (32, 1), (32, 2)]);
    }

    #[test]
    fn blocks_are_independent() {
        let c = Campaign::parse(
            "workload=allreduce\nsweep elems = 16, 32\n---\nworkload=exchange\nnodes=2\ngpus=1\n",
        )
        .unwrap();
        assert_eq!(c.jobs.len(), 3);
        assert_eq!(c.jobs[2].nodes, 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let c =
            Campaign::parse("# a comment\nworkload=allreduce # trailing\n\nelems=64\n").unwrap();
        assert_eq!(c.jobs.len(), 1);
        assert_eq!(c.jobs[0].elems, 64);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Campaign::parse("workload=allreduce\nnot a pair\n").unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
        let err = Campaign::parse("sweep elems =\nworkload=allreduce\n").unwrap_err();
        assert!(err.contains("no values"), "got: {err}");
        let err = Campaign::parse("sweep x = 1\nsweep x = 2\n").unwrap_err();
        assert!(err.contains("duplicate sweep axis"), "got: {err}");
    }

    #[test]
    fn invalid_expanded_jobs_are_rejected_at_parse_time() {
        // exchange on a 4-task machine fails validation during expansion.
        let err = Campaign::parse("workload=exchange\nnodes=2\ngpus=2\n").unwrap_err();
        assert!(err.contains("exchange"), "got: {err}");
    }

    #[test]
    fn empty_campaign_is_an_error() {
        assert!(Campaign::parse("# only comments\n").is_err());
    }
}
