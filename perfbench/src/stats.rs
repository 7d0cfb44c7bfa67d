//! Order statistics, the geometric mean, and process readings from `/proc`.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of floating-point samples (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive ratios; `None` for an empty set.
pub fn geomean(ratios: &[f64]) -> Option<f64> {
    (!ratios.is_empty())
        .then(|| (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

/// User + system CPU time of the whole process so far, in microseconds,
/// from `/proc/self/stat`. Exited threads stay counted.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    // USER_HZ, the unit of /proc tick counts, is 100 on every Linux target.
    ticks as f64 * 1e4
}

/// A field of `/proc/self/status` in kB (e.g. `VmHWM`).
pub fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a repository.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == r).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computed_values() {
        let g = |v: &[f64]| geomean(v).expect("non-empty");
        assert!((g(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((g(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((g(&[9.6, 1.1]) - (9.6f64 * 1.1).sqrt()).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        // A geomean is not the arithmetic mean a sum-weighted aggregate gives.
        assert!(g(&[9.0, 1.0]) < 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(status_kb("VmHWM") > 0);
        assert!(process_cpu_us() >= 0.0);
    }
}
