//! Small measurement helpers: order statistics, `/proc` readings, the
//! host block, digests and a minimal JSON writer (the workspace has no
//! JSON serializer).

use std::fmt::Write as _;

/// Median (mean of the middle pair for even counts). `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) over the sorted values.
/// `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which is 100
/// on every architecture the kernel exports to user space.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, including the children it
/// has waited for (`utime + stime + cutime + cstime` of `/proc/self/stat`).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime..cstime are fields 14..17.
    (11..15)
        .filter_map(|i| fields.get(i).and_then(|f| f.parse::<f64>().ok()))
        .sum::<f64>()
        / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a digest of a byte-stable output.
pub fn digest(text: &str) -> u64 {
    greener_simkit::rng::fnv1a(text.as_bytes())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host block every result carries: numbers are only comparable
/// between runs on one host.
pub fn host_block(seed: u64, shards: usize) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("-vV")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_default();
    let release = rustc.lines().next().unwrap_or("unknown").to_string();
    let target = rustc
        .lines()
        .find_map(|l| l.strip_prefix("host: "))
        .unwrap_or("unknown")
        .to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::Str(release)),
        ("target", Json::Str(target)),
        ("cpu_model", Json::Str(cpu)),
        ("seed", Json::Num(seed as f64)),
        ("shards", Json::Num(shards as f64)),
        (
            "rayon_num_threads",
            Json::Str(std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
        ),
    ])
}

/// A JSON value (objects keep insertion order).
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact one-line rendering. Non-finite numbers render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // Whole numbers print without a fraction; others with every
            // digit (`{:?}` is the shortest exact round-trip).
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => {
                let _ = write!(out, "{}", *x as i64);
            }
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_renders_compactly() {
        let j = Json::obj([
            ("a", Json::Num(3.0)),
            ("b", Json::Num(0.25)),
            ("c", Json::Str("x\"y".into())),
            ("d", Json::Arr(vec![Json::Bool(true), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a": 3, "b": 0.25, "c": "x\"y", "d": [true, null]}"#
        );
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
