//! Result emission: aligned text tables on stdout and JSON files under
//! `results/`.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(s, "{c:>w$}  ");
            }
            s.trim_end().to_string()
        };
        let header = line(&self.headers);
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(header.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Render to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Directory the harness writes results into: `$LINGER_RESULTS` or
/// `results/` relative to the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("LINGER_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Serialize `value` as pretty JSON into `results/<name>.json`.
///
/// The write is atomic: bytes land in a same-directory temp file that is
/// renamed over the target, so readers (and interrupted runs) never see
/// a truncated result file.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    write_json_in(&results_dir(), name, value)
}

/// [`write_json`] into an explicit directory.
fn write_json_in<T: Serialize>(dir: &Path, name: &str, value: &T) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    linger_sim_core::write_atomic(&path, json.as_bytes())?;
    Ok(path)
}

/// Parse harness CLI flags shared by every figure binary.
///
/// Supported: `--seed <n>` (default 1998), `--fast` (scaled-down run for
/// smoke testing), `--reps <n>` (replications with confidence intervals,
/// where the binary supports it), `--jobs <n>` (worker threads for the
/// deterministic parallel runner; 0 = one per core; output is
/// byte-identical at any value), `--max-nodes <n>` (truncate a
/// node-count sweep, where the binary supports it), and `--ci <level>`
/// (confidence level for interval half-widths; must be one of the
/// supported z-table levels).
#[derive(Debug, Clone, Copy)]
pub struct HarnessArgs {
    /// Master seed.
    pub seed: u64,
    /// Scale runs down for fast smoke tests.
    pub fast: bool,
    /// Replication count for binaries that support error bars.
    pub reps: u32,
    /// Worker threads (0 = one per core).
    pub jobs: usize,
    /// Upper bound on a node-count sweep (`None` = run every count).
    pub max_nodes: Option<usize>,
    /// Confidence level for interval half-widths (default 0.95;
    /// validated against the supported z-table at parse time).
    pub ci_level: f64,
}

/// Why the harness CLI arguments failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag that takes a value reached the end of the argument list.
    MissingValue(&'static str),
    /// A flag's value did not parse as the expected type.
    InvalidValue {
        /// The flag whose value was rejected.
        flag: &'static str,
        /// The offending value as given.
        value: String,
    },
    /// An argument no figure binary understands.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            ArgError::InvalidValue { flag, value } => {
                write!(f, "{flag} rejected value '{value}'")
            }
            ArgError::Unknown(arg) => write!(f, "unknown argument '{arg}'"),
        }
    }
}

impl std::error::Error for ArgError {}

/// One-line usage string shared by every figure binary.
pub const USAGE: &str =
    "usage: [--seed <n>] [--reps <n>] [--jobs <n>] [--max-nodes <n>] [--ci <level>] [--fast]\n\
     --seed <n>       master seed (default 1998)\n\
     --reps <n>       replications where supported (default 1)\n\
     --jobs <n>       worker threads, 0 = one per core (default 0)\n\
     --max-nodes <n>  truncate a node-count sweep where supported\n\
     --ci <level>     confidence level: 0.90, 0.95, or 0.99 (default 0.95)\n\
     --fast           scaled-down smoke run";

impl HarnessArgs {
    /// Parse from `std::env::args` and apply `--jobs` process-wide. On a
    /// bad command line, print the error and usage to stderr and exit
    /// with a non-zero status instead of panicking.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => {
                linger_sim_core::set_default_jobs(args.jobs);
                args
            }
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse an explicit argument list (no process-wide side effects).
    pub fn try_parse<I>(args: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = String>,
    {
        fn value<I: Iterator<Item = String>>(
            args: &mut I,
            flag: &'static str,
        ) -> Result<String, ArgError> {
            args.next().ok_or(ArgError::MissingValue(flag))
        }
        fn int<T: std::str::FromStr>(flag: &'static str, v: String) -> Result<T, ArgError> {
            v.parse().map_err(|_| ArgError::InvalidValue { flag, value: v })
        }
        let mut parsed = HarnessArgs {
            seed: 1998,
            fast: false,
            reps: 1,
            jobs: 0,
            max_nodes: None,
            ci_level: 0.95,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--seed" => parsed.seed = int("--seed", value(&mut args, "--seed")?)?,
                "--reps" => parsed.reps = int("--reps", value(&mut args, "--reps")?)?,
                "--jobs" => parsed.jobs = int("--jobs", value(&mut args, "--jobs")?)?,
                "--max-nodes" => {
                    parsed.max_nodes = Some(int("--max-nodes", value(&mut args, "--max-nodes")?)?)
                }
                "--ci" => {
                    let v = value(&mut args, "--ci")?;
                    // The typed error from the stats layer is the single
                    // source of truth for which levels have a z-score.
                    let level: f64 = v
                        .parse()
                        .ok()
                        .filter(|&l| linger_stats::z_score(l).is_ok())
                        .ok_or(ArgError::InvalidValue { flag: "--ci", value: v })?;
                    parsed.ci_level = level;
                }
                "--fast" => parsed.fast = true,
                other => return Err(ArgError::Unknown(other.to_string())),
            }
        }
        Ok(parsed)
    }
}

/// Write `path`'s file name and a short banner for a figure binary.
pub fn banner(fig: &str, caption: &str) {
    println!("== {fig} — {caption} ==");
}

/// Report where a JSON artifact went (best effort — failures to persist
/// results must not fail the experiment).
pub fn note_artifact(name: &str, res: std::io::Result<std::path::PathBuf>) {
    match res {
        Ok(p) => println!("[wrote {}]", display_rel(&p)),
        Err(e) => eprintln!("[warn: could not write {name}.json: {e}]"),
    }
}

fn display_rel(p: &Path) -> String {
    p.display().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["policy", "value"]);
        t.row(vec!["LL", "1"]).row(vec!["IE", "1234"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("policy"));
        assert!(lines[3].ends_with("1234"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_bad_arity() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn try_parse_accepts_all_flags() {
        let a = HarnessArgs::try_parse(sv(&[
            "--seed",
            "7",
            "--fast",
            "--reps",
            "3",
            "--jobs",
            "4",
            "--max-nodes",
            "16384",
        ]))
        .unwrap();
        assert_eq!(a.seed, 7);
        assert!(a.fast);
        assert_eq!(a.reps, 3);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.max_nodes, Some(16384));
    }

    #[test]
    fn try_parse_defaults() {
        let a = HarnessArgs::try_parse(sv(&[])).unwrap();
        assert_eq!((a.seed, a.fast, a.reps, a.jobs), (1998, false, 1, 0));
        assert_eq!(a.max_nodes, None);
    }

    #[test]
    fn try_parse_rejects_bad_max_nodes() {
        assert_eq!(
            HarnessArgs::try_parse(sv(&["--max-nodes"])).unwrap_err(),
            ArgError::MissingValue("--max-nodes")
        );
        assert_eq!(
            HarnessArgs::try_parse(sv(&["--max-nodes", "lots"])).unwrap_err(),
            ArgError::InvalidValue { flag: "--max-nodes", value: "lots".into() }
        );
    }

    #[test]
    fn try_parse_accepts_supported_ci_levels() {
        for (arg, z_ok) in [("0.90", true), ("0.95", true), ("0.99", true)] {
            let a = HarnessArgs::try_parse(sv(&["--ci", arg])).unwrap();
            assert_eq!(a.ci_level, arg.parse::<f64>().unwrap());
            assert_eq!(linger_stats::z_score(a.ci_level).is_ok(), z_ok);
        }
        let a = HarnessArgs::try_parse(sv(&[])).unwrap();
        assert_eq!(a.ci_level, 0.95, "default confidence level");
    }

    #[test]
    fn try_parse_rejects_unsupported_ci_levels() {
        for bad in ["0.80", "1.5", "ninety"] {
            assert_eq!(
                HarnessArgs::try_parse(sv(&["--ci", bad])).unwrap_err(),
                ArgError::InvalidValue { flag: "--ci", value: bad.into() },
                "--ci {bad} must be rejected at parse time"
            );
        }
        assert_eq!(
            HarnessArgs::try_parse(sv(&["--ci"])).unwrap_err(),
            ArgError::MissingValue("--ci")
        );
    }

    #[test]
    fn try_parse_rejects_missing_and_bad_values() {
        assert_eq!(
            HarnessArgs::try_parse(sv(&["--seed"])).unwrap_err(),
            ArgError::MissingValue("--seed")
        );
        assert_eq!(
            HarnessArgs::try_parse(sv(&["--jobs", "many"])).unwrap_err(),
            ArgError::InvalidValue { flag: "--jobs", value: "many".into() }
        );
        assert_eq!(
            HarnessArgs::try_parse(sv(&["--frobnicate"])).unwrap_err(),
            ArgError::Unknown("--frobnicate".into())
        );
    }

    #[test]
    fn arg_errors_display_usefully() {
        assert_eq!(ArgError::MissingValue("--seed").to_string(), "--seed requires a value");
        assert!(ArgError::Unknown("-x".into()).to_string().contains("'-x'"));
        assert!(USAGE.contains("--jobs"));
    }

    #[test]
    fn write_json_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("linger-bench-atomic-test");
        write_json_in(&dir, "atomic_unit", &42u32).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["atomic_unit.json".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_json_roundtrip() {
        let dir = std::env::temp_dir().join("linger-bench-test");
        let path = write_json_in(&dir, "unit_test", &vec![1, 2, 3]).unwrap();
        let data: Vec<u32> = serde_json::from_reader(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(data, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
