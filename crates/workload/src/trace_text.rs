//! A plain-text trace interchange format.
//!
//! The Arpaci et al. traces circulated as per-machine text files of
//! periodic samples. This module defines a documented line format so
//! measured data (or data exported from other tools) can be fed to the
//! simulators without touching JSON:
//!
//! ```text
//! # linger-trace v1
//! # columns: cpu mem_used_kb keyboard
//! # one line per 2-second sample; '#' starts a comment
//! 0.031 28672 0
//! 0.875 30208 1
//! ```
//!
//! `cpu` is a fraction in [0, 1]; `mem_used_kb` a non-negative integer;
//! `keyboard` is `0`/`1`. Idle flags are re-derived by the recruitment
//! rule on load, exactly as for synthesized traces.

use crate::coarse::{CoarseSample, CoarseTrace};
use std::fmt::Write as _;
use std::path::Path;

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Render a trace in the v1 text format.
pub fn to_text(trace: &CoarseTrace) -> String {
    let mut out = String::with_capacity(trace.len() * 16 + 64);
    out.push_str("# linger-trace v1\n");
    out.push_str("# columns: cpu mem_used_kb keyboard\n");
    for s in trace.samples() {
        let _ = writeln!(out, "{:.4} {} {}", s.cpu, s.mem_used_kb, if s.keyboard { 1 } else { 0 });
    }
    out
}

/// Parse the v1 text format.
pub fn from_text(text: &str) -> Result<CoarseTrace, ParseError> {
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let cpu: f64 = next_field(&mut fields, "cpu", line_no)?;
        if !(0.0..=1.0).contains(&cpu) {
            return Err(ParseError {
                line: line_no,
                message: format!("cpu {cpu} outside [0, 1]"),
            });
        }
        let mem: u32 = next_field(&mut fields, "mem_used_kb", line_no)?;
        let kb: u8 = next_field(&mut fields, "keyboard", line_no)?;
        let keyboard = match kb {
            0 => false,
            1 => true,
            other => {
                return Err(ParseError {
                    line: line_no,
                    message: format!("keyboard flag must be 0 or 1, got {other}"),
                })
            }
        };
        if let Some(extra) = fields.next() {
            return Err(ParseError {
                line: line_no,
                message: format!("unexpected trailing field '{extra}'"),
            });
        }
        samples.push(CoarseSample { cpu, mem_used_kb: mem, keyboard });
    }
    if samples.is_empty() {
        return Err(ParseError { line: 0, message: "trace holds no samples".into() });
    }
    Ok(CoarseTrace::from_samples(samples))
}

fn next_field<T: std::str::FromStr>(
    fields: &mut std::str::SplitWhitespace<'_>,
    name: &str,
    line: usize,
) -> Result<T, ParseError> {
    let raw = fields
        .next()
        .ok_or_else(|| ParseError { line, message: format!("missing field '{name}'") })?;
    raw.parse().map_err(|_| ParseError {
        line,
        message: format!("could not parse {name} from '{raw}'"),
    })
}

/// Write a trace file atomically (temp file + rename, like the JSON
/// result writers) so readers never observe a partial trace.
pub fn save<P: AsRef<Path>>(path: P, trace: &CoarseTrace) -> std::io::Result<()> {
    linger_sim_core::write_atomic(path.as_ref(), to_text(trace).as_bytes())
}

/// Read a trace file.
pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<CoarseTrace> {
    let text = std::fs::read_to_string(path)?;
    from_text(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::CoarseTraceConfig;
    use linger_sim_core::{RngFactory, SimDuration};

    #[test]
    fn roundtrip_preserves_samples_and_flags() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(300),
            ..Default::default()
        };
        let t = cfg.synthesize(&RngFactory::new(1), 0);
        let back = from_text(&to_text(&t)).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.samples().iter().zip(back.samples()) {
            assert!((a.cpu - b.cpu).abs() < 1e-4, "cpu {} vs {}", a.cpu, b.cpu);
            assert_eq!(a.mem_used_kb, b.mem_used_kb);
            assert_eq!(a.keyboard, b.keyboard);
        }
        // Idle flags re-derive consistently (cpu rounding of 1e-4 cannot
        // cross the 0.10 threshold in a meaningful way for this trace).
        let diffs = t
            .idle_flags()
            .iter()
            .zip(back.idle_flags())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 0);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n0.5 1000 1  # inline comment\n# more\n0.0 900 0\n";
        let t = from_text(text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.samples()[0].mem_used_kb, 1000);
        assert!(t.samples()[0].keyboard);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = from_text("0.5 1000 1\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("cpu"), "{}", e.message);

        let e = from_text("1.5 1000 0\n").unwrap_err();
        assert!(e.message.contains("outside"), "{}", e.message);

        let e = from_text("0.5 1000\n").unwrap_err();
        assert!(e.message.contains("keyboard"), "{}", e.message);

        let e = from_text("0.5 1000 2\n").unwrap_err();
        assert!(e.message.contains("0 or 1"), "{}", e.message);

        let e = from_text("0.5 1000 1 99\n").unwrap_err();
        assert!(e.message.contains("trailing"), "{}", e.message);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(from_text("# only comments\n").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(60),
            ..Default::default()
        };
        let t = cfg.synthesize(&RngFactory::new(2), 0);
        let dir = std::env::temp_dir().join("linger-trace-text-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        save(&path, &t).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.len(), t.len());
        std::fs::remove_file(&path).ok();
    }
}
