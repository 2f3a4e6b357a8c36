//! Trace persistence.
//!
//! Coarse traces are serializable so a run can persist the exact workload
//! realization it used (the CLI's `traces --save`). Nothing reads them
//! back: every run synthesizes its traces from the seed.

use crate::coarse::CoarseTrace;
use std::path::Path;

/// Write a trace library as JSON.
///
/// The write is atomic (same-directory temp file renamed over the
/// target), so an interrupted run never leaves a truncated library
/// behind.
pub fn save_traces<P: AsRef<Path>>(path: P, traces: &[CoarseTrace]) -> std::io::Result<()> {
    let json = serde_json::to_string(traces)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    linger_sim_core::write_atomic(path.as_ref(), json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::CoarseTraceConfig;
    use linger_sim_core::{RngFactory, SimDuration};

    #[test]
    fn roundtrip_preserves_traces() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(120),
            ..Default::default()
        };
        let traces = cfg.synthesize_library(&RngFactory::new(1), 3);
        let dir = std::env::temp_dir().join("linger-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.json");
        save_traces(&path, &traces).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = serde_json::from_str::<Vec<CoarseTrace>>(&text).unwrap();
        assert_eq!(back.len(), traces.len());
        for (a, b) in traces.iter().zip(&back) {
            assert_eq!(a.samples(), b.samples());
            assert_eq!(a.idle_flags(), b.idle_flags());
        }
        std::fs::remove_file(&path).ok();
    }
}
