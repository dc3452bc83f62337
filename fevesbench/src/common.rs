//! What every workload shares: the run context, the result record, seeded
//! input generation, and the configuration `feves encode` builds.

use feves_core::prelude::*;
use feves_hetsim::profiles::scaled_for_kernels;
use feves_video::frame::Frame;
use feves_video::y4m::{Y4mHeader, Y4mReader, Y4mWriter};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Quantizer of P-frames (the `feves encode` default); I-frames use one
/// less.
pub const QP: u8 = 28;

/// One benchmark invocation.
pub struct Ctx {
    /// The `feves` binary under test.
    pub feves: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub dir: PathBuf,
    /// File of output digests kept across runs in this checkout.
    pub digests: PathBuf,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement length asked for (`--seconds`).
    pub seconds: u64,
    /// Every child is killed by this instant, so a run always ends.
    pub deadline: Instant,
}

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Items attempted (sessions, jobs or configurations).
    pub attempted: u64,
    /// Items that failed or failed a correctness gate.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Figures printed beside the metrics but not part of the result.
    pub info: Vec<Metric>,
    /// Why items failed.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a figure that is printed but not a metric.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Count one failed item (never more failures than items attempted).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed = (self.failed + 1).min(self.attempted.max(1));
        self.errors.push(why.into());
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `n` frames of the seeded synthetic sequence at `res`.
pub fn synth_frames(res: Resolution, seed: u64, n: usize) -> Vec<Frame> {
    SynthSequence::new(SynthConfig {
        resolution: res,
        seed,
        ..Default::default()
    })
    .take_frames(n)
}

/// Write `frames` as a 25 fps Y4M file.
pub fn write_y4m(path: &Path, frames: &[Frame]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = Y4mHeader {
        resolution: frames[0].resolution(),
        fps: (25, 1),
    };
    let mut w = Y4mWriter::new(BufWriter::new(file), header);
    for f in frames {
        w.write_frame(f).map_err(|e| e.to_string())?;
    }
    w.finish()
        .map_err(|e| e.to_string())?
        .into_inner()
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Read every frame of a Y4M file.
pub fn read_y4m(path: &Path) -> Result<Vec<Frame>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Y4mReader::new(BufReader::new(file))
        .and_then(|mut r| r.read_all())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The platform and configuration `feves encode --platform syshk --sa
/// <sa> --refs <refs>` builds for input of resolution `res`.
pub fn cli_config(res: Resolution, sa: u16, refs: usize) -> (Platform, EncoderConfig) {
    let kind = feves_codec::kernels::active_kind();
    let mut platform = Platform::sys_hk();
    platform.devices = platform
        .devices
        .drain(..)
        .map(|d| scaled_for_kernels(d, kind))
        .collect();
    let params = EncodeParams {
        search_area: SearchArea(sa),
        n_ref: refs,
        qp: QP,
        qp_intra: QP - 1,
    };
    let mut cfg = EncoderConfig::full_hd(params);
    cfg.resolution = res;
    cfg.balancer = BalancerKind::Feves;
    cfg.mode = ExecutionMode::Functional;
    (platform, cfg)
}

/// Compare `digest` with the one an earlier run in this checkout recorded
/// under `key`, recording it when it is the first. Keys name the binary
/// that produced the output (see [`binary_id`]).
pub fn check_digest(store: &Path, key: &str, digest: &str) -> Result<(), String> {
    let known = std::fs::read_to_string(store).unwrap_or_default();
    for line in known.lines() {
        if let Some((k, d)) = line.split_once(' ') {
            if k == key {
                return if d == digest {
                    Ok(())
                } else {
                    Err(format!(
                        "{key}: output digest {digest} differs from {d} of an earlier run"
                    ))
                };
            }
        }
    }
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(store)
        .map_err(|e| format!("{}: {e}", store.display()))?;
    writeln!(f, "{key} {digest}").map_err(|e| format!("{}: {e}", store.display()))
}

/// Identity of a built binary: a digest of its bytes, so digests recorded
/// by another build are never compared with this one's.
pub fn binary_id(path: &Path) -> String {
    std::fs::read(path).map_or_else(
        |_| "unknown".to_string(),
        |bytes| format!("{:016x}", feves_ft::ckpt::fnv1a64(&bytes)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_never_exceed_attempts() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.fail("gate a");
        o.fail("gate b");
        assert_eq!((o.failed, o.errors.len()), (1, 2));
        assert_eq!(o.fail_ratio(), 1.0);
    }

    #[test]
    fn digest_store_records_then_compares() {
        let dir = std::env::temp_dir().join(format!("fevesbench-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("digests.txt");
        check_digest(&store, "a", "1").unwrap();
        check_digest(&store, "b", "2").unwrap();
        check_digest(&store, "a", "1").unwrap();
        assert!(check_digest(&store, "b", "3").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
