//! `encode-720p`: one `feves encode` of a seeded synthetic 1280×720
//! sequence on SysHK (SA 32, one reference, a checkpoint every 8 frames).
//!
//! At 720p the sub-pel frame of one reference is 14.7 MB, far beyond a
//! core's L2, and ME + SME take about 90 % of host time, so kernel, intra-
//! frame parallelism, SF reuse and input streaming work all show here.

use crate::child::{self, Line, Spawned, Stream};
use crate::common::{self, Ctx, Outcome};
use crate::stats::{median, percentile};
use feves_core::prelude::*;
use feves_ft::ckpt::fnv1a64;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Input resolution.
pub const RES: Resolution = Resolution::HD720;
/// Search area.
pub const SA: u16 = 32;
/// Reference frames.
pub const REFS: usize = 1;
/// Checkpoint cadence, frames.
pub const CKPT_EVERY: usize = 8;
/// Latency tail reported: the highest percentile with at least ten gaps
/// beyond it at the default run length.
pub const TAIL_PCT: f64 = 75.0;
/// Extra launches per run that are killed once set-up is over, so
/// `setup_s` is a median.
const SETUP_PROBES: usize = 4;

/// P-frames of a run of `seconds`: at about 0.65 s per 720p P-frame on a
/// 2-core x86-64 host the encode lasts about `seconds`.
pub fn p_frames(seconds: u64) -> usize {
    (seconds as usize * 3 / 2).max(12)
}

/// The CLI's input header line: `<input>: <w>x<h>, <n> frames`.
pub fn parse_header(line: &str) -> Option<(usize, usize, usize)> {
    let (_, rest) = line.rsplit_once(": ")?;
    let rest = rest.strip_suffix(" frames")?;
    let (dims, n) = rest.split_once(", ")?;
    let (w, h) = dims.split_once('x')?;
    Some((w.parse().ok()?, h.parse().ok()?, n.parse().ok()?))
}

/// One `frame` line of `feves encode`.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameLine {
    /// Frame index.
    pub index: usize,
    /// I-frame?
    pub intra: bool,
    /// Coded bits.
    pub bits: u64,
    /// Luma PSNR as printed (two decimals).
    pub psnr_y: f64,
    /// Virtual-clock frame time, ms.
    pub sim_ms: f64,
}

/// Parse `frame <i> (<I|P>) <bits> bits  PSNR-Y <db> dB  sim <ms> ms`.
pub fn parse_frame_line(line: &str) -> Option<FrameLine> {
    let t: Vec<&str> = line.split_whitespace().collect();
    match t.as_slice() {
        ["frame", i, kind, bits, "bits", "PSNR-Y", psnr, "dB", "sim", sim, "ms"] => {
            Some(FrameLine {
                index: i.parse().ok()?,
                intra: match *kind {
                    "(I)" => true,
                    "(P)" => false,
                    _ => return None,
                },
                bits: bits.parse().ok()?,
                psnr_y: psnr.parse().ok()?,
                sim_ms: sim.parse().ok()?,
            })
        }
        _ => None,
    }
}

/// The parts of an encode's stamped stdout the metrics need.
#[derive(Debug)]
pub struct EncodeLog {
    /// Stamp of the input header line (input read and fingerprinted).
    pub header_at: Duration,
    /// Frames the header declares.
    pub declared: usize,
    /// Frame lines with their stamps, in order.
    pub frames: Vec<(Duration, FrameLine)>,
}

impl EncodeLog {
    /// Parse stamped stdout lines.
    pub fn parse(lines: &[Line]) -> Result<EncodeLog, String> {
        let mut header = None;
        let mut frames = Vec::new();
        for l in lines {
            if let Some(f) = parse_frame_line(&l.text) {
                frames.push((l.at, f));
            } else if header.is_none() {
                if let Some((_, _, n)) = parse_header(&l.text) {
                    header = Some((l.at, n));
                }
            }
        }
        let (header_at, declared) = header.ok_or("no input header line")?;
        Ok(EncodeLog {
            header_at,
            declared,
            frames,
        })
    }

    /// Gaps between consecutive P-frame lines, ms (the I-frame and the gap
    /// after it are excluded).
    pub fn p_gaps_ms(&self) -> Vec<f64> {
        self.frames
            .windows(2)
            .filter(|w| !w[0].1.intra && !w[1].1.intra)
            .map(|w| (w[1].0 - w[0].0).as_secs_f64() * 1e3)
            .collect()
    }

    /// Frames ÷ (last frame line − header line).
    pub fn fps(&self) -> f64 {
        let last = self.frames.last().map_or(self.header_at, |f| f.0);
        self.frames.len() as f64 / (last - self.header_at).as_secs_f64()
    }
}

/// `feves encode` of `input` into `output` with this workload's settings.
pub fn encode_cmd(feves: &Path, input: &Path, output: &Path) -> Command {
    let mut cmd = Command::new(feves);
    cmd.arg("encode").arg(input).arg(output).args([
        "--platform",
        "syshk",
        "--sa",
        &SA.to_string(),
        "--refs",
        &REFS.to_string(),
        "--checkpoint-every",
        &CKPT_EVERY.to_string(),
    ]);
    cmd
}

/// Launch `cmd`, wait for the input header line, kill it, and return the
/// time to that line in seconds.
pub fn setup_probe(mut cmd: Command, deadline: Instant) -> Result<f64, String> {
    let mut run = Spawned::spawn(&mut cmd).map_err(|e| e.to_string())?;
    let at = run.wait_for(
        Stream::Out,
        |l| parse_header(l).is_some(),
        deadline.saturating_duration_since(Instant::now()),
    );
    run.kill();
    run.finish(deadline);
    at.map(|d| d.as_secs_f64())
        .ok_or_else(|| "set-up probe printed no header".to_string())
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    let n = 1 + p_frames(ctx.seconds);
    let input = ctx.dir.join("in.y4m");
    let frames = common::synth_frames(RES, ctx.seed, n);
    if let Err(e) = common::write_y4m(&input, &frames) {
        out.fail(e);
        return out;
    }
    let output = ctx.dir.join("out.y4m");
    let done = match child::run(&mut encode_cmd(&ctx.feves, &input, &output), ctx.deadline) {
        Ok(d) => d,
        Err(e) => {
            out.fail(format!("spawn feves: {e}"));
            return out;
        }
    };
    let mut setups = Vec::new();
    for i in 0..SETUP_PROBES {
        let probe_out = ctx.dir.join(format!("probe{i}.y4m"));
        match setup_probe(encode_cmd(&ctx.feves, &input, &probe_out), ctx.deadline) {
            Ok(s) => setups.push(s),
            Err(e) => out.fail(e),
        }
    }
    let log = match EncodeLog::parse(&done.out) {
        Ok(l) if done.ok() => l,
        Ok(_) | Err(_) => {
            out.fail(format!(
                "feves encode exited {:?}: {}",
                done.code,
                done.stderr_tail()
            ));
            return out;
        }
    };
    setups.push(log.header_at.as_secs_f64());
    match check_output(ctx, &frames, &output, &log) {
        Ok((psnr, kbits)) => {
            out.info("psnr_y_db", psnr, "dB");
            out.info("kbits_per_frame", kbits, "kbit");
        }
        Err(e) => out.fail(e),
    }
    let gaps = log.p_gaps_ms();
    let sim: Vec<f64> = log
        .frames
        .iter()
        .filter(|f| !f.1.intra)
        .map(|f| f.1.sim_ms)
        .collect();
    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_ms_p50", median(&gaps), "ms");
    out.metric("latency_ms_tail", percentile(&gaps, TAIL_PCT), "ms");
    out.metric("peak_rss_mb", done.usage.peak_rss_mb(), "MB");
    out.metric("cpu_ms_per_item", done.usage.cpu_s() * 1e3 / n as f64, "ms");
    out.info("encode_fps", log.fps(), "frames/s");
    out.info("frame_ms_p90", percentile(&gaps, 90.0), "ms");
    out.info("p_frame_gaps", gaps.len() as f64, "count");
    out.info(
        "virtual_fps",
        1e3 * sim.len() as f64 / sim.iter().sum::<f64>(),
        "fps",
    );
    out
}

/// Correctness gates on a finished encode: every frame reported and
/// written, the printed PSNR matches the output, and the output is
/// byte-identical to earlier runs of this seed. Returns (mean luma PSNR
/// over all frames, mean P-frame kbit).
fn check_output(
    ctx: &Ctx,
    input: &[feves_video::frame::Frame],
    output: &Path,
    log: &EncodeLog,
) -> Result<(f64, f64), String> {
    let n = input.len();
    if log.declared != n || log.frames.len() != n {
        return Err(format!(
            "header says {} frames, {} frame lines, input has {n}",
            log.declared,
            log.frames.len()
        ));
    }
    let recon = common::read_y4m(output)?;
    if recon.len() != n {
        return Err(format!("output has {} frames, input {n}", recon.len()));
    }
    let mut psnrs = Vec::with_capacity(n);
    for ((src, rec), (_, line)) in input.iter().zip(&recon).zip(&log.frames) {
        let p = feves_video::metrics::psnr(rec.y(), src.y());
        if (p - line.psnr_y).abs() > 0.006 {
            return Err(format!(
                "frame {}: output PSNR-Y {p:.3} dB, encoder printed {:.2}",
                line.index, line.psnr_y
            ));
        }
        psnrs.push(p);
    }
    let bytes = std::fs::read(output).map_err(|e| e.to_string())?;
    let key = format!(
        "encode-720p/{}/seed{}/frames{n}",
        common::binary_id(&ctx.feves),
        ctx.seed
    );
    common::check_digest(&ctx.digests, &key, &format!("{:016x}", fnv1a64(&bytes)))?;
    let p_bits: Vec<f64> = log
        .frames
        .iter()
        .filter(|f| !f.1.intra)
        .map(|f| f.1.bits as f64 / 1e3)
        .collect();
    Ok((crate::stats::mean(&psnrs), crate::stats::mean(&p_bits)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stdout of `feves encode` on a 1280×720 input, as captured.
    const CAPTURED: &str = "\
in.y4m: 1280x720, 4 frames
frame    0 (I)   5007172 bits  PSNR-Y  34.60 dB  sim    0.00 ms
frame    1 (P)    195241 bits  PSNR-Y  34.75 dB  sim   20.30 ms
frame    2 (P)    187582 bits  PSNR-Y  34.92 dB  sim    7.74 ms
frame    3 (P)    177570 bits  PSNR-Y  35.05 dB  sim    7.77 ms

wrote out.y4m — 5567565 bits total, mean PSNR-Y 34.83 dB
";

    fn stamped(text: &str) -> Vec<Line> {
        text.lines()
            .enumerate()
            .map(|(i, t)| Line {
                at: Duration::from_millis(100 + 500 * i as u64),
                text: t.to_string(),
            })
            .collect()
    }

    #[test]
    fn parses_captured_encode_output() {
        let log = EncodeLog::parse(&stamped(CAPTURED)).unwrap();
        assert_eq!(log.declared, 4);
        assert_eq!(log.header_at, Duration::from_millis(100));
        assert_eq!(log.frames.len(), 4);
        assert_eq!(
            log.frames[1].1,
            FrameLine {
                index: 1,
                intra: false,
                bits: 195241,
                psnr_y: 34.75,
                sim_ms: 20.30
            }
        );
        assert!(log.frames[0].1.intra);
        // Two P→P gaps; the I→P gap is excluded.
        assert_eq!(log.p_gaps_ms(), vec![500.0, 500.0]);
        // 4 frames over the 2 s from the header to the last frame line.
        assert!((log.fps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_lines_that_are_not_frame_lines() {
        assert!(parse_frame_line("frame x (P) 1 bits  PSNR-Y 1 dB  sim 1 ms").is_none());
        assert!(parse_frame_line("frame 1 (B) 1 bits  PSNR-Y 1 dB  sim 1 ms").is_none());
        assert!(parse_frame_line("checkpoint out.ckpt/ckpt-000008.ckpt (frame 8)").is_none());
        assert!(parse_header("wrote out.y4m — 5 bits total, mean PSNR-Y 34.83 dB").is_none());
        assert_eq!(
            parse_header("dir/in: a.y4m: 176x144, 12 frames"),
            Some((176, 144, 12))
        );
        assert!(
            EncodeLog::parse(&stamped("frame    0 (I) 1 bits  PSNR-Y 1 dB  sim 0 ms")).is_err()
        );
    }
}
