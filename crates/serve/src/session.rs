//! The encode session engine: one input, one output, and the checkpointed
//! frame loop that drives the framework (the paper's Algorithm 1) frame by
//! frame.
//!
//! `feves encode`, `feves resume` and every farm worker run through this
//! module, so it alone knows the session protocol:
//!
//! - how the platform and encoder config are rebuilt from a
//!   [`ResumeContext`] ([`build_config`]);
//! - how a resume is validated against the input and the output on disk
//!   ([`Session::open`]): input fingerprint, frame count, output length and
//!   the CRC of the committed output prefix, failing with the typed
//!   `CheckpointStale` / `CheckpointCorrupt` errors;
//! - the flush → fsync → snapshot → commit order of every checkpoint, the
//!   `frame@n` crash point and the final fsync ([`Session::run`]).
//!
//! A farm job is therefore byte-identical to the same standalone encode by
//! construction. The callers differ only in policy: the CLI prints progress
//! and reports a resume that fails validation as an error, while the farm
//! ([`run_session`]) stays quiet, starts such a job over from frame 0,
//! fires chaos kills, records checkpoint trace spans and seeds the
//! health-backoff jitter from the job id (scheduling timing only; never
//! functional bytes).

use crate::job::JobSpec;
use feves_codec::kernels::{self, KernelKind};
use feves_codec::types::{EncodeParams, SearchArea};
use feves_core::{
    load_latest, BalancerKind, CheckpointManager, EncoderConfig, ExecutionMode, FevesEncoder,
    FrameReport, FrameworkState, ResumeContext, SessionCtl,
};
use feves_ft::ckpt::{crc32, crc32_update, fnv1a64, CRC32_INIT};
use feves_ft::crash::crash_point_at;
use feves_ft::io::{backend_for, CrcFile};
use feves_ft::{FaultSchedule, FevesError};
use feves_hetsim::platform::Platform;
use feves_hetsim::profiles;
use feves_obs::{SessionScope, TraceSink};
use feves_video::frame::Frame;
use feves_video::y4m::{Y4mHeader, Y4mReader, Y4mWriter};
use std::fmt::Display;
use std::io::{BufWriter, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a session that ran to a clean stop reports back.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionReport {
    /// Frames durably on disk (all of them unless interrupted).
    pub frames_done: usize,
    /// Total frames in the input.
    pub n_frames: usize,
    /// Committed output bytes.
    pub out_bytes: u64,
    /// CRC-32 of the output, streamed on the write path — what the bytes
    /// *should* be, independent of what the disk later returns. Zero when
    /// interrupted (the checkpoint carries the prefix CRC instead).
    pub artifact_crc: u32,
    /// True when a stop request ended the session early — a durable
    /// checkpoint was committed first.
    pub interrupted: bool,
}

/// Check a completed artifact against its streamed size + CRC by
/// re-reading it from disk. This is the farm's verify-before-`completed`
/// gate: bit-rot between fsync and report, or a torn write the session
/// missed, surfaces here as a typed message instead of a corrupt
/// "completed" artifact.
pub fn verify_artifact(path: &str, bytes: u64, crc: u32) -> Result<(), String> {
    let p = Path::new(path);
    let raw = backend_for(p).read(p).map_err(|e| format!("{path}: {e}"))?;
    if raw.len() as u64 != bytes {
        return Err(format!(
            "{path}: artifact is {} bytes, session wrote {bytes}",
            raw.len()
        ));
    }
    let got = crc32(&raw);
    if got != crc {
        return Err(format!(
            "{path}: artifact checksum {got:08x} != streamed {crc:08x} (corrupt artifact)"
        ));
    }
    Ok(())
}

/// A session that died: the message plus the attributed device, when the
/// fault had one, so the supervisor can blacklist it fleet-wide.
#[derive(Clone, Debug)]
pub struct SessionFailure {
    /// Human-readable cause.
    pub message: String,
    /// Platform device index to blame, if attribution was possible.
    pub culprit: Option<usize>,
}

impl SessionFailure {
    fn new(message: impl ToString) -> Self {
        SessionFailure {
            message: message.to_string(),
            culprit: None,
        }
    }

    fn from_feves(e: FevesError) -> Self {
        let culprit = match &e {
            FevesError::Fault(f) => Some(f.device),
            _ => None,
        };
        SessionFailure {
            message: e.to_string(),
            culprit,
        }
    }
}

/// The built-in platforms (paper §IV) with their default balancer, in
/// `feves platforms` order.
pub fn platforms() -> [(&'static str, Platform, BalancerKind); 7] {
    use profiles::{cpu_haswell, cpu_nehalem, gpu_fermi, gpu_kepler};
    let single = BalancerKind::SingleAccelerator(0);
    [
        ("syshk", Platform::sys_hk(), BalancerKind::Feves),
        ("sysnf", Platform::sys_nf(), BalancerKind::Feves),
        ("sysnff", Platform::sys_nff(), BalancerKind::Feves),
        (
            "cpu-n",
            Platform::cpu_only(cpu_nehalem(), 4),
            BalancerKind::CpuOnly,
        ),
        (
            "cpu-h",
            Platform::cpu_only(cpu_haswell(), 4),
            BalancerKind::CpuOnly,
        ),
        ("gpu-f", Platform::gpu_only(gpu_fermi()), single),
        ("gpu-k", Platform::gpu_only(gpu_kepler()), single),
    ]
}

/// Resolve a built-in platform by name.
pub fn platform_of(name: &str) -> Result<(Platform, BalancerKind), String> {
    platforms()
        .into_iter()
        .find(|(key, ..)| *key == name)
        .map(|(_, platform, balancer)| (platform, balancer))
        .ok_or_else(|| format!("unknown platform '{name}' (see `feves platforms`)"))
}

/// Build the platform + encoder config a job describes. This is the one
/// reconstruction path for fresh encodes, resumes, farm jobs and job-spec
/// checks, so every run of one [`ResumeContext`] is configured
/// identically. The config keeps the 1080p timing-mode defaults;
/// [`Session::open`] switches it to the input's functional encode.
pub fn build_config(ctx: &ResumeContext) -> Result<(Platform, EncoderConfig), String> {
    let kernel_kind = match ctx.kernels.as_deref() {
        None => kernels::active_kind(),
        Some(choice) => {
            let kind = match choice {
                "scalar" => KernelKind::Scalar,
                "fast" => KernelKind::Fast,
                other => return Err(format!("--kernels: unknown value '{other}' (scalar|fast)")),
            };
            // Kernel dispatch is process-global: an explicit choice
            // overrides `FEVES_KERNELS`.
            kernels::force_kind(kind);
            kind
        }
    };
    let (mut platform, default_balancer) = match &ctx.platform_json {
        Some(json) => (
            Platform::from_json(json).map_err(|e| e.to_string())?,
            BalancerKind::Feves,
        ),
        None => platform_of(&ctx.platform)?,
    };
    // Simulated CPU device times must reflect the kernels the host
    // actually runs (scalar loops are slower than the SWAR baseline).
    platform.devices = platform
        .devices
        .drain(..)
        .map(|d| profiles::scaled_for_kernels(d, kernel_kind))
        .collect();
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(ctx.sa),
        n_ref: ctx.refs,
        qp: ctx.qp,
        qp_intra: ctx.qp.saturating_sub(1),
    });
    cfg.balancer = match ctx.balancer.as_str() {
        "feves" => default_balancer,
        "proportional" => BalancerKind::Proportional,
        "equidistant" => BalancerKind::Equidistant,
        other => return Err(format!("unknown balancer '{other}'")),
    };
    cfg.faults = FaultSchedule::parse(&ctx.faults)
        .map_err(|e| e.to_string())?
        .specs;
    if let Some(f) = ctx.deadline_factor {
        cfg.deadline_factor = f;
    }
    cfg.pipeline = ctx.pipeline;
    Ok((platform, cfg))
}

/// An input sequence read whole, with the fingerprint its checkpoints
/// record.
pub struct Input {
    /// FNV-1a 64 of the file's bytes.
    pub fingerprint: u64,
    /// The Y4M stream header.
    pub header: Y4mHeader,
    /// Every frame, in order.
    pub frames: Vec<Frame>,
}

/// Read a Y4M input whole and fingerprint it. An input without frames is
/// an error: there is nothing to encode and no valid output to write.
pub fn read_input(path: &str) -> Result<Input, SessionFailure> {
    let fail = |e: &dyn Display| SessionFailure::new(format!("{path}: {e}"));
    let raw = std::fs::read(path).map_err(|e| fail(&e))?;
    let fingerprint = fnv1a64(&raw);
    let mut reader = Y4mReader::new(std::io::Cursor::new(raw)).map_err(|e| fail(&e))?;
    let frames = reader.read_all().map_err(|e| fail(&e))?;
    if frames.is_empty() {
        return Err(fail(&"empty input"));
    }
    Ok(Input {
        fingerprint,
        header: reader.header(),
        frames,
    })
}

/// Progress the frame loop reports to its caller.
pub enum Step<'a> {
    /// Frame `n` is next: the stop check passed and the `frame@n` crash
    /// point is about to fire.
    Begin(usize),
    /// A frame was encoded and its reconstruction written.
    Frame(&'a FrameReport),
    /// A checkpoint was committed at frame boundary `frame`, taking `took`.
    /// `stop` marks the commit a stop request forced; the loop returns
    /// right after it.
    Checkpoint {
        /// The generation file written.
        path: &'a Path,
        /// Frames the checkpoint commits.
        frame: usize,
        /// Wall time of flush, fsync, snapshot and commit.
        took: Duration,
        /// True for the stop-request commit.
        stop: bool,
    },
}

/// One open encode session: the encoder, the output positioned at its
/// last committed frame boundary, and the context its checkpoints carry.
pub struct Session<'a> {
    /// The encoder, fresh or restored. Attach telemetry, a flight
    /// recorder, a supervisor [`SessionCtl`] or a trace sink here before
    /// [`Session::run`].
    pub enc: FevesEncoder,
    ctx: ResumeContext,
    frames: &'a [Frame],
    writer: Y4mWriter<BufWriter<CrcFile>>,
    ckpt: Option<CheckpointManager>,
}

impl<'a> Session<'a> {
    /// Open `ctx`'s session over `input` with the config [`build_config`]
    /// made from it. Without `state` (or from a frame-0 checkpoint, which
    /// committed no output — not even the Y4M header) the encoder starts
    /// fresh and the output is created. With one, the resume is validated
    /// first: the input must be the one the checkpoint saw, and the output
    /// must still hold the committed prefix, hashing to the recorded CRC.
    /// The output is then truncated to that frame boundary (anything past
    /// it is a torn frame) and the encoder restored without re-probing.
    ///
    /// `ckpt_dir` arms checkpointing: cadence commits every `ctx.every`
    /// frames and a commit on a stop request.
    pub fn open(
        ctx: ResumeContext,
        input: &'a Input,
        state: Option<FrameworkState>,
        ckpt_dir: Option<PathBuf>,
        (platform, mut cfg): (Platform, EncoderConfig),
    ) -> Result<Self, SessionFailure> {
        let invalid = SessionFailure::from_feves;
        if input.fingerprint != ctx.input_fingerprint {
            return Err(invalid(FevesError::CheckpointStale(format!(
                "input {} changed since the checkpoint was taken",
                ctx.input
            ))));
        }
        if input.frames.len() != ctx.n_frames {
            return Err(invalid(FevesError::CheckpointStale(format!(
                "input {} has {} frames, checkpoint expects {}",
                ctx.input,
                input.frames.len(),
                ctx.n_frames
            ))));
        }
        cfg.mode = ExecutionMode::Functional;
        cfg.resolution = input.header.resolution;
        let out = Path::new(&ctx.output);
        let io_fail = |e: &dyn Display| SessionFailure::new(format!("{}: {e}", ctx.output));
        let (enc, writer) = match state.filter(|_| ctx.frames_done > 0) {
            None => {
                let enc = FevesEncoder::new(platform, cfg).map_err(SessionFailure::from_feves)?;
                let file = CrcFile::create(out).map_err(|e| io_fail(&e))?;
                (enc, Y4mWriter::new(BufWriter::new(file), input.header))
            }
            Some(state) => {
                let raw = backend_for(out).read(out).map_err(|e| io_fail(&e))?;
                let len = raw.len() as u64;
                if len < ctx.out_bytes {
                    return Err(invalid(FevesError::CheckpointStale(format!(
                        "output {} is {len} bytes, shorter than the {} committed by the checkpoint",
                        ctx.output, ctx.out_bytes
                    ))));
                }
                // Resuming atop bit-rot would launder corrupt bytes into a
                // "complete" artifact.
                let prefix_crc_state = crc32_update(CRC32_INIT, &raw[..ctx.out_bytes as usize]);
                if !prefix_crc_state != ctx.out_crc {
                    return Err(invalid(FevesError::CheckpointCorrupt(format!(
                        "output {}: committed prefix hashes to {:08x}, checkpoint recorded {:08x} \
                         — the artifact rotted on disk; re-encode instead of resuming",
                        ctx.output, !prefix_crc_state, ctx.out_crc
                    ))));
                }
                drop(raw);
                let enc = FevesEncoder::restore(platform, cfg, state)
                    .map_err(SessionFailure::from_feves)?;
                let mut file = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(out)
                    .map_err(|e| io_fail(&e))?;
                file.set_len(ctx.out_bytes).map_err(|e| io_fail(&e))?;
                file.seek(SeekFrom::End(0)).map_err(|e| io_fail(&e))?;
                // Seed the streaming CRC with the verified prefix so the
                // artifact checksum covers the whole file.
                let file = CrcFile::resume(file, prefix_crc_state, ctx.out_bytes);
                (enc, Y4mWriter::resume(BufWriter::new(file), input.header))
            }
        };
        let ckpt = ckpt_dir.map(|dir| CheckpointManager::new(dir, ctx.keep));
        Ok(Session {
            enc,
            ctx,
            frames: &input.frames,
            writer,
            ckpt,
        })
    }

    /// Encode every frame past the committed boundary, streaming the
    /// reconstructions to the output and reporting each [`Step`] to `on`.
    /// With checkpointing armed, a durable checkpoint is committed every
    /// `ctx.every` frames, unless the supervisor sheds it under disk
    /// pressure; progress durability trades away, bit-exactness does not.
    ///
    /// A stop request is honored at the next frame boundary: a session
    /// with a supervisor [`SessionCtl`] answers to its stop flag, one
    /// without to the process's SIGTERM/SIGINT flag. With checkpointing
    /// armed the session commits right there, whatever the cadence, and
    /// returns an interrupted report; without, the stop is an error. A
    /// session that finishes flushes and fsyncs its output first: success
    /// is only ever reported for a durable artifact.
    pub fn run(
        mut self,
        on: &mut dyn FnMut(Step<'_>),
    ) -> Result<(SessionReport, FevesEncoder), SessionFailure> {
        let frames = self.frames;
        let n_frames = frames.len();
        let output = self.ctx.output.clone();
        let io_fail = |e: &dyn Display| SessionFailure::new(format!("{output}: {e}"));
        for (i, f) in frames.iter().enumerate().skip(self.ctx.frames_done) {
            let ctl = self.enc.ctl();
            if ctl.map_or_else(crate::signal::shutdown_requested, |c| c.stop_requested()) {
                self.commit(i, true, on)?;
                let report = SessionReport {
                    frames_done: i,
                    n_frames,
                    out_bytes: self.ctx.out_bytes,
                    artifact_crc: 0,
                    interrupted: true,
                };
                return Ok((report, self.enc));
            }
            on(Step::Begin(i));
            crash_point_at("frame", i as u64);
            let rep = self.enc.encode_frame(f);
            let (y, u, v) = self.enc.last_reconstruction_yuv().ok_or_else(|| {
                SessionFailure::new("functional encode produced no reconstruction")
            })?;
            let mut rf = f.clone();
            rf.y_mut().copy_from(y);
            rf.u_mut().copy_from(u);
            rf.v_mut().copy_from(v);
            self.writer.write_frame(&rf).map_err(|e| io_fail(&e))?;
            on(Step::Frame(&rep));
            let done = i + 1;
            let every = self.ctx.every;
            let shed = self.enc.ctl().is_some_and(|c| c.ckpt_shed());
            let due = every > 0 && done.is_multiple_of(every) && done < n_frames;
            if due && self.ckpt.is_some() && !shed {
                self.commit(done, false, on)?;
            }
        }
        let buf = self.writer.finish().map_err(|e| io_fail(&e))?;
        let file = buf.into_inner().map_err(|e| io_fail(&e))?;
        file.sync().map_err(|e| io_fail(&e))?;
        let report = SessionReport {
            frames_done: n_frames,
            n_frames,
            out_bytes: file.bytes(),
            artifact_crc: file.crc(),
            interrupted: false,
        };
        Ok((report, self.enc))
    }

    /// Commit a checkpoint at frame boundary `done`: flush the Y4M buffer
    /// and fsync the output so the boundary is durable, record its length
    /// and CRC, quiesce any in-flight pipeline generation, snapshot the
    /// encoder and write the generation. Only a stop request reaches here
    /// unarmed, and it cannot be honored without a checkpoint.
    fn commit(
        &mut self,
        done: usize,
        stop: bool,
        on: &mut dyn FnMut(Step<'_>),
    ) -> Result<(), SessionFailure> {
        let Some(mgr) = &self.ckpt else {
            return Err(SessionFailure::new(
                "interrupted (no checkpointing armed; partial output left as-is)",
            ));
        };
        let started = Instant::now();
        let output = &self.ctx.output;
        let io_fail = |e: &dyn Display| SessionFailure::new(format!("{output}: {e}"));
        self.writer.flush().map_err(|e| io_fail(&e))?;
        let file = self.writer.get_ref().get_ref();
        file.sync().map_err(|e| io_fail(&e))?;
        let (out_bytes, out_crc) = (file.bytes(), file.crc());
        self.ctx.frames_done = done;
        self.ctx.out_bytes = out_bytes;
        self.ctx.out_crc = out_crc;
        self.enc.quiesce_pipeline();
        let state = self.enc.snapshot();
        let path = mgr
            .write(&self.ctx, &state, self.enc.rec().as_ref())
            .map_err(|e| SessionFailure::new(format!("checkpoint {}: {e}", mgr.dir().display())))?;
        on(Step::Checkpoint {
            path: &path,
            frame: done,
            took: started.elapsed(),
            stop,
        });
        Ok(())
    }
}

/// The context a farm job's checkpoints carry, before its input is read
/// (`n_frames` and `input_fingerprint` are still zero).
fn job_context(job: &JobSpec) -> ResumeContext {
    ResumeContext {
        input: job.input.clone(),
        output: job.output.clone(),
        platform: job.platform.clone(),
        sa: job.sa,
        refs: job.refs,
        qp: job.qp,
        balancer: job.balancer.clone(),
        faults: job.faults.clone(),
        every: if job.checkpoint_every > 0 {
            job.checkpoint_every
        } else {
            crate::farm::DEFAULT_CHECKPOINT_EVERY
        },
        keep: 2,
        pipeline: job.pipeline,
        ..ResumeContext::default()
    }
}

/// Reject a job whose platform, balancer or fault specs no session could
/// run, before any work is done: the same config builder a session uses
/// decides.
pub fn check_job(job: &JobSpec) -> Result<(), String> {
    build_config(&job_context(job)).map(drop)
}

/// Run one farm job to completion, a preemption checkpoint, or failure.
///
/// `attempt` is 0 on first dispatch and counts up across supervisor
/// retries; the [`JobSpec::chaos_kill_at`] hook only fires on attempt 0,
/// so a retried job proves the checkpointed-recovery path.
pub fn run_session(
    job: &JobSpec,
    ctl: &Arc<SessionCtl>,
    scope: SessionScope,
    attempt: u32,
    trace: Option<TraceSink>,
) -> Result<SessionReport, SessionFailure> {
    let input = read_input(&job.input)?;
    let fresh = ResumeContext {
        n_frames: input.frames.len(),
        input_fingerprint: input.fingerprint,
        ..job_context(job)
    };
    let config = |ctx: &ResumeContext| {
        let (platform, mut cfg) = build_config(ctx).map_err(SessionFailure::new)?;
        // Decorrelate concurrent sessions' re-admission probes of a shared
        // recovered device. Timing only — functional bytes are unaffected.
        cfg.health_jitter = Some(job.seed());
        cfg.trace = job.trace;
        Ok::<_, SessionFailure>((platform, cfg))
    };
    // Resume from the newest checkpoint of this very job when it validates.
    // Anything else starts over from frame 0: re-encoding is always
    // bit-safe, so the farm prefers it to failing the job.
    let dir = job.ckpt_dir();
    let resumed = load_latest(&dir)
        .ok()
        .filter(|(_, ctx, ..)| ctx.fingerprint() == fresh.fingerprint())
        .and_then(|(_, ctx, state, _)| {
            // The job spec, not the checkpoint, owns the cadence and the
            // scheduling mode (resuming lockstep work pipelined is bit-safe).
            let ctx = ResumeContext {
                every: fresh.every,
                pipeline: fresh.pipeline,
                ..ctx
            };
            let config = config(&ctx).ok()?;
            Session::open(ctx, &input, Some(state), Some(dir.clone()), config).ok()
        });
    let mut session = match resumed {
        Some(session) => session,
        None => {
            let config = config(&fresh)?;
            Session::open(fresh, &input, None, Some(dir), config)?
        }
    };
    session.enc.set_scope(scope);
    session.enc.set_ctl(ctl.clone());
    if let Some(sink) = &trace {
        // Frame/phase/kernel spans parent under the farm's attempt span.
        session.enc.set_trace(sink.clone());
    }
    let (report, _) = session.run(&mut |step| match step {
        Step::Begin(i) if attempt == 0 && job.chaos_kill_at == Some(i) => {
            panic!(
                "chaos: injected session kill before frame {i} of job '{}'",
                job.id
            )
        }
        // One wall-clock span per commit under the attempt, named by its
        // frame boundary — the anchor a retry's resume edge points at.
        Step::Checkpoint { frame, took, .. } => {
            if let Some(t) = &trace {
                let us = took.as_secs_f64() * 1e6;
                t.record(&format!("ckpt{frame}"), "checkpoint", t.now_us() - us, us);
            }
        }
        _ => {}
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_obs::hub;
    use feves_video::geometry::Resolution;
    use feves_video::synth::{SynthConfig, SynthSequence};
    use std::path::{Path, PathBuf};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feves-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_input(path: &Path, n_frames: usize) {
        let mut seq = SynthSequence::new(SynthConfig {
            resolution: Resolution::QCIF,
            seed: 7,
            objects: 4,
            pan: (1.0, 0.5),
            noise: 2,
        });
        let frames = seq.take_frames(n_frames);
        let header = Y4mHeader {
            resolution: frames[0].resolution(),
            fps: (25, 1),
        };
        let mut w = Y4mWriter::new(Vec::new(), header);
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        std::fs::write(path, w.finish().unwrap()).unwrap();
    }

    fn job(dir: &Path, id: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            input: dir.join("in.y4m").to_string_lossy().into_owned(),
            output: dir.join(format!("{id}.y4m")).to_string_lossy().into_owned(),
            sa: 16,
            refs: 2,
            checkpoint_every: 2,
            ..JobSpec::default()
        }
    }

    #[test]
    fn completes_and_is_deterministic() {
        let dir = scratch("session-det");
        write_input(&dir.join("in.y4m"), 6);
        let ctl = Arc::new(SessionCtl::new());
        let a = run_session(&job(&dir, "a"), &ctl, hub().session("a"), 0, None).unwrap();
        assert_eq!((a.frames_done, a.interrupted), (6, false));
        let b = run_session(&job(&dir, "b"), &ctl, hub().session("b"), 0, None).unwrap();
        let bytes_a = std::fs::read(job(&dir, "a").output).unwrap();
        let bytes_b = std::fs::read(job(&dir, "b").output).unwrap();
        assert_eq!(a.out_bytes, b.out_bytes);
        assert_eq!(
            bytes_a, bytes_b,
            "two runs of one job must be bit-identical"
        );
    }

    #[test]
    fn stop_request_checkpoints_and_resume_is_bit_exact() {
        let dir = scratch("session-stop");
        write_input(&dir.join("in.y4m"), 6);
        let baseline = job(&dir, "base");
        let ctl = Arc::new(SessionCtl::new());
        run_session(&baseline, &ctl, hub().session("base"), 0, None).unwrap();

        // Stop before the session starts: it must checkpoint frame 0 work
        // (none) durably and report interrupted.
        let j = job(&dir, "stopped");
        let ctl = Arc::new(SessionCtl::new());
        ctl.request_stop();
        let rep = run_session(&j, &ctl, hub().session("stopped"), 0, None).unwrap();
        assert!(rep.interrupted);
        assert!(rep.frames_done < rep.n_frames);
        assert!(j.ckpt_dir().is_dir(), "preemption must leave a checkpoint");

        // A later attempt resumes from it and finishes byte-identical.
        let ctl = Arc::new(SessionCtl::new());
        let rep = run_session(&j, &ctl, hub().session("stopped-2"), 1, None).unwrap();
        assert_eq!((rep.frames_done, rep.interrupted), (6, false));
        assert_eq!(
            std::fs::read(&j.output).unwrap(),
            std::fs::read(&baseline.output).unwrap(),
            "resumed session must be bit-identical to an uninterrupted one"
        );
    }

    #[test]
    fn chaos_kill_fires_only_on_attempt_zero() {
        let dir = scratch("session-chaos");
        write_input(&dir.join("in.y4m"), 6);
        let mut j = job(&dir, "chaos");
        j.chaos_kill_at = Some(3);
        let ctl = Arc::new(SessionCtl::new());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_session(&j, &ctl, hub().session("chaos"), 0, None)
        }));
        assert!(panicked.is_err(), "attempt 0 must hit the chaos kill");
        // Attempt 1 resumes from the frame-2 checkpoint and completes.
        let rep = run_session(&j, &ctl, hub().session("chaos-2"), 1, None).unwrap();
        assert_eq!((rep.frames_done, rep.interrupted), (6, false));
        let baseline = job(&dir, "cbase");
        run_session(&baseline, &ctl, hub().session("cbase"), 0, None).unwrap();
        assert_eq!(
            std::fs::read(&j.output).unwrap(),
            std::fs::read(&baseline.output).unwrap(),
            "chaos-killed + retried output must match the clean run"
        );
    }

    #[test]
    fn missing_input_fails_without_culprit() {
        let dir = scratch("session-missing");
        let j = job(&dir, "missing");
        let ctl = Arc::new(SessionCtl::new());
        let err = run_session(&j, &ctl, hub().session("missing"), 0, None).unwrap_err();
        assert!(err.culprit.is_none());
        assert!(err.message.contains("in.y4m"));
    }

    #[test]
    fn empty_input_fails_without_output() {
        let dir = scratch("session-empty");
        write_input(&dir.join("in.y4m"), 1);
        // Keep only the stream header: a valid Y4M without frames.
        let raw = std::fs::read(dir.join("in.y4m")).unwrap();
        let header_end = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(dir.join("in.y4m"), &raw[..header_end]).unwrap();
        let j = job(&dir, "empty");
        let ctl = Arc::new(SessionCtl::new());
        let err = run_session(&j, &ctl, hub().session("empty"), 0, None).unwrap_err();
        assert!(err.culprit.is_none());
        assert!(err.message.contains("empty input"), "{}", err.message);
        assert!(
            !Path::new(&j.output).exists(),
            "no output for an empty input"
        );
    }
}
