//! `farm-qcif`: one `feves serve` daemon (default `--max-inflight 2`, poll
//! and checkpoint cadence) fed open-loop from this process. Jobs are short
//! QCIF encodes (12 frames, SA 32, two references) submitted with `feves
//! submit` at seeded Poisson times (see [`loadgen::poisson_schedule`]); a
//! seeded 5 % carry `--chaos-kill-at`, so the restore path runs beside
//! checkpoint writes. The daemon is stopped with `feves drain` once the
//! last done record appears.
//!
//! Per-job fixed costs (spool scan, admission, input hashing, checkpoint
//! fsyncs, verify-before-completed) are a large share of each job, and both
//! cores are already busy with two sessions, so this is the counterweight
//! to `encode-720p`: intra-session parallelism should gain little here. The
//! QCIF sub-pel frame (~0.4 MB) fits in L2.

use crate::child::{self, Rusage, Spawned, Stream};
use crate::common::{self, Ctx, Outcome};
use crate::loadgen;
use crate::stats::{median, percentile};
use feves_core::prelude::Resolution;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Job resolution.
pub const RES: Resolution = Resolution::QCIF;
/// Frames per job.
pub const FRAMES: usize = 12;
/// Search area.
pub const SA: u16 = 32;
/// Reference frames.
pub const REFS: usize = 2;
/// Distinct inputs the jobs cycle through (each also encoded standalone as
/// the reference for the farm-vs-single gate).
pub const INPUTS: usize = 4;
/// Offered load, jobs/s: about half the capacity measured on a 2-core
/// x86-64 host (3.9 jobs/s with two sessions in flight).
pub const RATE_PER_S: f64 = 2.0;
/// Frame before which a chaos job's first attempt is killed.
pub const CHAOS_AT: usize = 6;
/// Latency tail reported: the highest percentile with at least ten jobs
/// beyond it at the default run length.
pub const TAIL_PCT: f64 = 75.0;
const SETUP_PROBES: usize = 15;

/// Jobs in a run of `seconds`.
pub fn jobs_for(seconds: u64) -> usize {
    ((RATE_PER_S * seconds as f64).round() as usize).max(8)
}

/// One planned job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Spool id.
    pub id: String,
    /// Index into [`Plan::inputs`].
    pub input: usize,
    /// Due time, seconds from the start of the schedule.
    pub due_s: f64,
    /// Killed once on its first attempt.
    pub chaos: bool,
    /// Output path.
    pub output: PathBuf,
}

/// The inputs and the arrival schedule of one daemon run.
pub struct Plan {
    /// Input Y4M files.
    pub inputs: Vec<PathBuf>,
    /// Jobs in due order.
    pub jobs: Vec<Job>,
}

/// Write the seeded inputs into `dir` and plan `n` jobs.
pub fn plan(dir: &Path, seed: u64, n: usize) -> Result<Plan, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut inputs = Vec::new();
    for k in 0..INPUTS {
        let path = dir.join(format!("in{k}.y4m"));
        let frames =
            common::synth_frames(RES, seed.wrapping_mul(31).wrapping_add(k as u64), FRAMES);
        common::write_y4m(&path, &frames)?;
        inputs.push(path);
    }
    let due = loadgen::poisson_schedule(seed, RATE_PER_S, n);
    let chaos = loadgen::pick(seed ^ 0xC4A0_5EED, n, n.div_ceil(20));
    let jobs = due
        .into_iter()
        .enumerate()
        .map(|(i, due_s)| Job {
            id: format!("j{i:04}"),
            input: i % INPUTS,
            due_s,
            chaos: chaos.binary_search(&i).is_ok(),
            output: dir.join(format!("out-j{i:04}.y4m")),
        })
        .collect();
    Ok(Plan { inputs, jobs })
}

/// A job's done record.
#[derive(Clone, Debug)]
pub struct Done {
    /// `completed`, `failed`, ...
    pub status: String,
    /// Attempts the farm made.
    pub attempts: u64,
    /// Frames encoded.
    pub frames: u64,
    /// Artifact size.
    pub bytes: u64,
    /// Artifact CRC-32 streamed on the write path.
    pub crc32: u32,
    /// The record file's raw text.
    pub raw: String,
}

/// Read and parse `done/<id>.json` (integrity trailer checked).
pub fn read_done(spool: &Path, id: &str) -> Result<Done, String> {
    let path = feves_serve::job::done_dir(spool).join(format!("{id}.json"));
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let body = feves_serve::job::unframe_control(&raw).map_err(|e| e.to_string())?;
    let v = serde_json::value_from_str(body).map_err(|e| format!("{id}: {e}"))?;
    let num = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    let status = v
        .get("status")
        .and_then(|x| x.as_str())
        .unwrap_or("")
        .to_string();
    let crc32 = v
        .get("crc32")
        .and_then(|x| x.as_str())
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .unwrap_or(0);
    Ok(Done {
        status,
        attempts: num("attempts"),
        frames: num("frames"),
        bytes: num("bytes"),
        crc32,
        raw,
    })
}

/// What one daemon run measured.
pub struct FarmRun {
    /// Launch → `serving` banner, s.
    pub banner_s: Option<f64>,
    /// Per job (plan order): due time → done record seen, ms.
    pub job_ms: Vec<Option<f64>>,
    /// Wall time of each `feves submit`, ms.
    pub submit_ms: Vec<f64>,
    /// How far behind schedule the submitter started a job, worst case, ms.
    pub late_ms_max: f64,
    /// Per job (plan order): its done record.
    pub done: Vec<Result<Done, String>>,
    /// The daemon's resource usage.
    pub usage: Rusage,
    /// Daemon-level failures (exit status, lost jobs, submit errors).
    pub errors: Vec<String>,
}

fn serve_cmd(feves: &Path, spool: &Path) -> Command {
    let mut cmd = Command::new(feves);
    cmd.arg("serve").arg(spool).args(["--platform", "syshk"]);
    cmd
}

fn submit_cmd(feves: &Path, spool: &Path, plan: &Plan, job: &Job) -> Command {
    let mut cmd = Command::new(feves);
    cmd.arg("submit")
        .arg(spool)
        .arg(&plan.inputs[job.input])
        .arg(&job.output)
        .args(["--id", &job.id, "--platform", "syshk"])
        .args(["--sa", &SA.to_string(), "--refs", &REFS.to_string()]);
    if job.chaos {
        cmd.args(["--chaos-kill-at", &CHAOS_AT.to_string()]);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Poll the done directory until `n` records exist or `stop` is set;
/// returns when each record was first seen.
fn watch_done(done_dir: &Path, n: usize, stop: &AtomicBool) -> HashMap<String, Instant> {
    let mut seen = HashMap::new();
    while seen.len() < n && !stop.load(Ordering::Relaxed) {
        if let Ok(entries) = std::fs::read_dir(done_dir) {
            let now = Instant::now();
            for e in entries.flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if let Some(id) = name
                    .strip_suffix(".json")
                    .filter(|_| !name.starts_with('.'))
                {
                    seen.entry(id.to_string()).or_insert(now);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    seen
}

/// Run one daemon over `plan` in `spool`; with `trace_out`, the daemon
/// writes its causal trace there.
pub fn serve(ctx: &Ctx, plan: &Plan, spool: &Path, trace_out: Option<&Path>) -> FarmRun {
    let mut run = FarmRun {
        banner_s: None,
        job_ms: vec![None; plan.jobs.len()],
        submit_ms: Vec::new(),
        late_ms_max: 0.0,
        done: Vec::new(),
        usage: Rusage::default(),
        errors: Vec::new(),
    };
    let mut cmd = serve_cmd(&ctx.feves, spool);
    if let Some(t) = trace_out {
        cmd.arg("--trace-out").arg(t);
    }
    let mut daemon = match Spawned::spawn(&mut cmd) {
        Ok(d) => d,
        Err(e) => {
            run.errors.push(format!("spawn feves serve: {e}"));
            return run;
        }
    };
    run.banner_s = daemon
        .wait_for(
            Stream::Err,
            |l| l.starts_with("serving "),
            Duration::from_secs(30),
        )
        .map(|d| d.as_secs_f64());
    let done_dir = feves_serve::job::done_dir(spool);
    let stop = AtomicBool::new(false);
    let last_due = plan.jobs.last().map_or(0.0, |j| j.due_s);
    // Jobs still missing this long after the last arrival count as lost.
    let give_up = (Instant::now() + Duration::from_secs_f64(last_due + 60.0))
        .min(ctx.deadline - Duration::from_secs(20));
    let t0 = Instant::now();
    let seen = std::thread::scope(|s| {
        let watcher = s.spawn(|| watch_done(&done_dir, plan.jobs.len(), &stop));
        for job in &plan.jobs {
            let due = t0 + Duration::from_secs_f64(job.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let start = Instant::now();
            run.late_ms_max = run
                .late_ms_max
                .max(start.saturating_duration_since(due).as_secs_f64() * 1e3);
            match submit_cmd(&ctx.feves, spool, plan, job).status() {
                Ok(st) if st.success() => {}
                Ok(st) => run.errors.push(format!("feves submit {}: {st}", job.id)),
                Err(e) => run.errors.push(format!("feves submit {}: {e}", job.id)),
            }
            run.submit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        while !watcher.is_finished() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        watcher.join().expect("done watcher never panics")
    });
    match child::run(
        Command::new(&ctx.feves).arg("drain").arg(spool),
        ctx.deadline,
    ) {
        Ok(d) if d.ok() => {}
        Ok(d) => run.errors.push(format!("feves drain exited {:?}", d.code)),
        Err(e) => run.errors.push(format!("feves drain: {e}")),
    }
    let finished = daemon.finish(ctx.deadline);
    if !finished.ok() {
        run.errors.push(format!(
            "feves serve exited {:?}: {}",
            finished.code,
            finished.stderr_tail()
        ));
    }
    run.usage = finished.usage;
    for (i, job) in plan.jobs.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(job.due_s);
        run.job_ms[i] = seen
            .get(&job.id)
            .map(|at| at.saturating_duration_since(due).as_secs_f64() * 1e3);
        run.done.push(read_done(spool, &job.id));
    }
    run
}

/// Standalone `feves encode` of every input: the reference outputs and
/// the wall time of each.
pub fn standalone(ctx: &Ctx, plan: &Plan, dir: &Path) -> Result<(Vec<Vec<u8>>, Vec<f64>), String> {
    let mut refs = Vec::new();
    let mut walls = Vec::new();
    for (k, input) in plan.inputs.iter().enumerate() {
        let out = dir.join(format!("ref{k}.y4m"));
        let mut cmd = Command::new(&ctx.feves);
        cmd.arg("encode").arg(input).arg(&out).args([
            "--platform",
            "syshk",
            "--sa",
            &SA.to_string(),
            "--refs",
            &REFS.to_string(),
        ]);
        let done = child::run(&mut cmd, ctx.deadline).map_err(|e| e.to_string())?;
        if !done.ok() {
            return Err(format!("standalone encode {k}: {}", done.stderr_tail()));
        }
        walls.push(done.wall.as_secs_f64());
        refs.push(std::fs::read(&out).map_err(|e| e.to_string())?);
    }
    Ok((refs, walls))
}

/// Gate one job: completed, all frames, artifact verified against its done
/// record, and byte-identical to the standalone encode of its input.
/// Returns the verify time, ms.
pub fn check_job(job: &Job, done: &Result<Done, String>, reference: &[u8]) -> Result<f64, String> {
    let d = done
        .as_ref()
        .map_err(|e| format!("{}: no done record: {e}", job.id))?;
    if d.status != "completed" || d.frames != FRAMES as u64 {
        return Err(format!(
            "{}: {} frames, record {}",
            job.id,
            d.frames,
            d.raw.trim()
        ));
    }
    let path = job.output.to_string_lossy();
    let start = Instant::now();
    feves_serve::verify_artifact(&path, d.bytes, d.crc32)?;
    let verify_ms = start.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::read(&job.output).map_err(|e| e.to_string())?;
    if bytes != reference {
        return Err(format!(
            "{}: output differs from the standalone encode",
            job.id
        ));
    }
    Ok(verify_ms)
}

/// Launch a daemon on an empty spool, wait for its banner, kill it;
/// returns launch → banner, s.
fn setup_probe(ctx: &Ctx, spool: &Path) -> Result<f64, String> {
    let mut d = Spawned::spawn(&mut serve_cmd(&ctx.feves, spool)).map_err(|e| e.to_string())?;
    let at = d.wait_for(
        Stream::Err,
        |l| l.starts_with("serving "),
        Duration::from_secs(30),
    );
    d.kill();
    d.finish(ctx.deadline);
    at.map(|a| a.as_secs_f64())
        .ok_or_else(|| "set-up probe printed no banner".to_string())
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let n = jobs_for(ctx.seconds);
    out.attempted = n as u64;
    let dir = ctx.dir.join("farm");
    let plan = match plan(&dir, ctx.seed, n) {
        Ok(p) => p,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let spool = dir.join("spool");
    let farm = serve(ctx, &plan, &spool, None);
    let mut setups: Vec<f64> = farm.banner_s.into_iter().collect();
    for i in 0..SETUP_PROBES {
        match setup_probe(ctx, &dir.join(format!("probe{i}"))) {
            Ok(s) => setups.push(s),
            Err(e) => out.fail(e),
        }
    }
    let (refs, walls) = match standalone(ctx, &plan, &dir) {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            (Vec::new(), Vec::new())
        }
    };
    let mut retries = 0;
    for (job, done) in plan.jobs.iter().zip(&farm.done) {
        retries += done.as_ref().map_or(0, |d| d.attempts.saturating_sub(1));
        let gate = refs
            .get(job.input)
            .ok_or_else(|| "no standalone reference".to_string())
            .and_then(|r| check_job(job, done, r));
        if let Err(e) = gate {
            out.fail(e);
        }
    }
    // A daemon-level failure with every job intact still fails the run.
    if !farm.errors.is_empty() && out.failed == 0 {
        out.failed = 1;
    }
    out.errors.extend(farm.errors.iter().cloned());
    let lat: Vec<f64> = farm.job_ms.iter().flatten().copied().collect();
    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_ms_p50", median(&lat), "ms");
    out.metric("latency_ms_tail", percentile(&lat, TAIL_PCT), "ms");
    out.metric("peak_rss_mb", farm.usage.peak_rss_mb(), "MB");
    out.metric("cpu_ms_per_item", farm.usage.cpu_s() * 1e3 / n as f64, "ms");
    out.info("job_s_p90", percentile(&lat, 90.0) / 1e3, "s");
    out.info("jobs", lat.len() as f64, "count");
    out.info("retries", retries as f64, "count");
    out.info("standalone_job_s", median(&walls), "s");
    out.info("loadgen.late_ms_max", farm.late_ms_max, "ms");
    out
}
