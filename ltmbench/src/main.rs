//! `ltmbench` — one steady benchmark of LTM offline fitting and
//! `ltm-serve`, end to end and per layer. See `ltmbench/README.md`.
//!
//! ```text
//! ltmbench --workload offline_fit|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the same three phases: offline fitting, serving
//! reads and serving writes. The workload sets their sizes: `offline_fit`
//! runs the offline phase at full size and the serving phases small,
//! `serve` the reverse. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones); the line before it
//! describes the run (cores, the CPU it is pinned to, git sha, build
//! profile, host steal seconds).

mod client;
mod data;
mod eq3;
mod json;
mod offline;
mod read;
mod report;
mod serve;
mod stats;
mod write;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use stats::median;

/// Set-ups per phase; `setup_s` sums the phases' median set-up times.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    OfflineFit,
    Serve,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::OfflineFit, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::OfflineFit => "offline_fit",
            Workload::Serve => "serve",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Phase sizes and time shares of one workload.
#[derive(Debug, Clone, Copy)]
struct Profile {
    offline_books: usize,
    read_books: usize,
    /// Write-phase sizes for a run of [`BASE_SECONDS`] (operation counts
    /// scale with `--seconds`).
    write: write::Shape,
    /// Shares of `--seconds` for the offline and read loops.
    offline_share: f64,
    read_share: f64,
}

/// The run length the write-phase operation counts are given for.
const BASE_SECONDS: u64 = 20;

fn profile(w: Workload) -> Profile {
    match w {
        Workload::OfflineFit => Profile {
            offline_books: 16_000,
            read_books: 1_000,
            write: write::Shape {
                resident_books: 1_000,
                round_books: 50,
                rounds: 16,
                compactions: 16,
                restarts: 3,
            },
            offline_share: 0.45,
            read_share: 0.3,
        },
        Workload::Serve => Profile {
            offline_books: 3_000,
            read_books: 6_000,
            write: write::Shape {
                resident_books: 4_000,
                round_books: 160,
                rounds: 10,
                compactions: 16,
                restarts: 4,
            },
            offline_share: 0.2,
            read_share: 0.5,
        },
    }
}

/// `shape`'s operation counts for a run of `seconds` (at least two of
/// each, and an even number of rounds so traced and untraced alternate).
fn scaled(shape: write::Shape, seconds: u64) -> write::Shape {
    let scale = |n: usize| ((n as u64 * seconds).div_ceil(BASE_SECONDS) as usize).max(2);
    write::Shape {
        rounds: scale(shape.rounds).next_multiple_of(2),
        compactions: scale(shape.compactions),
        restarts: scale(shape.restarts),
        ..shape
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(BASE_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ltmbench: {e}");
            eprintln!(
                "usage: ltmbench --workload offline_fit|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_one_cpu();
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let result = run(&args, &work, pinned);
    let _ = std::fs::remove_dir_all(&work);
    // Fails, harmlessly, while another run still has its directory there.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(r) => finish(&args, r, cores, pinned),
        Err(e) => {
            eprintln!("ltmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median set-up time of `f` over [`SETUPS`] attempts. Every attempt but
/// the last is torn down before the next starts; the last is kept.
fn timed_setup<T>(
    mut f: impl FnMut(usize) -> std::io::Result<T>,
    mut teardown: impl FnMut(T),
) -> std::io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    for attempt in 0.. {
        let t = Instant::now();
        let built = f(attempt)?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            return Ok((built, median(&times)));
        }
        teardown(built);
    }
    unreachable!("the loop returns after SETUPS attempts")
}

/// The phases of a run.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Offline,
    Read,
    Write,
}

/// A workload's phases in the order they run: its full-size phases
/// first, so that the process's peak memory is theirs, reached from a
/// fresh heap, rather than depending on what earlier phases left behind in
/// the allocator's per-thread arenas.
fn phases(w: Workload) -> [Phase; 3] {
    match w {
        Workload::OfflineFit => [Phase::Offline, Phase::Read, Phase::Write],
        Workload::Serve => [Phase::Write, Phase::Read, Phase::Offline],
    }
}

fn run(args: &Args, work: &Path, pinned: Option<usize>) -> Result<Report, String> {
    let p = profile(args.workload);
    let write_shape = scaled(p.write, args.seconds);
    let budget = |share: f64| Duration::from_secs_f64(args.seconds as f64 * share);
    let mut r = Report::default();
    let mut setup_s = 0.0;
    let mut steal = Steal::start(pinned);
    let (mut offline_accuracy, mut read_accuracy, mut write_accuracy) = (0.0, 0.0, 0.0);

    for phase in phases(args.workload) {
        match phase {
            Phase::Offline => {
                let (off, t) =
                    timed_setup(|_| Ok(offline::setup(p.offline_books, args.seed)), drop)
                        .map_err(|e| e.to_string())?;
                setup_s += t;
                steal = steal.resume();
                offline_accuracy =
                    offline::run(&off, budget(p.offline_share), 3, args.trace, &mut r);
                steal = steal.pause();
            }
            Phase::Read => {
                let (rd, t) = timed_setup(
                    |_| read::setup(p.read_books, args.seed),
                    read::Read::shutdown,
                )
                .map_err(|e| format!("read set-up: {e}"))?;
                setup_s += t;
                steal = steal.resume();
                read_accuracy = read::run(&rd, budget(p.read_share), 4, args.trace, &mut r);
                steal = steal.pause();
                rd.shutdown();
            }
            Phase::Write => {
                let (mut wr, t) = timed_setup(
                    |attempt| {
                        write::setup(
                            write_shape,
                            args.seed,
                            &work.join(format!("write-{attempt}")),
                        )
                    },
                    write::Write::shutdown,
                )
                .map_err(|e| format!("write set-up: {e}"))?;
                setup_s += t;
                steal = steal.resume();
                write_accuracy = write::run(&mut wr, args.trace, &mut r);
                steal = steal.pause();
                wr.shutdown();
            }
        }
    }

    r.e2e("setup_s", setup_s, "s");
    r.e2e(
        "accuracy",
        match args.workload {
            Workload::OfflineFit => offline_accuracy,
            Workload::Serve => read_accuracy,
        },
        "fraction",
    );
    // The streamed facts' accuracy is checked against the majority vote in
    // the write phase; it is printed for reference.
    r.tails.insert("stream_accuracy", write_accuracy);
    r.e2e(
        "peak_rss_mb",
        peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        "MiB",
    );
    r.steal_s = steal.seconds();
    Ok(r)
}

fn finish(args: &Args, r: Report, cores: usize, pinned: Option<usize>) -> ExitCode {
    let correct = r.check_failures.is_empty();
    let info = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"attempted\":{},\
         \"failed\":{},\"cores\":{},\"pinned_cpu\":{},\"git_sha\":{},\"profile\":{},\"steal_s\":{:.3},\
         \"tails\":{{{}}}}}",
        json::quote(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.attempted,
        r.failed,
        cores,
        pinned.map_or("null".into(), |c| c.to_string()),
        json::quote(&git_sha()),
        json::quote(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        r.steal_s,
        r.tails
            .iter()
            .map(|(k, v)| format!("{}:{v}", json::quote(k)))
            .collect::<Vec<_>>()
            .join(","),
    );
    println!("{info}");
    let metrics: Vec<String> = if args.trace {
        r.layers
            .iter()
            .map(|(name, m)| metric_json(name, m))
            .collect()
    } else {
        r.e2e.iter().map(|(name, m)| metric_json(name, m)).collect()
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_json(name: &str, m: &report::Metric) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        json::quote(name),
        m.value,
        json::quote(m.unit)
    )
}

/// Pins the process to the last CPU it may run on, before any thread is
/// started, so that every thread (the benchmark's client and the
/// program's loop, workers and chains) inherits the one CPU. On a small
/// shared virtual machine a request handed between threads on two vCPUs
/// waits for the other vCPU to wake, which the host schedules at will:
/// one-CPU figures price the program's work instead of that wake-up.
/// Returns the CPU, or `None` where affinity cannot be set.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable mask of `size` bytes, as the call
    // requires; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..16 * 64)
        .rev()
        .find(|&c| (allowed.0[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a readable mask.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out commit, read from `.git` when the checkout has one.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(name) => read(&format!(".git/{name}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(name))
                            .and_then(|l| l.split_whitespace().next().map(str::to_owned))
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

/// Host steal time (`/proc/stat`, USER_HZ = 100) of the CPU the run is
/// pinned to (of all CPUs when it is not pinned), accumulated over the
/// timed phases only.
struct Steal {
    /// The `/proc/stat` line to read: `cpu` or `cpuN`.
    line: String,
    total_ticks: u64,
    since: Option<u64>,
}

impl Steal {
    fn ticks(&self) -> u64 {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let mut fields = s
                    .lines()
                    .map(str::split_whitespace)
                    .find_map(|mut f| (f.next() == Some(self.line.as_str())).then_some(f))?;
                fields.nth(7)?.parse().ok()
            })
            .unwrap_or(0)
    }

    fn start(pinned: Option<usize>) -> Steal {
        Steal {
            line: pinned.map_or("cpu".into(), |c| format!("cpu{c}")),
            total_ticks: 0,
            since: None,
        }
    }

    fn resume(self) -> Steal {
        Steal {
            since: Some(self.ticks()),
            ..self
        }
    }

    fn pause(self) -> Steal {
        let now = self.ticks();
        Steal {
            total_ticks: self.total_ticks + self.since.map_or(0, |s| now.saturating_sub(s)),
            since: None,
            ..self
        }
    }

    fn seconds(&self) -> f64 {
        self.total_ticks as f64 / 100.0
    }
}
