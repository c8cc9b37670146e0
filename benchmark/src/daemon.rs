//! `daemon_jobs`: an in-process `zolcd` on loopback with two client
//! connections sending a seeded, fixed list of retarget and
//! lint-with-config jobs; every response is compared byte for byte with
//! the offline computation.

use crate::report::{self, Metric, Outcome};
use crate::trace::Tracer;
use crate::{Args, SETUPS};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use zolc_bench::json::{self, Json};
use zolc_core::ZolcConfig;
use zolc_daemon::server::{
    lint_result, offline_lint_response, offline_retarget_response, retarget_result,
};
use zolc_daemon::{Client, Daemon, DaemonConfig};
use zolc_gen::{GenConfig, GenRng, ProgramSpec};
use zolc_ir::Target;
use zolc_isa::Program;
use zolc_kernels::kernels;

/// Client connections generating load (closed loop).
pub const CLIENTS: usize = 2;
/// Distinct jobs in the list.
pub const DISTINCT: usize = 64;
/// Jobs resubmitted later by the same client (cache hits).
///
/// The share follows the repository's only multi-client job path,
/// `scripts/daemon_smoke.sh`: its `zolc-client jobs` clients draw from a
/// shared key space, and 15 of their 22 retarget and lint submissions
/// repeat an earlier key. 136 of 200 keeps that share (68%). The smoke
/// run was written to exercise the caches, so this is an assumption
/// about exploration traffic, not a measured mix.
pub const REPEATS: usize = 136;
/// Seeded `zolc-gen` binaries in the pool.
const GEN_BINARIES: usize = 24;

/// What a job asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `retarget`.
    Retarget,
    /// `lint` with a configuration: retarget first, lint the result.
    Lint,
}

/// One distinct job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The binary.
    pub program: Arc<Program>,
    /// The configuration.
    pub config: ZolcConfig,
    /// Retarget or lint.
    pub kind: Kind,
}

impl Job {
    fn send(&self, c: &mut Client) -> std::io::Result<Vec<u8>> {
        match self.kind {
            Kind::Retarget => c.retarget(&self.program, &self.config),
            Kind::Lint => c.lint(&self.program, Some(&self.config)),
        }
    }

    fn offline(&self) -> Vec<u8> {
        match self.kind {
            Kind::Retarget => offline_retarget_response(&self.program, &self.config),
            Kind::Lint => offline_lint_response(&self.program, Some(&self.config)),
        }
    }
}

/// The fixed job list of one seed: distinct jobs, each client's send
/// order (indices into `jobs`; a repeat always follows its original on
/// the same client, so it is a cache hit), and the expected responses.
pub struct JobList {
    /// Distinct jobs.
    pub jobs: Vec<Job>,
    /// Per client, job indices in send order.
    pub lists: Vec<Vec<usize>>,
    /// Expected response bytes per distinct job.
    pub expected: Vec<Vec<u8>>,
}

impl JobList {
    /// Jobs sent per round.
    fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }
}

/// The binary pool: Fig. 2 kernel and corpus baseline binaries plus
/// seeded `zolc-gen` programs.
fn binaries(rng: &mut GenRng) -> Result<Vec<Arc<Program>>, String> {
    let mut out = Vec::new();
    for e in kernels() {
        let b = (e.build)(&Target::Baseline).map_err(|err| format!("{}: {err}", e.name))?;
        out.push(Arc::clone(b.program.source()));
    }
    for e in zolc_lang::corpus() {
        let b = zolc_lang::compile(e.name, e.source)
            .map_err(|err| format!("{}: {err}", e.name))?
            .build(&Target::Baseline)
            .map_err(|err| format!("{}: {err}", e.name))?;
        out.push(Arc::clone(b.program.source()));
    }
    for _ in 0..GEN_BINARIES {
        let s = rng.next_u64() >> 16;
        let a = ProgramSpec::generate(s, &GenConfig::default())
            .assemble()
            .map_err(|err| format!("gen{s}: {err}"))?;
        out.push(Arc::new(a.program));
    }
    Ok(out)
}

/// Builds the job list of `seed` and its expected responses.
///
/// # Errors
///
/// A binary of the pool failed to build.
pub fn job_list(seed: u64) -> Result<JobList, String> {
    let mut rng = GenRng::new(seed ^ 0x6461_656d_6f6e);
    let pool = binaries(&mut rng)?;
    let configs = [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    let mut space: Vec<(usize, usize, Kind)> = (0..pool.len())
        .flat_map(|b| {
            (0..configs.len()).flat_map(move |c| [(b, c, Kind::Retarget), (b, c, Kind::Lint)])
        })
        .collect();
    for i in (1..space.len()).rev() {
        space.swap(i, rng.below(i as u32 + 1) as usize);
    }
    let jobs: Vec<Job> = space[..DISTINCT]
        .iter()
        .map(|&(b, c, kind)| Job {
            program: Arc::clone(&pool[b]),
            config: configs[c],
            kind,
        })
        .collect();
    let mut lists: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| (c..DISTINCT).step_by(CLIENTS).collect())
        .collect();
    for r in 0..REPEATS {
        let list = &mut lists[r % CLIENTS];
        let at = rng.below(list.len() as u32) as usize;
        let job = list[at];
        let pos = at + 1 + rng.below((list.len() - at) as u32) as usize;
        list.insert(pos, job);
    }
    let expected = jobs.iter().map(Job::offline).collect();
    Ok(JobList {
        jobs,
        lists,
        expected,
    })
}

/// One job's client-side outcome.
#[derive(Debug, Clone, Copy)]
struct Sent {
    job: usize,
    miss: bool,
    rtt_s: f64,
    ok: bool,
}

/// What one round against a fresh daemon produced.
struct Round {
    wall: Duration,
    sent: Vec<Sent>,
    failed: u64,
    hits: u64,
    misses: u64,
    entries: u64,
}

fn cache_counts(stats: &Json) -> (u64, u64, u64) {
    let field = |cache: &str, key: &str| {
        stats
            .get(cache)
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let sum = |key| field("retarget", key) + field("lint", key);
    (sum("hits"), sum("misses"), sum("entries"))
}

/// Starts a fresh daemon, sends every client's list over its own
/// connection, then reads the cache statistics and shuts the daemon
/// down. Responses are compared with the expected bytes after the
/// clients finish.
fn round(list: &JobList, tr: &mut Tracer, id_base: u64) -> Result<Round, String> {
    let daemon = Daemon::bind(&DaemonConfig::new()).map_err(|e| format!("bind: {e}"))?;
    let addr = daemon.local_addr();
    let server = thread::spawn(move || daemon.run());
    let barrier = Barrier::new(CLIENTS + 1);
    let mut forks: Vec<Tracer> = (0..CLIENTS).map(|_| tr.fork()).collect();
    let mut next = 0;
    let starts: Vec<usize> = list
        .lists
        .iter()
        .map(|l| {
            let s = next;
            next += l.len();
            s
        })
        .collect();
    let (wall, per_client) = thread::scope(|s| {
        let handles: Vec<_> = forks
            .iter_mut()
            .zip(&list.lists)
            .zip(&starts)
            .map(|((t, order), &first_slot)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let client = Client::connect(addr);
                    barrier.wait();
                    let mut client = match client {
                        Ok(c) => c,
                        Err(_) => return Vec::new(),
                    };
                    let mut seen = vec![false; list.jobs.len()];
                    let mut got = Vec::with_capacity(order.len());
                    for (k, &j) in order.iter().enumerate() {
                        let slot = first_slot + k;
                        let id = id_base + slot as u64;
                        let t0 = Instant::now();
                        let r = list.jobs[j].send(&mut client);
                        let t1 = Instant::now();
                        t.record("daemon.rtt", id, t0, t1);
                        let Ok(bytes) = r else { break };
                        let parsed = t.time("bench.json_parse", id, || {
                            std::str::from_utf8(&bytes)
                                .ok()
                                .and_then(|s| json::parse(s).ok())
                        });
                        let ok = parsed.is_some() && bytes == list.expected[j];
                        got.push(Sent {
                            job: j,
                            miss: !std::mem::replace(&mut seen[j], true),
                            rtt_s: (t1 - t0).as_secs_f64(),
                            ok,
                        });
                    }
                    got
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let per_client: Vec<Vec<Sent>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (start.elapsed(), per_client)
    });
    for t in forks {
        tr.merge(t);
    }
    let stats = Client::connect(addr).and_then(|mut c| {
        let stats = c.stats()?;
        c.shutdown()?;
        Ok(stats)
    });
    // without a delivered shutdown the daemon never returns: leave its
    // thread to end with the process rather than wait on it
    let stats = stats.map_err(|e| format!("stats/shutdown: {e}"))?;
    server
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())?
        .map_err(|e| format!("daemon: {e}"))?;
    let (hits, misses, entries) = cache_counts(&stats);
    let sent: Vec<Sent> = per_client.into_iter().flatten().collect();
    let failed = (list.len() - sent.len()) as u64 + sent.iter().filter(|s| !s.ok).count() as u64;
    Ok(Round {
        wall,
        sent,
        failed,
        hits,
        misses,
        entries,
    })
}

/// Rounds of the whole list until the next one would overrun `budget`
/// (at least one), or exactly `count` rounds when given. `between` runs
/// after each round with the busy time so far.
fn rounds(
    list: &JobList,
    budget: Duration,
    count: Option<u64>,
    tr: &mut Tracer,
    out: &mut Outcome,
    mut between: impl FnMut(Duration, &mut Outcome),
) -> Vec<Round> {
    let mut done: Vec<Round> = Vec::new();
    let mut busy = Duration::ZERO;
    loop {
        let more = match count {
            Some(n) => (done.len() as u64) < n,
            None => done.last().is_none_or(|last| busy + last.wall <= budget),
        };
        if !more {
            return done;
        }
        let id_base = (done.len() * list.len()) as u64;
        out.attempted += list.len() as u64;
        match round(list, tr, id_base) {
            Ok(r) => {
                out.failed += r.failed;
                busy += r.wall;
                done.push(r);
                between(busy, out);
            }
            Err(e) => {
                println!("daemon_jobs round failed: {e}");
                out.failed += list.len() as u64;
                return done;
            }
        }
    }
}

fn setup(seed: u64, out: &mut Outcome) -> (Option<JobList>, f64) {
    let start = Instant::now();
    let list = job_list(seed);
    let secs = start.elapsed().as_secs_f64();
    match list {
        Ok(l) => (Some(l), secs),
        Err(e) => {
            println!("daemon_jobs set-up failed: {e}");
            out.attempted += 1;
            out.failed += 1;
            (None, secs)
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (list, secs) = setup(args.seed, &mut out);
    let Some(list) = list else {
        return out;
    };
    if args.trace {
        traced(args, &list, &mut out);
        return out;
    }
    let mut setups = vec![secs];
    let budget = Duration::from_secs_f64(args.seconds);
    let done = rounds(
        &list,
        budget,
        None,
        &mut Tracer::off(),
        &mut out,
        |busy, out| {
            while report::setup_due(setups.len(), busy, budget) {
                setups.push(setup(args.seed, out).1);
            }
        },
    );
    while setups.len() < SETUPS {
        setups.push(setup(args.seed, &mut out).1);
    }
    let rtts: Vec<f64> = done
        .iter()
        .flat_map(|r| &r.sent)
        .filter(|s| s.ok)
        .map(|s| s.rtt_s)
        .collect();
    let wall: f64 = done.iter().map(|r| r.wall.as_secs_f64()).sum();
    let jobs_per_s = rtts.len() as f64 / wall.max(1e-12);
    println!(
        "daemon_jobs: {} rounds of {} jobs ({DISTINCT} distinct, {REPEATS} resubmitted) over {CLIENTS} connections:",
        done.len(),
        list.len(),
    );
    println!("jobs_per_s {jobs_per_s:.3} 1/s (checked jobs over the rounds' wall time)");
    println!(
        "job_p50_ms {:.3} ms ({} round trips)",
        1e3 * report::quantile(&rtts, 0.5),
        rtts.len()
    );
    println!(
        "job_p90_ms {:.3} ms ({} round trips)",
        1e3 * report::quantile(&rtts, 0.9),
        rtts.len()
    );
    out.metrics = report::end_to_end(jobs_per_s, &rtts, &setups);
    out
}

fn traced(args: &Args, list: &JobList, out: &mut Outcome) {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let off = rounds(list, half, None, &mut Tracer::off(), out, |_, _| {});
    let mut tr = Tracer::on();
    let on = rounds(list, half, Some(off.len() as u64), &mut tr, out, |_, _| {});
    let wall = |rs: &[Round]| rs.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>();

    // the daemon-side computation, replayed offline on the same jobs
    let mut replay = Tracer::on();
    let compute_ns: Vec<f64> = list
        .jobs
        .iter()
        .map(|j| {
            let wire = Program::from_parts(j.program.text().to_vec(), j.program.data().to_vec());
            let t0 = Instant::now();
            let doc = match j.kind {
                Kind::Retarget => retarget_result(&j.program, &j.config),
                Kind::Lint => lint_result(&j.program, Some(&j.config)),
            };
            let dt = t0.elapsed();
            replay.record("daemon.compute", 0, t0, t0 + dt);
            if let Ok(r) = replay.time("cfg.retarget", 0, || zolc_cfg::retarget(&wire, &j.config)) {
                replay.count("cfg.retarget_calls", 1);
                if j.kind == Kind::Lint {
                    replay.time("cfg.lint", 0, || {
                        zolc_cfg::lint_program(&r.program, Some(&r.image))
                    });
                }
            }
            let _ = std::hint::black_box(doc);
            dt.as_nanos() as f64
        })
        .collect();
    crate::write_trace("daemon_jobs", args.seed, &tr);

    let sent: Vec<&Sent> = on.iter().flat_map(|r| &r.sent).collect();
    let jobs = sent.len().max(1) as f64;
    let transport = |s: &Sent| {
        s.rtt_s
            - if s.miss {
                compute_ns[s.job] * 1e-9
            } else {
                0.0
            }
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let split = |miss: bool| {
        let v: Vec<&&Sent> = sent.iter().filter(|s| s.miss == miss).collect();
        (
            v.len(),
            1e3 * mean(v.iter().map(|s| s.rtt_s).collect()),
            1e3 * mean(v.iter().map(|s| transport(s)).collect()),
        )
    };
    println!(
        "daemon_jobs traced: {} rounds, {} jobs; spans:",
        on.len(),
        sent.len()
    );
    print!("{}{}", tr.summary(), replay.summary());
    for (label, miss) in [("cache hits", false), ("cache misses", true)] {
        let (n, rtt, tp) = split(miss);
        println!("  {label}: {n} jobs, mean rtt {rtt:.3} ms, mean transport {tp:.3} ms");
    }
    let per_round_jobs = list.len() as f64;
    let last = on.last();
    let (hits, misses, entries) = last.map_or((0, 0, 0), |r| (r.hits, r.misses, r.entries));
    let m = vec![
        Metric {
            name: "daemon.rtt_s",
            value: tr.agg("daemon.rtt").total_ns as f64 * 1e-9 / jobs,
        },
        Metric {
            name: "daemon.compute_s",
            value: replay.agg("daemon.compute").total_ns as f64 * 1e-9 / per_round_jobs,
        },
        Metric {
            name: "daemon.transport_s",
            value: mean(sent.iter().map(|s| transport(s)).collect()),
        },
        Metric {
            name: "bench.json_parse_s",
            value: tr.agg("bench.json_parse").total_ns as f64 * 1e-9 / jobs,
        },
        Metric {
            name: "cfg.retarget_s",
            value: replay.agg("cfg.retarget").total_ns as f64 * 1e-9 / per_round_jobs,
        },
        Metric {
            name: "cfg.retarget_calls",
            value: replay.counter("cfg.retarget_calls") as f64 / per_round_jobs,
        },
        Metric {
            name: "cfg.lint_s",
            value: replay.agg("cfg.lint").total_ns as f64 * 1e-9 / per_round_jobs,
        },
        Metric {
            name: "daemon.cache_hit_ratio",
            value: hits as f64 / (hits + misses).max(1) as f64,
        },
        Metric {
            name: "daemon.cache_entries",
            value: entries as f64,
        },
        Metric {
            name: "trace.overhead_pct",
            value: 100.0 * (wall(&on) / wall(&off) - 1.0),
        },
    ];
    out.metrics = report::per_layer(m);
}
