//! End-to-end runs: each workload's requests through the production
//! entry point, `multidim_serve::FrontDoor`, timed from outside.
//!
//! Shards x workers equals the 2 cores the benchmark is sized for (see
//! [`fleet_shape`]), and the load generator uses at most two threads of
//! its own.

use crate::check::{Arrays, Reference};
use crate::stats::{geomean, mean, percentile, timed};
use crate::streams::{self, Scheduled, TENANTS};
use crate::Workload;
use multidim::{Compiler, Executable};
use multidim_engine::CacheStats;
use multidim_mapping::TuneOptions;
use multidim_serve::{FrontDoor, FrontDoorConfig, FrontDoorStats, Request, ServeError, Ticket};
use multidim_workloads::catalog::{catalog, CatalogEntry};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed fleet start-ups run first, for at least this long: on a shared
/// VM host a process whose cores sat idle starts up to 1.7x slower for
/// about a second, which would make `setup_s` measure how long the host
/// was idle before the run.
const SETUP_WARMUP: Duration = Duration::from_millis(1500);
/// Timed fleet start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 20;
/// `serve-zipf` offered load. Warm service over the zipf mix averages
/// about 2.4 ms, so the two workers sit near 12% busy on average: well
/// below saturation, so latency is mostly service time rather than
/// queueing.
pub const SERVE_RATE_RPS: f64 = 100.0;
/// How often the open-loop collector sweeps its in-flight tickets while
/// they sit on more than one shard (it parks on the oldest otherwise).
const SWEEP: Duration = Duration::from_micros(25);
/// `compile-cold` closed-loop clients (one per core).
const COLD_CLIENTS: usize = 2;
/// Stream prefixes whose simulated GPU time makes up `gpu_us_geomean`.
const SERVE_GPU_SET: usize = 16384;
const COLD_GPU_SET: u64 = 512;
const TUNE_GPU_SET: u64 = 64;
/// Closed-loop requests between untimed oracle checks.
const COLD_CHUNK: u64 = 256;
const TUNE_CHUNK: usize = 32;
/// Open-loop health: the generator may run this late at p99 (the tenant
/// SLO latency: beyond it the measured latencies say more about the
/// generator than about the fleet) ...
const LATE_P99_LIMIT_MS: f64 = 50.0;
/// ... and the final quarter's mean backlog may exceed the first
/// quarter's by at most this many requests.
const BACKLOG_GROWTH_LIMIT: f64 = 4.0;

/// Shards and workers per shard. Served workloads spread requests over
/// 2 shards x 1 worker. `autotune` runs 1 shard x 2 workers: a tune fans
/// its candidates out over its home shard's pool, so both cores serve
/// one call.
pub fn fleet_shape(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::ServeZipf | Workload::CompileCold => (2, 1),
        Workload::Autotune => (1, 2),
    }
}

fn fleet_config(workload: Workload) -> FrontDoorConfig {
    let (shards, workers) = fleet_shape(workload);
    let mut config = FrontDoorConfig {
        shards,
        ..FrontDoorConfig::default()
    };
    config.shard.workers = workers;
    config
}

/// The latency a request must beat to count as meeting the SLO: the
/// front door's own default tenant objective.
fn slo_seconds() -> f64 {
    FrontDoorConfig::default().tenant_slo.latency.threshold
}

pub fn request_of(entry: &CatalogEntry) -> Request {
    Request::new(
        entry.program.clone(),
        entry.bindings.clone(),
        entry.inputs.clone(),
    )
}

/// Start one fleet — front door plus catalog preload into the shards'
/// hot caches — and time it.
fn start_once(workload: Workload, entries: &[CatalogEntry]) -> Result<(FrontDoor, f64), String> {
    let requests: Vec<Request> = entries.iter().map(request_of).collect();
    let started = Instant::now();
    let door = FrontDoor::new(Compiler::new(), fleet_config(workload));
    let report = door.preload(requests);
    let seconds = started.elapsed().as_secs_f64();
    if report.failed > 0 {
        door.shutdown();
        return Err(format!(
            "catalog preload failed for {} entries",
            report.failed
        ));
    }
    Ok((door, seconds))
}

/// Start and shut down `n` fleets; each start-up's time.
fn time_start_ups(
    workload: Workload,
    entries: &[CatalogEntry],
    n: usize,
) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (door, seconds) = start_once(workload, entries)?;
            door.shutdown();
            Ok(seconds)
        })
        .collect()
}

/// Warm up, then start the fleet `SETUP_REPS` times and keep the last
/// one.
pub fn start_fleet(
    workload: Workload,
    entries: &[CatalogEntry],
) -> Result<(FrontDoor, Vec<f64>), String> {
    let warmup = Instant::now();
    while warmup.elapsed() < SETUP_WARMUP {
        time_start_ups(workload, entries, 1)?;
    }
    let mut setup_s = time_start_ups(workload, entries, SETUP_REPS - 1)?;
    let (door, seconds) = start_once(workload, entries)?;
    setup_s.push(seconds);
    Ok((door, setup_s))
}

/// Front-door and summed shard-cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub door: FrontDoorStats,
    pub cache: CacheStats,
}

impl Counters {
    fn read(door: &FrontDoor) -> Counters {
        let mut cache = CacheStats::default();
        for i in 0..door.shards() {
            let s = door.shard(i).cache_stats();
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.evictions += s.evictions;
            cache.coalesced += s.coalesced;
            cache.failures += s.failures;
        }
        Counters {
            door: door.stats(),
            cache,
        }
    }

    fn since(self, before: Counters) -> Counters {
        let (a, b) = (self.door, before.door);
        Counters {
            door: FrontDoorStats {
                submitted: a.submitted - b.submitted,
                completed: a.completed - b.completed,
                expired: a.expired - b.expired,
                failed: a.failed - b.failed,
                quota_rejected: a.quota_rejected - b.quota_rejected,
                shed_deadline: a.shed_deadline - b.shed_deadline,
                shed_overload: a.shed_overload - b.shed_overload,
                spilled: a.spilled - b.spilled,
                coalesced: a.coalesced - b.coalesced,
            },
            cache: CacheStats {
                hits: self.cache.hits - before.cache.hits,
                misses: self.cache.misses - before.cache.misses,
                evictions: self.cache.evictions - before.cache.evictions,
                coalesced: self.cache.coalesced - before.cache.coalesced,
                failures: self.cache.failures - before.cache.failures,
            },
        }
    }

    /// Hits over lookups; `0.0` when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.cache.hits + self.cache.misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache.hits as f64 / lookups as f64
        }
    }
}

/// Everything one timed window observed.
#[derive(Debug, Default)]
pub struct Drive {
    pub attempted: u64,
    /// Refused, expired or failed requests.
    pub failed: u64,
    /// Completed requests whose output disagreed with the oracle.
    pub wrong: u64,
    /// Responses that took the other side of the workload's cache design:
    /// a miss at the home shard on serve-zipf, any hit on compile-cold.
    pub off_design: u64,
    /// Latency of every correct completion ...
    pub latency_ms: Vec<f64>,
    /// ... and when (seconds into the measured window) it was sent ...
    pub sent_s: Vec<f64>,
    /// ... and grouped by request class: the catalog program on
    /// serve-zipf, the program family on the closed loops.
    pub class_ms: BTreeMap<String, Vec<f64>>,
    /// Correct completions within the tenant SLO latency.
    pub slo_met: u64,
    /// Length of the measured window: the schedule's span on the open
    /// loop, the time requests were in flight on the closed loops.
    pub window_s: f64,
    /// Open loop only: from the first due time to the last completion.
    pub completion_span_s: f64,
    pub gpu_us_geomean: f64,
    pub digest: u64,
    pub setup_s: Vec<f64>,
    pub counters: Counters,
    /// Completions per shard (home shard of each tune call on `autotune`).
    pub shard_done: Vec<u64>,
    // Traced runs only: bench-timed layer entry points.
    pub submit_us: Vec<f64>,
    pub fingerprint_us: Vec<f64>,
    /// From each response's `queue_wait`.
    pub queue_ms: Vec<f64>,
    /// Open loop only: how late each request was sent.
    pub late_ms: Vec<f64>,
    pub problems: Vec<String>,
}

impl Drive {
    fn new(setup_s: Vec<f64>, workload: Workload) -> Drive {
        Drive {
            setup_s,
            shard_done: vec![0; fleet_shape(workload).0],
            ..Drive::default()
        }
    }

    fn completed(&mut self, program: &str, sent: Duration, latency: Duration, shard: usize) {
        let s = latency.as_secs_f64();
        self.latency_ms.push(s * 1e3);
        self.sent_s.push(sent.as_secs_f64());
        // Stream variants are named `<stream>.<family>`.
        let class = program.rsplit('.').next().unwrap_or(program);
        self.class_ms
            .entry(class.to_string())
            .or_default()
            .push(s * 1e3);
        if s <= slo_seconds() {
            self.slo_met += 1;
        }
        self.shard_done[shard] += 1;
    }

    /// The drive's own invariant: the workload exercised the layer it was
    /// built for (a request spilled off its home shard under overload is
    /// not held to serve-zipf's all-hit design).
    fn check_design(&mut self, design: &str) {
        if self.off_design > 0 {
            self.problems.push(format!(
                "{} responses broke the workload design ({design})",
                self.off_design
            ));
        }
    }
}

/// Run `workload` for `seconds` through a freshly started fleet.
/// `instrument` adds the bench-side timing of `FrontDoor::fingerprint_of` and
/// `FrontDoor::submit` that the per-layer breakdown reports.
pub fn drive(workload: Workload, seed: u64, seconds: f64, instrument: bool) -> Drive {
    let entries = catalog();
    let run = match workload {
        Workload::ServeZipf => serve_zipf(&entries, seed, seconds, instrument),
        Workload::CompileCold => compile_cold(&entries, seed, seconds, instrument),
        Workload::Autotune => autotune(&entries, seed, seconds, instrument),
    };
    run.unwrap_or_else(|problem| Drive {
        problems: vec![problem],
        ..Drive::new(Vec::new(), workload)
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One open-loop submission on its way to the collector.
struct Sent {
    scheduled: Scheduled,
    due: Instant,
    sent: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// An admitted open-loop request the collector is waiting on.
struct InFlight {
    entry: usize,
    due: Instant,
    ticket: Ticket,
}

/// `serve-zipf`: open loop at `SERVE_RATE_RPS`, zipf over the catalog,
/// every request a hot-cache hit.
///
/// The generator thread sends at the due times; the collector thread
/// stamps each request done when it observes the result, so latency runs
/// from the due time through the whole response path. It parks on the
/// oldest in-flight ticket: a shard's single worker serves its queue in
/// order, so while every ticket in flight sits on one shard the oldest
/// resolves first and the collector sleeps until it does or the next
/// request is due. While tickets sit on both shards it sweeps them all
/// every `SWEEP`.
fn serve_zipf(
    entries: &[CatalogEntry],
    seed: u64,
    seconds: f64,
    instrument: bool,
) -> Result<Drive, String> {
    let workload = Workload::ServeZipf;
    // Each entry's oracle and simulated GPU time, from a fresh compile.
    let compiler = Compiler::new();
    let mut refs = Vec::new();
    let mut gpu_s = Vec::new();
    for e in entries {
        let exe = compiler
            .compile(&e.program, &e.bindings)
            .map_err(|x| x.to_string())?;
        let run = exe.run(&e.inputs).map_err(|x| x.to_string())?;
        refs.push(Reference::for_compiled(e, &exe, &run.outputs)?);
        gpu_s.push(run.gpu_seconds);
    }
    let len = (SERVE_RATE_RPS * seconds) as usize;
    let schedule = streams::serve_schedule(entries.len(), seed, len);
    let (door, setup_s) = start_fleet(workload, entries)?;
    let before = Counters::read(&door);
    let start = Instant::now() + Duration::from_millis(20);
    let due_at = |i: usize| start + Duration::from_secs_f64(i as f64 / SERVE_RATE_RPS);
    let mut backlog = Vec::with_capacity(schedule.len());
    let (mut fingerprint_us, mut submit_us) = (Vec::new(), Vec::new());
    let (tx, rx) = mpsc::channel::<Sent>();
    let (refs, gpu) = (&refs, &gpu_s);
    let mut d = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut d = Drive::new(Vec::new(), workload);
            let mut last_done = start;
            let mut flying: Vec<InFlight> = Vec::new();
            let (mut received, mut open) = (0, true);
            loop {
                // Take every submission sent so far; block for the next
                // one only when nothing is in flight.
                while open {
                    let next = if flying.is_empty() {
                        rx.recv().map_err(|_| TryRecvError::Disconnected)
                    } else {
                        rx.try_recv()
                    };
                    match next {
                        Ok(sent) => {
                            received += 1;
                            d.attempted += 1;
                            d.late_ms.push((sent.sent - sent.due).as_secs_f64() * 1e3);
                            match sent.ticket {
                                Ok(ticket) => flying.push(InFlight {
                                    entry: sent.scheduled.entry,
                                    due: sent.due,
                                    ticket,
                                }),
                                Err(_) => d.failed += 1,
                            }
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => open = false,
                    }
                }
                if flying.is_empty() {
                    break;
                }
                // Stamp every resolved ticket first, then check outputs.
                let mut ready = Vec::new();
                let mut i = 0;
                while i < flying.len() {
                    match flying[i].ticket.poll() {
                        Some(outcome) => ready.push((flying.remove(i), outcome, Instant::now())),
                        None => i += 1,
                    }
                }
                for (f, outcome, done) in ready {
                    let Ok(served) = outcome else {
                        d.failed += 1;
                        continue;
                    };
                    let r = &served.response;
                    if !served.spilled && !r.cache_hit {
                        d.off_design += 1;
                    }
                    last_done = last_done.max(done);
                    d.queue_ms.push(r.queue_wait.as_secs_f64() * 1e3);
                    let ok = refs[f.entry].check(&r.run.outputs);
                    if let Err(e) = &ok {
                        d.problems.push(e.clone());
                    }
                    if r.run.gpu_seconds != gpu[f.entry] {
                        d.problems.push(format!(
                            "`{}` simulated {} s where a fresh compile simulates {} s",
                            entries[f.entry].name(),
                            r.run.gpu_seconds,
                            gpu[f.entry]
                        ));
                    }
                    if ok.is_ok() && r.run.gpu_seconds == gpu[f.entry] {
                        let name = entries[f.entry].name();
                        d.completed(name, f.due - start, done - f.due, served.shard);
                    } else {
                        d.wrong += 1;
                    }
                }
                if let Some(oldest) = flying.first() {
                    let shard = oldest.ticket.shard;
                    let timeout = if flying.iter().any(|f| f.ticket.shard != shard) {
                        SWEEP
                    } else if open {
                        due_at(received)
                            .saturating_duration_since(Instant::now())
                            .max(SWEEP)
                    } else {
                        Duration::from_millis(100)
                    };
                    oldest.ticket.wait_ready(timeout);
                }
            }
            d.completion_span_s = (last_done - start).as_secs_f64();
            d
        });
        for (i, scheduled) in schedule.iter().enumerate() {
            let request = request_of(&entries[scheduled.entry]);
            let due = due_at(i);
            sleep_until(due);
            if instrument {
                let (_, us) = timed(|| door.fingerprint_of(&request.program, &request.bindings));
                fingerprint_us.push(us);
            }
            backlog.push((door.queue_depth() + door.in_flight()) as f64);
            let sent = Instant::now();
            let ticket = door.submit(scheduled.tenant, request);
            if instrument {
                submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            }
            let sent = Sent {
                scheduled: *scheduled,
                due,
                sent,
                ticket,
            };
            tx.send(sent).expect("collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    d.counters = Counters::read(&door).since(before);
    door.shutdown();
    d.setup_s = setup_s;
    d.window_s = schedule.len() as f64 / SERVE_RATE_RPS;
    d.fingerprint_us = fingerprint_us;
    d.submit_us = submit_us;
    d.digest = streams::serve_digest(entries.len(), seed);
    d.gpu_us_geomean = geomean(
        streams::serve_schedule(entries.len(), seed, SERVE_GPU_SET)
            .iter()
            .map(|s| gpu_s[s.entry] * 1e6),
    );
    open_loop_health(&mut d, &backlog);
    d.check_design("every request at its home shard hits the preloaded cache");
    Ok(d)
}

/// Mark the run invalid when the generator fell behind its schedule or
/// the backlog grew across the run (the offered rate was not sustained).
fn open_loop_health(d: &mut Drive, backlog: &[f64]) {
    let late_p99 = percentile(&d.late_ms, 0.99);
    if late_p99 > LATE_P99_LIMIT_MS {
        d.problems.push(format!(
            "invalid run: the load generator ran {late_p99:.2} ms late at p99 (limit {LATE_P99_LIMIT_MS} ms)"
        ));
    }
    let quarter = backlog.len() / 4;
    if quarter > 0 {
        let first = mean(&backlog[..quarter]);
        let last = mean(&backlog[backlog.len() - quarter..]);
        if last > first + BACKLOG_GROWTH_LIMIT {
            d.problems.push(format!(
                "invalid run: backlog grew from {first:.2} to {last:.2} requests across the run"
            ));
        }
    }
}

/// One closed-loop completion kept for the check after its chunk.
struct Done {
    index: u64,
    sent: Duration,
    latency: Duration,
    shard: usize,
    outputs: Arrays,
    gpu_seconds: f64,
}

/// What one closed-loop client saw in one chunk.
#[derive(Default)]
struct Client {
    attempted: u64,
    failed: u64,
    off_design: u64,
    done: Vec<Done>,
    submit_us: Vec<f64>,
    fingerprint_us: Vec<f64>,
    queue_ms: Vec<f64>,
}

/// `compile-cold`: closed loop, `COLD_CLIENTS` clients, every request a
/// never-seen (family, size) variant, so every request misses the cache.
///
/// The window is cut into chunks of `COLD_CHUNK` requests. Between chunks
/// the clients pause (untimed) while the chunk's outputs are checked
/// against the oracle, so retained outputs stay bounded however fast the
/// fleet serves, and the check never competes with timed requests.
fn compile_cold(
    entries: &[CatalogEntry],
    seed: u64,
    seconds: f64,
    instrument: bool,
) -> Result<Drive, String> {
    let workload = Workload::CompileCold;
    let (door, setup_s) = start_fleet(workload, entries)?;
    let mut d = Drive::new(setup_s, workload);
    d.digest = streams::COLD.digest(seed);
    let before = Counters::read(&door);
    let next = AtomicU64::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let mut active = Duration::ZERO;
    let mut gpu_s: HashMap<u64, f64> = HashMap::new();
    while active < budget {
        let limit = next.load(Ordering::Relaxed) + COLD_CHUNK;
        let chunk_start = Instant::now();
        let end = chunk_start + (budget - active);
        let clients: Vec<Client> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..COLD_CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut c = Client::default();
                        while Instant::now() < end {
                            let Ok(index) =
                                next.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |i| {
                                    (i < limit).then_some(i + 1)
                                })
                            else {
                                break;
                            };
                            let v = streams::COLD.variant(seed, index);
                            let tenant = TENANTS[(index % TENANTS.len() as u64) as usize];
                            if instrument {
                                let (_, us) =
                                    timed(|| door.fingerprint_of(&v.program, &v.bindings));
                                c.fingerprint_us.push(us);
                            }
                            c.attempted += 1;
                            let sent = Instant::now();
                            let ticket = door.submit(tenant, request_of(&v));
                            if instrument {
                                c.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
                            }
                            match ticket.and_then(Ticket::wait) {
                                Ok(served) => {
                                    let latency = sent.elapsed();
                                    let r = served.response;
                                    c.off_design += r.cache_hit as u64;
                                    c.queue_ms.push(r.queue_wait.as_secs_f64() * 1e3);
                                    c.done.push(Done {
                                        index,
                                        sent: active + (sent - chunk_start),
                                        latency,
                                        shard: served.shard,
                                        gpu_seconds: r.run.gpu_seconds,
                                        outputs: r.run.outputs,
                                    });
                                }
                                Err(_) => c.failed += 1,
                            }
                        }
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        active += chunk_start.elapsed();
        for c in clients {
            d.attempted += c.attempted;
            d.failed += c.failed;
            d.off_design += c.off_design;
            d.submit_us.extend(c.submit_us);
            d.fingerprint_us.extend(c.fingerprint_us);
            d.queue_ms.extend(c.queue_ms);
            for done in c.done {
                let v = streams::COLD.variant(seed, done.index);
                match Reference::of(&v).and_then(|r| r.check(&done.outputs)) {
                    Ok(()) => d.completed(&v.program.name, done.sent, done.latency, done.shard),
                    Err(e) => {
                        d.wrong += 1;
                        d.problems.push(e);
                    }
                }
                gpu_s.insert(done.index, done.gpu_seconds);
            }
        }
    }
    d.window_s = active.as_secs_f64();
    d.counters = Counters::read(&door).since(before);

    // The fixed GPU-time set; any member the window did not reach is
    // served now.
    let mut set = Vec::new();
    for index in 0..COLD_GPU_SET {
        let seconds = match gpu_s.get(&index) {
            Some(&s) => s,
            None => {
                let v = streams::COLD.variant(seed, index);
                let served = door
                    .submit(TENANTS[0], request_of(&v))
                    .and_then(Ticket::wait)
                    .map_err(|e| format!("`{}` variant {index}: {e}", v.program.name))?;
                served.response.run.gpu_seconds
            }
        };
        set.push(seconds * 1e6);
    }
    d.gpu_us_geomean = geomean(set);
    door.shutdown();
    d.check_design("every request misses the cache");
    Ok(d)
}

/// `autotune`: closed loop, one caller tuning a stream of fresh variants
/// through `FrontDoor::autotune`, in chunks of `TUNE_CHUNK` calls whose
/// tuned executables are checked (untimed) before the next chunk starts.
fn autotune(
    entries: &[CatalogEntry],
    seed: u64,
    seconds: f64,
    instrument: bool,
) -> Result<Drive, String> {
    let workload = Workload::Autotune;
    let (door, setup_s) = start_fleet(workload, entries)?;
    let mut d = Drive::new(setup_s, workload);
    d.digest = streams::TUNE.digest(seed);
    let options = TuneOptions::default();
    let before = Counters::read(&door);
    let budget = Duration::from_secs_f64(seconds);
    let mut active = Duration::ZERO;
    let mut gpu_s: HashMap<u64, f64> = HashMap::new();
    let mut index = 0u64;
    while active < budget {
        let chunk_start = Instant::now();
        let end = chunk_start + (budget - active);
        let mut tuned: Vec<(u64, Arc<Executable>, Duration, Duration, usize)> = Vec::new();
        for _ in 0..TUNE_CHUNK {
            if Instant::now() >= end {
                break;
            }
            let v = streams::TUNE.variant(seed, index);
            let mut home = 0;
            if instrument {
                let (fp, us) = timed(|| door.fingerprint_of(&v.program, &v.bindings));
                d.fingerprint_us.push(us);
                home = door.home_shard(fp);
            }
            d.attempted += 1;
            let started = Instant::now();
            match door.autotune(&v.program, &v.bindings, &v.inputs, &options) {
                Ok((exe, _record)) => {
                    let sent = active + (started - chunk_start);
                    tuned.push((index, exe, sent, started.elapsed(), home));
                }
                Err(_) => d.failed += 1,
            }
            index += 1;
        }
        active += chunk_start.elapsed();
        for (index, exe, sent, latency, home) in tuned {
            let v = streams::TUNE.variant(seed, index);
            match tuned_output(&v, &exe) {
                Ok(seconds) => {
                    d.completed(&v.program.name, sent, latency, home);
                    gpu_s.insert(index, seconds);
                }
                Err(e) => {
                    d.wrong += 1;
                    d.problems.push(e);
                }
            }
        }
    }
    d.window_s = active.as_secs_f64();
    d.counters = Counters::read(&door).since(before);

    // The fixed GPU-time set; members the window did not reach are tuned
    // now.
    let mut set = Vec::new();
    for index in 0..TUNE_GPU_SET {
        let seconds = match gpu_s.get(&index) {
            Some(&s) => s,
            None => {
                let v = streams::TUNE.variant(seed, index);
                let (exe, _) = door
                    .autotune(&v.program, &v.bindings, &v.inputs, &options)
                    .map_err(|e| format!("`{}` variant {index}: {e}", v.program.name))?;
                tuned_output(&v, &exe)?
            }
        };
        set.push(seconds * 1e6);
    }
    d.gpu_us_geomean = geomean(set);
    door.shutdown();
    Ok(d)
}

/// Run a tuned executable, check it against the oracle, and return its
/// simulated GPU seconds.
fn tuned_output(v: &CatalogEntry, exe: &Executable) -> Result<f64, String> {
    let run = exe
        .run(&v.inputs)
        .map_err(|e| format!("`{}`: tuned executable failed: {e}", v.program.name))?;
    Reference::of(v)?.check(&run.outputs)?;
    Ok(run.gpu_seconds)
}

/// Latency statistics and throughput of a drive, each the median over
/// consecutive sub-windows of the run (by send time), so one slow
/// stretch of a shared host does not set the whole run's figure. Each
/// sub-window keeps at least `PER_WINDOW` samples, so its p99 has ten
/// beyond it; a drive with fewer samples is one window. On the open loop
/// every sub-window holds exactly its scheduled requests, so throughput
/// is instead all completions over the span to the last one.
pub struct Windowed {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub throughput: f64,
}

const MAX_WINDOWS: usize = 10;
const PER_WINDOW: usize = 1000;

pub fn windowed(d: &Drive) -> Windowed {
    let k = (d.latency_ms.len() / PER_WINDOW).clamp(1, MAX_WINDOWS);
    let width = d.window_s / k as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); k];
    for (&at, &ms) in d.sent_s.iter().zip(&d.latency_ms) {
        buckets[((at / width) as usize).min(k - 1)].push(ms);
    }
    let over = |f: &dyn Fn(&[f64]) -> f64| {
        crate::stats::median(&buckets.iter().map(|b| f(b)).collect::<Vec<_>>())
    };
    Windowed {
        p50: over(&|b| percentile(b, 0.50)),
        p90: over(&|b| percentile(b, 0.90)),
        p99: over(&|b| percentile(b, 0.99)),
        throughput: if d.completion_span_s > 0.0 {
            d.latency_ms.len() as f64 / d.completion_span_s
        } else {
            over(&|b| b.len() as f64 / width.max(f64::MIN_POSITIVE))
        },
    }
}

/// The gated typical latency: the geometric mean, over requests, of the
/// median latency of each request's class. A class median sits inside
/// one latency band, so unlike an overall percentile it has no cliff
/// where the bands of a mixed workload meet, and a rare stall does not
/// move it (see README.md).
pub fn p50_geomean(d: &Drive) -> f64 {
    let n = d.latency_ms.len().max(1) as f64;
    let log_sum: f64 = d
        .class_ms
        .values()
        .map(|ms| ms.len() as f64 * crate::stats::median(ms).ln())
        .sum();
    (log_sum / n).exp()
}
