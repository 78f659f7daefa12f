//! serve-closed: two closed-loop clients against an in-process
//! `Server` on loopback TCP with an on-disk cache.
//!
//! The seed picks a pool of small scenarios spread over the five
//! systems and several workload kinds, and each client's request order.
//! Set-up warms the pool; after that three requests in four repeat a
//! pooled scenario (a cache read) and one in four is fresh (an engine run
//! plus a cache write).

use crate::stats::Rng;
use crate::trace::Tracer;
use corescope_kernels::blas::BlasVariant;
use corescope_kernels::stream::StreamKernel;
use corescope_sched::json::{self, Value};
use corescope_sched::{ResultCache, Scenario, ScenarioResult, Scheduler, ServeConfig, Server};
use corescope_sched::{System, Workload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Distinct scenarios in the pool.
pub const POOL: usize = 24;
/// Closed-loop clients (one connection each).
pub const CLIENTS: usize = 2;
/// Requests each client sends per round; a round is the unit `wall_s`
/// times.
pub const PER_ROUND: usize = 16;
/// Server worker threads.
const JOBS: usize = 2;

/// One request of a client's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The scenario sent.
    pub scenario: Scenario,
    /// Whether it repeats a pooled scenario (else it is fresh).
    pub pooled: bool,
}

/// Workload kinds in the pool. The pool holds all but one of the
/// system × kind pairs, so its cost barely depends on the seed.
const KINDS: usize = 5;

/// A small scenario of kind `kind` (below [`KINDS`]) on `system`. The
/// seed varies only sizes that leave the event count alone; `unique`
/// (fresh requests, always BSP) makes the payload bytes an exact integer
/// no other request shares.
fn small_scenario(rng: &mut Rng, system: System, kind: usize, unique: Option<u64>) -> Scenario {
    let nranks = if system == System::Tiger { 2 } else { 4 };
    let workload = match kind {
        0 => Workload::Bsp {
            steps: 4,
            flops_per_step: rng.range(1e5, 1e6),
            bytes_per_step: unique.map_or_else(|| rng.range(1e5, 9e5), |n| 1e6 + n as f64),
            sync_bytes: 8.0,
        },
        1 => Workload::StreamStar {
            kernel: StreamKernel::Triad,
            elements_per_rank: 10_000 + rng.below(90_000),
            sweeps: 1,
        },
        2 => Workload::PingPong { bytes: rng.range(1e3, 1e5), reps: 4 },
        3 => Workload::DgemmStar { n: 64 + rng.below(192), reps: 1, variant: BlasVariant::Acml },
        _ => Workload::RandomAccessStar {
            table_words_per_rank: 1 << 16,
            updates_per_rank: 4096 + rng.below(4096) as u64,
        },
    };
    Scenario::new(system, nranks, workload)
}

/// The seed's pool: a seeded choice of [`POOL`] distinct system × kind
/// pairs, each with seeded sizes.
pub fn pool(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::new(seed, 0);
    let mut pairs: Vec<(System, usize)> =
        System::all().into_iter().flat_map(|s| (0..KINDS).map(move |k| (s, k))).collect();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.below(i + 1));
    }
    pairs.truncate(POOL);
    pairs.into_iter().map(|(system, kind)| small_scenario(&mut rng, system, kind, None)).collect()
}

/// A client's deterministic request stream.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    client: u64,
    sent: u64,
}

impl Stream {
    /// The stream of `client` under `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        Self { rng: Rng::new(seed, 1 + client as u64), client: client as u64, sent: 0 }
    }

    /// The next request: a pooled repeat three times in four, else fresh.
    pub fn next(&mut self, pool: &[Scenario]) -> Request {
        self.sent += 1;
        if self.rng.below(4) == 0 {
            let unique = self.client << 32 | self.sent;
            let system = System::all()[self.rng.below(5)];
            let scenario = small_scenario(&mut self.rng, system, 0, Some(unique));
            Request { scenario, pooled: false }
        } else {
            Request { scenario: pool[self.rng.below(pool.len())].clone(), pooled: true }
        }
    }
}

/// What one request saw.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request.
    pub request: Request,
    /// Send to reply, ms.
    pub ttr_ms: f64,
    /// The server's `batch_ms` for the batch that answered it.
    pub batch_ms: f64,
    /// Cache tier the server reported.
    pub tier: String,
    /// The result echoed, if the reply was a well-formed `ok` line for
    /// this request's digest.
    pub result: Option<ScenarioResult>,
}

/// A closed-loop measurement.
#[derive(Debug)]
pub struct Outcome {
    /// Median-able set-up times (server start plus pool warm), s.
    pub setup_s: Vec<f64>,
    /// Time of each round of `CLIENTS * PER_ROUND` requests, s.
    pub rounds_s: Vec<f64>,
    /// Every request, in completion order per client.
    pub samples: Vec<Sample>,
    /// Problems found by the protocol checks (warm replies, trailing
    /// lines, I/O errors).
    pub protocol_errors: Vec<String>,
}

/// Runs `setups` set-ups (the last one serves the measurement), then
/// closed-loop rounds until `seconds` have passed and at least
/// `min_requests` have completed.
pub fn run(
    seed: u64,
    seconds: f64,
    min_requests: usize,
    setups: usize,
    scratch: &Path,
    tracer: &Tracer,
) -> Outcome {
    let pool = pool(seed);
    let mut outcome = Outcome {
        setup_s: Vec::new(),
        rounds_s: Vec::new(),
        samples: Vec::new(),
        protocol_errors: Vec::new(),
    };
    for k in 0..setups.max(1) {
        let dir = scratch.join(format!("serve-cache-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let sched = Scheduler::with_cache(JOBS, ResultCache::on_disk(&dir));
        let server = Server::new(Arc::new(sched), ServeConfig::default());
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(listener) => listener,
            Err(e) => {
                outcome.protocol_errors.push(format!("bind: {e}"));
                return outcome;
            }
        };
        let addr = listener.local_addr().expect("bound listener has an address");
        // Connected before the listener starts polling, the warm-up client
        // is accepted at once instead of after one of its 25 ms sleeps.
        let warm_client = connect(addr);
        std::thread::scope(|scope| {
            let listening = scope.spawn(|| server.listen(listener));
            match warm_client.map_err(|e| e.to_string()).and_then(|c| warm(c, &pool)) {
                Ok(()) => {
                    outcome.setup_s.push(started.elapsed().as_secs_f64());
                    if k + 1 == setups.max(1) {
                        closed_loop(addr, seed, &pool, seconds, min_requests, tracer, &mut outcome);
                    }
                }
                Err(e) => outcome.protocol_errors.push(format!("warm: {e}")),
            }
            server.request_shutdown();
            match listening.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => outcome.protocol_errors.push(format!("listen: {e}")),
                Err(_) => outcome.protocol_errors.push("listener panicked".to_string()),
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome
}

/// Sends the whole pool on one connection and checks every reply.
fn warm(
    (mut reader, mut writer): (BufReader<TcpStream>, TcpStream),
    pool: &[Scenario],
) -> Result<(), String> {
    let body: String = pool.iter().map(|s| s.to_json() + "\n").collect();
    writer.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
    writer.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
    for s in pool {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let reply = parse_reply(&line, s).ok_or(format!("bad warm reply: {}", line.trim()))?;
        if reply.1 != "miss" {
            return Err(format!("warm request answered from '{}', expected a miss", reply.1));
        }
    }
    Ok(())
}

/// Parses an `ok` reply for `sent`: (batch_ms, tier, result). `None`
/// when the line is not a well-formed `ok` reply echoing its digest.
fn parse_reply(line: &str, sent: &Scenario) -> Option<(f64, String, ScenarioResult)> {
    let v = json::parse(line.trim()).ok()?;
    if v.get("ok") != Some(&Value::Bool(true))
        || v.get("digest").and_then(Value::as_str) != Some(&sent.digest().hex())
    {
        return None;
    }
    let batch_ms = v.get("batch_ms").and_then(Value::as_f64)?;
    let tier = v.get("cache").and_then(Value::as_str)?.to_string();
    let result = ScenarioResult::from_json(v.get("result")?).ok()?;
    Some((batch_ms, tier, result))
}

fn connect(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A lost reply fails the request instead of hanging the run.
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    pool: &[Scenario],
    seconds: f64,
    min_requests: usize,
    tracer: &Tracer,
    outcome: &mut Outcome,
) {
    let mut connections = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        match connect(addr) {
            Ok(pair) => connections.push(pair),
            Err(e) => {
                outcome.protocol_errors.push(format!("client {client} connect: {e}"));
                return;
            }
        }
    }
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let shared = Mutex::new(outcome);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (client, (mut reader, mut writer)) in connections.into_iter().enumerate() {
            let (barrier, stop, shared) = (&barrier, &stop, &shared);
            scope.spawn(move || {
                let mut errors = Vec::new();
                let mut samples = Vec::new();
                let mut rounds = Vec::new();
                let mut stream = Stream::new(seed, client);
                for round in 0.. {
                    barrier.wait();
                    let round_start = Instant::now();
                    for i in 0..PER_ROUND {
                        let request = stream.next(pool);
                        let key = format!("c{client}-r{round}-{i}");
                        let line = request.scenario.to_json() + "\n";
                        let t = Instant::now();
                        let reply = tracer.span("request", None, key.clone(), |id| {
                            let mut reply = String::new();
                            writer.write_all(line.as_bytes())?;
                            reader.read_line(&mut reply)?;
                            let parsed = parse_reply(&reply, &request.scenario);
                            let batch_ms = parsed.as_ref().map_or(0.0, |p| p.0);
                            tracer.record("server-batch", id, key, batch_ms / 1e3);
                            Ok::<_, std::io::Error>(parsed)
                        });
                        let ttr_ms = t.elapsed().as_secs_f64() * 1e3;
                        let (batch_ms, tier, result) = match reply {
                            Ok(Some((batch_ms, tier, result))) => (batch_ms, tier, Some(result)),
                            Ok(None) => (0.0, String::new(), None),
                            Err(e) => {
                                errors.push(format!("client {client}: {e}"));
                                (0.0, String::new(), None)
                            }
                        };
                        samples.push(Sample { request, ttr_ms, batch_ms, tier, result });
                    }
                    if barrier.wait().is_leader() {
                        rounds.push(round_start.elapsed().as_secs_f64());
                        let done = CLIENTS * PER_ROUND * (round + 1);
                        if started.elapsed().as_secs_f64() >= seconds && done >= min_requests {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                // Exactly one reply per request: nothing may follow.
                let _ = writer.shutdown(Shutdown::Write);
                let mut trailing = String::new();
                match reader.read_line(&mut trailing) {
                    Ok(0) => {}
                    Ok(_) => errors.push(format!("client {client}: unrequested line {trailing:?}")),
                    Err(e) => errors.push(format!("client {client}: {e}")),
                }
                let mut outcome = shared.lock().expect("client results poisoned");
                outcome.samples.extend(samples);
                outcome.rounds_s.extend(rounds);
                outcome.protocol_errors.extend(errors);
            });
        }
    });
}

/// Checks every sample: a well-formed `ok` reply for its own digest, a
/// cache tier matching pooled/fresh, and a result equal to a direct
/// `Scenario::run`. Returns one verdict per sample.
pub fn check(samples: &[Sample]) -> Vec<bool> {
    let mut direct: HashMap<u128, Option<ScenarioResult>> = HashMap::new();
    samples
        .iter()
        .map(|s| {
            let digest = s.request.scenario.digest().0;
            let expected =
                direct.entry(digest).or_insert_with(|| s.request.scenario.run().ok()).clone();
            let tier_ok = if s.request.pooled {
                s.tier == "memory" || s.tier == "disk"
            } else {
                s.tier == "miss"
            };
            tier_ok && s.result.is_some() && s.result == expected
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_and_streams_are_determined_by_the_seed() {
        assert_eq!(pool(11), pool(11));
        assert_ne!(pool(11), pool(12));
        let p = pool(11);
        let take = |seed, client| {
            let mut s = Stream::new(seed, client);
            (0..64).map(|_| s.next(&p)).collect::<Vec<_>>()
        };
        assert_eq!(take(11, 0), take(11, 0));
        assert_ne!(take(11, 0), take(11, 1));
        assert_ne!(take(11, 0), take(12, 0));
    }

    #[test]
    fn the_pool_spans_systems_and_kinds_and_fresh_requests_never_repeat() {
        let p = pool(3);
        let mut digests: Vec<u128> = p.iter().map(|s| s.digest().0).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), POOL);
        let systems: std::collections::HashSet<_> = p.iter().map(|s| s.system).collect();
        let kinds: std::collections::HashSet<_> = p.iter().map(|s| s.workload.kind()).collect();
        assert_eq!((systems.len(), kinds.len()), (5, KINDS), "{systems:?} {kinds:?}");

        let mut fresh = std::collections::HashSet::new();
        let mut pooled = 0;
        for client in 0..CLIENTS {
            let mut s = Stream::new(3, client);
            for _ in 0..400 {
                let r = s.next(&p);
                if r.pooled {
                    pooled += 1;
                } else {
                    assert!(fresh.insert(r.scenario.digest().0), "fresh request repeated");
                    assert!(!digests.contains(&r.scenario.digest().0));
                }
            }
        }
        assert!((550..650).contains(&pooled), "about 3 in 4 pooled, got {pooled} of 800");
    }

    #[test]
    fn every_pool_scenario_runs() {
        for s in pool(5) {
            s.run().unwrap_or_else(|e| panic!("{}: {e}", s.to_json()));
        }
    }
}
