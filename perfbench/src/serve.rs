//! The `serve` workload: an in-process `Server::start` with one worker
//! per core and the journal on, driven by closed-loop `run_loadgen`
//! batches with one client per core, mixed request kinds and engines,
//! over a small Twitter-like corpus. One op is one request; one unit is
//! one loadgen batch. The workload records no spans: its per-layer
//! metrics come from the daemon's counters, the loadgen report and the
//! journal size, so a traced run has no tracing overhead to measure.
//!
//! The loadgen reports latency only as a summary, so the benchmark puts
//! a byte-forwarding relay between the loadgen and the daemon and times
//! every connection (one request attempt) from accept to the daemon
//! closing it.

use crate::generate::mix;
use crate::measure::Digest;
use crate::trace::Trace;
use crate::{timed_phase, Metric, Opts, Phase, SetupLayers, Stop, Workload};
use betze::engines::CancelToken;
use betze::serve::{run_loadgen, LoadgenConfig, ServeConfig, Server, ServerHandle, StatsSnapshot};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Documents per request corpus: below the generator's 2 000-document
/// re-analysis sample, and small enough that one request is a few
/// hundred milliseconds.
pub const SERVE_DOCS: usize = 200;
/// Requests per loadgen batch, per client thread.
const REQUESTS_PER_CLIENT: usize = 8;
/// Socket timeout for one call.
const CALL_TIMEOUT: Duration = Duration::from_secs(60);

/// The workload state: the daemon, the relay in front of it, and the
/// journal.
pub struct Serve {
    server: ServerHandle,
    relay: Relay,
    journal: PathBuf,
    data_seed: u64,
}

impl Workload for Serve {
    const MIN_UNITS: u64 = 1;
    const SPANS: bool = false;

    fn setup(opts: &Opts, _layers: &mut SetupLayers) -> Result<Self, String> {
        let journal = opts.work.join("serve.journal");
        if journal.exists() {
            std::fs::remove_file(&journal)
                .map_err(|e| format!("removing {}: {e}", journal.display()))?;
        }
        let config = ServeConfig {
            workers: opts.threads,
            journal: Some(journal.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config, CancelToken::new())
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let relay = Relay::start(server.addr()).map_err(|e| format!("starting the relay: {e}"))?;
        let serve = Serve {
            server,
            relay,
            journal,
            data_seed: mix(opts.seed, 3),
        };
        // Warm the daemon with one batch of the request mix: the first
        // request over the corpus synthesizes and analyzes it into the
        // corpus cache. A batch rather than a single request, so that the
        // set-up time does not hinge on the cost of one seed's session.
        let warm = run_loadgen(&serve.loadgen(opts, mix(opts.seed, 5_000)));
        if warm.exhausted > 0
            || warm
                .results
                .iter()
                .any(|r| r.result_json.starts_with("error:"))
        {
            serve.teardown()?;
            return Err("a warm-up request failed".to_owned());
        }
        Ok(serve)
    }

    /// Batch `n` draws its requests from the seed and `n`. The runner
    /// never repeats a batch within a run (the workload records no
    /// spans, so it has no traced rerun), and request ids never repeat.
    fn measure(
        &mut self,
        opts: &Opts,
        _trace: &Trace,
        from: u64,
        stop: Stop,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let before = self.server.stats();
        let journal_before = self.journal_len()?;
        self.relay.take_latencies();
        let mut retries = 0u64;
        let mut digest = Digest::default();
        timed_phase(&mut phase, |phase| {
            let started = Instant::now();
            while !stop.reached(phase.units, started) {
                let batch = from + phase.units;
                phase.units += 1;
                let config = self.loadgen(opts, mix(opts.seed, 10_000 + batch));
                let report = run_loadgen(&config);
                let errors = report
                    .results
                    .iter()
                    .filter(|r| r.result_json.starts_with("error:"))
                    .count();
                let unresolved = (config.sessions - report.results.len()) + errors;
                phase.attempted += config.sessions as u64;
                phase.failed += unresolved as u64;
                retries += report.retries;
                if unresolved > 0 {
                    phase.mismatches.push(format!(
                        "batch {batch}: {unresolved} of {} requests resolved without a result",
                        config.sessions
                    ));
                }
                if batch == 0 {
                    digest.update_u64(report.fingerprint());
                }
            }
            Ok(())
        })?;
        phase.latencies_ms = self
            .relay
            .take_latencies()
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let after = self.server.stats();
        if after.failed > before.failed {
            phase.mismatches.push(format!(
                "the daemon counted {} failed requests",
                after.failed - before.failed
            ));
        }
        phase.digests.push(("loadgen", digest.value()));
        let journal_bytes = self.journal_len()? - journal_before;
        phase.layers = layers(&before, &after, retries, journal_bytes);
        Ok(phase)
    }

    fn teardown(self) -> Result<(), String> {
        self.relay.stop();
        self.server.drain();
        let report = self.server.join();
        if report.stats.failed > 0 {
            return Err(format!(
                "the daemon drained with {} failed requests",
                report.stats.failed
            ));
        }
        std::fs::remove_file(&self.journal)
            .map_err(|e| format!("removing {}: {e}", self.journal.display()))
    }
}

impl Serve {
    /// One closed-loop batch through the relay: the loadgen's mixed
    /// request kinds and engines, one client per core.
    fn loadgen(&self, opts: &Opts, seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            addr: self.relay.addr,
            sessions: REQUESTS_PER_CLIENT * opts.threads,
            concurrency: opts.threads,
            seed,
            corpus: "twitter".to_owned(),
            docs: SERVE_DOCS,
            data_seed: self.data_seed,
            engine: "mix".to_owned(),
            mixed_kinds: true,
            call_timeout: CALL_TIMEOUT,
            ..LoadgenConfig::default()
        }
    }

    fn journal_len(&self) -> Result<u64, String> {
        std::fs::metadata(&self.journal)
            .map(|m| m.len())
            .map_err(|e| format!("reading {}: {e}", self.journal.display()))
    }
}

fn layers(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    retries: u64,
    journal: u64,
) -> Vec<Metric> {
    let executed = after.executed - before.executed;
    vec![
        Metric::new("serve.executed", executed as f64, "count"),
        Metric::new("serve.shed", (after.shed - before.shed) as f64, "count"),
        Metric::new(
            "serve.failed",
            (after.failed - before.failed) as f64,
            "count",
        ),
        Metric::new("serve.client_retries", retries as f64, "count"),
        Metric::new(
            "serve.journal_bytes_per_req",
            journal as f64 / executed.max(1) as f64,
            "B/req",
        ),
    ]
}

/// A TCP relay that times each connection it forwards.
struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    /// Connections accepted so far.
    accepted: Arc<AtomicUsize>,
    /// Latencies of finished connections, and how many have finished.
    finished: Arc<Mutex<(Vec<Duration>, usize)>>,
}

impl Relay {
    fn start(upstream: SocketAddr) -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(Mutex::new((Vec::new(), 0)));
        let accept = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                let mut connections = Vec::new();
                for client in listener.incoming() {
                    let started = Instant::now();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { continue };
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let finished = Arc::clone(&finished);
                    connections.push(std::thread::spawn(move || {
                        let elapsed = forward(client, upstream, started);
                        let mut finished = finished.lock().expect("relay latencies poisoned");
                        if let Ok(elapsed) = elapsed {
                            finished.0.push(elapsed);
                        }
                        finished.1 += 1;
                    }));
                }
                for c in connections {
                    c.join().expect("relay connection thread panicked");
                }
            })
        };
        Ok(Relay {
            addr,
            stop,
            accept,
            accepted,
            finished,
        })
    }

    /// Waits until every accepted connection has finished, then takes
    /// the latencies recorded so far.
    fn take_latencies(&self) -> Vec<Duration> {
        loop {
            let mut finished = self.finished.lock().expect("relay latencies poisoned");
            if finished.1 == self.accepted.load(Ordering::SeqCst) {
                return std::mem::take(&mut finished.0);
            }
            drop(finished);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops accepting and joins every relay thread.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = TcpStream::connect(self.addr);
        self.accept.join().expect("relay accept thread panicked");
    }
}

/// Forwards one connection both ways; returns the time from accept to
/// the daemon closing its side.
fn forward(client: TcpStream, upstream: SocketAddr, started: Instant) -> io::Result<Duration> {
    let server = TcpStream::connect(upstream)?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let mut client_read = client.try_clone()?;
    let mut server_write = server.try_clone()?;
    let upstream_copy = std::thread::spawn(move || {
        let _ = io::copy(&mut client_read, &mut server_write);
        let _ = server_write.shutdown(Shutdown::Write);
    });
    let (mut server_read, mut client_write) = (server, client);
    let copied = io::copy(&mut server_read, &mut client_write);
    let elapsed = started.elapsed();
    let _ = client_write.shutdown(Shutdown::Both);
    upstream_copy.join().expect("relay copy thread panicked");
    copied.map(|_| elapsed)
}
