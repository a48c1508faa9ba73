//! `serve_city`: the `traclus-server` daemon on loopback, driven by one
//! closed-loop client connection. The data is a constant-density city
//! tiled from `generate_scene`, so the served state holds many clusters.
//! Set-up ingests most of the city and flushes; each timed round is one
//! write (`ingest`, wait for the ack, `flush`, wait for the reply — the
//! plain client sequence, never pipelined) followed by a fixed mix of
//! reads. There is no window.
//!
//! Stresses wire parse/encode, the request handler, publication of a
//! many-cluster state and snapshot queries; bypasses removal repair.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

use traclus_core::{Parallelism, Traclus, TraclusConfig};
use traclus_data::{generate_scene, SceneConfig};
use traclus_geom::{Aabb, Point2, Trajectory, TrajectoryId};
use traclus_json::JsonValue;
use traclus_server::{Request, Server, ServerConfig};

use crate::report::{Report, Timings};
use crate::stats::median;
use crate::sys::PhaseMeter;
use crate::trace::Tracer;
use crate::Args;

/// Workload size.
pub struct Scale {
    /// City tiles per side (the city is `side × side` scenes).
    pub side: usize,
    /// Reads after each write.
    pub reads_per_write: usize,
    /// Rounds per arm for each second of budget.
    pub rounds_per_second: f64,
    /// Fewest rounds per arm; a traced run needs 200 writes for the 95th
    /// percentile of write-to-visible time.
    pub min_rounds: usize,
    /// Set-ups timed (the median is reported).
    pub setups: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        side: 5,
        reads_per_write: 10,
        rounds_per_second: 25.0,
        min_rounds: 100,
        setups: 9,
    };

    /// A quick size for the benchmark's own tests.
    #[cfg(test)]
    pub const SMALL: Scale = Scale {
        side: 3,
        reads_per_write: 5,
        rounds_per_second: 0.0,
        min_rounds: 200,
        setups: 1,
    };
}

/// Distance between tile origins; a scene spans 400 units.
const TILE_PITCH: f64 = 450.0;

/// The pinned configuration: ε = 10 and MinLns 9 from the entropy
/// heuristic on a 16-tile city of the design seed (curve minimum at
/// ε = 10, avg |Nε| 6.7, `select_min_lns` 8..=10); every tile has the same
/// density whatever the city's size.
pub fn config(parallelism: Parallelism) -> TraclusConfig {
    TraclusConfig {
        eps: 10.0,
        min_lns: 9,
        parallelism,
        ..TraclusConfig::default()
    }
}

/// SplitMix64: derives per-tile seeds and the ingest order from the
/// workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The city in ingest order, trajectory `k` carrying id `k` (the id the
/// daemon assigns to the `k`-th ingest). Tiles are scenes with their own
/// seeds, translated onto a grid; the order is a seeded shuffle so every
/// stretch of ingests spreads over the whole city.
pub fn city(seed: u64, side: usize) -> Vec<Trajectory<2>> {
    let mut all = Vec::new();
    for tile in 0..side * side {
        let scene = generate_scene(&SceneConfig {
            seed: mix(seed ^ mix(tile as u64)),
            ..SceneConfig::default()
        });
        let (ox, oy) = (
            (tile % side) as f64 * TILE_PITCH,
            (tile / side) as f64 * TILE_PITCH,
        );
        for t in scene.trajectories {
            let points = t
                .points
                .iter()
                .map(|p| Point2::xy(p.x() + ox, p.y() + oy))
                .collect();
            all.push(points);
        }
    }
    let mut state = mix(seed);
    for i in (1..all.len()).rev() {
        state = mix(state);
        all.swap(i, (state % (i as u64 + 1)) as usize);
    }
    all.into_iter()
        .enumerate()
        .map(|(k, points)| Trajectory::new(TrajectoryId(k as u32), points))
        .collect()
}

fn ingest(t: &Trajectory<2>) -> Request {
    Request::Ingest {
        points: t.points.iter().map(|p| [p.x(), p.y()]).collect(),
        weight: None,
    }
}

/// A blocking line-protocol connection built from the public wire pieces
/// (`Request::to_line`, `JsonValue::parse`) so that encoding, the
/// round trip and parsing can be timed apart — the same steps
/// `traclus_server::Client::request` takes.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

/// One answered request.
struct Answer {
    value: JsonValue,
    request_bytes: usize,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    fn call(
        &mut self,
        request: &Request,
        name: &'static str,
        t: &mut Tracer,
    ) -> Result<Answer, String> {
        t.span(name, |t| {
            let line = t.span("json.encode", |_| request.to_line());
            t.span("wire", |t| -> Result<(), String> {
                let io = |e: std::io::Error| format!("{name}: {e}");
                self.writer.write_all(line.as_bytes()).map_err(io)?;
                self.writer.write_all(b"\n").map_err(io)?;
                self.writer.flush().map_err(io)?;
                self.line.clear();
                if self.reader.read_line(&mut self.line).map_err(io)? == 0 {
                    return Err(format!("{name}: the daemon closed the connection"));
                }
                if let Some(micros) = handler_micros(&self.line) {
                    t.reported("server.handler", micros * 1e-6);
                }
                Ok(())
            })?;
            let value = t
                .span("json.parse", |_| JsonValue::parse(self.line.trim_end()))
                .map_err(|e| format!("{name}: unparseable response: {e}"))?;
            if value.get("ok") != Some(&JsonValue::Bool(true)) {
                return Err(format!("{name}: not ok: {}", value.to_compact()));
            }
            Ok(Answer {
                value,
                request_bytes: line.len() + 1,
            })
        })
    }

    /// Sends every ingest before reading any answer — a bulk load — and
    /// checks that each was acknowledged.
    fn ingest_all(&mut self, trajectories: &[Trajectory<2>]) -> Result<(), String> {
        let io = |e: std::io::Error| format!("bulk ingest: {e}");
        for t in trajectories {
            self.writer
                .write_all(ingest(t).to_line().as_bytes())
                .map_err(io)?;
            self.writer.write_all(b"\n").map_err(io)?;
        }
        self.writer.flush().map_err(io)?;
        for t in trajectories {
            self.line.clear();
            if self.reader.read_line(&mut self.line).map_err(io)? == 0 {
                return Err("bulk ingest: the daemon closed the connection".to_string());
            }
            let ack = JsonValue::parse(self.line.trim_end())
                .map_err(|e| format!("bulk ingest: unparseable response: {e}"))?;
            if ack.get("trajectory").and_then(JsonValue::as_i64) != Some(i64::from(t.id.0)) {
                return Err(format!("bulk ingest: unexpected ack {}", ack.to_compact()));
            }
        }
        Ok(())
    }
}

/// The handler time the daemon appends as the last field of a response.
fn handler_micros(line: &str) -> Option<f64> {
    let at = line.rfind("\"micros\":")?;
    let digits: String = line[at + 9..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Response size without the two fields whose digits vary from run to
/// run (`micros`, and `epoch`, which counts publications).
fn stable_bytes(value: &JsonValue) -> usize {
    match value {
        JsonValue::Object(pairs) => {
            let kept: Vec<(String, JsonValue)> = pairs
                .iter()
                .filter(|(k, _)| k != "micros" && k != "epoch")
                .cloned()
                .collect();
            JsonValue::Object(kept).to_compact().len() + 1
        }
        other => other.to_compact().len() + 1,
    }
}

/// A running daemon and the benchmark's connection to it.
struct Daemon {
    conn: Conn,
    serving: JoinHandle<std::io::Result<()>>,
    root: &'static str,
    timings: Timings,
    first_epoch: Option<i64>,
    last_epoch: i64,
    read_bytes: Vec<f64>,
    write_bytes: Vec<f64>,
}

impl Daemon {
    fn start(
        cfg: TraclusConfig,
        warm: &[Trajectory<2>],
        root: &'static str,
    ) -> Result<Self, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                traclus: cfg,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        let addr = server.local_addr();
        let serving = std::thread::spawn(move || server.run());
        let mut daemon = Self {
            conn: Conn::open(addr)?,
            serving,
            root,
            timings: Timings::default(),
            first_epoch: None,
            last_epoch: 0,
            read_bytes: Vec::new(),
            write_bytes: Vec::new(),
        };
        daemon.conn.ingest_all(warm)?;
        daemon
            .conn
            .call(&Request::Flush, "flush", &mut Tracer::new(false))?;
        Ok(daemon)
    }

    fn stop(mut self) -> Result<(), String> {
        self.conn
            .call(&Request::Shutdown, "shutdown", &mut Tracer::new(false))?;
        drop(self.conn);
        match self.serving.join() {
            Ok(result) => result.map_err(|e| format!("daemon: {e}")),
            Err(_) => Err("the daemon thread panicked".to_string()),
        }
    }

    /// One timed round: a write, then the read mix. Returns the number of
    /// requests whose answers failed their check.
    fn round(
        &mut self,
        write: &Trajectory<2>,
        city: &[Trajectory<2>],
        ingested: usize,
        r: usize,
        scale: &Scale,
        t: &mut Tracer,
    ) -> Result<u64, String> {
        let started = crate::now();
        let conn = &mut self.conn;
        let timings = &mut self.timings;
        let first = timings.reads.len();
        // Answers are kept for sizing only when tracing, and sized after
        // the round's clock has stopped.
        let mut kept: Vec<(bool, Answer)> = Vec::new();
        let (bad, visible, epoch) = t.span(self.root, |t| -> Result<_, String> {
            t.set_op(u64::from(write.id.0));
            let handed_over = crate::now();
            let ack = conn.call(&ingest(write), "server.ingest", t)?;
            let flushed = conn.call(&Request::Flush, "server.flush", t)?;
            let visible = handed_over.elapsed().as_secs_f64();
            let id = ack.value.get("trajectory").and_then(JsonValue::as_i64);
            let mut bad = u64::from(id != Some(i64::from(write.id.0)));
            let epoch = flushed
                .value
                .get("epoch")
                .and_then(JsonValue::as_i64)
                .unwrap_or(-1);
            if t.on() {
                kept.extend([(true, ack), (true, flushed)]);
            }
            for q in 0..scale.reads_per_write {
                let probe = &city[(r * 31 + q * 7) % ingested];
                let (request, name) = read_request(r * scale.reads_per_write + q, probe);
                let read = crate::now();
                let answer = conn.call(&request, name, t)?;
                timings.reads.push(read.elapsed().as_secs_f64());
                bad += u64::from(!read_ok(name, &answer.value, ingested));
                if t.on() {
                    kept.push((false, answer));
                }
            }
            Ok((bad, visible, epoch))
        })?;
        self.timings.rounds.push(started.elapsed().as_secs_f64());
        self.timings.visible.push(visible);
        self.timings.close_reads(first);
        self.first_epoch.get_or_insert(epoch);
        self.last_epoch = epoch;
        let size = |a: &Answer| (a.request_bytes + stable_bytes(&a.value)) as f64;
        let written: f64 = kept.iter().filter(|k| k.0).map(|k| size(&k.1)).sum();
        if !kept.is_empty() {
            self.write_bytes.push(written);
        }
        self.read_bytes
            .extend(kept.iter().filter(|k| !k.0).map(|k| size(&k.1)));
        Ok(bad)
    }
}

/// The read mix, in rotation: each of the five read ops in turn.
const READ_MIX: [&str; 5] = [
    "server.stats",
    "server.representatives",
    "server.nearest",
    "server.membership",
    "server.region",
];

fn read_request(q: usize, probe: &Trajectory<2>) -> (Request, &'static str) {
    let name = READ_MIX[q % READ_MIX.len()];
    let request = match name {
        "server.stats" => Request::Stats,
        "server.representatives" => Request::Representatives,
        "server.nearest" => {
            let p = probe.points[probe.points.len() / 2];
            Request::Nearest {
                point: [p.x(), p.y()],
            }
        }
        "server.membership" => Request::Membership {
            trajectory: probe.id.0,
        },
        _ => {
            let b = Aabb::from_points(&probe.points);
            Request::Region {
                min: b.min,
                max: b.max,
            }
        }
    };
    (request, name)
}

/// Op-specific sanity of a read answer; `ingested` trajectories have been
/// flushed when it is asked.
fn read_ok(name: &str, value: &JsonValue, ingested: usize) -> bool {
    match name {
        "server.stats" => {
            value.get("trajectories").and_then(JsonValue::as_i64) == Some(ingested as i64)
        }
        "server.representatives" => value
            .get("clusters")
            .and_then(JsonValue::as_array)
            .is_some_and(|c| !c.is_empty()),
        "server.nearest" => value.get("cluster").and_then(JsonValue::as_i64).is_some(),
        _ => value
            .get("clusters")
            .and_then(JsonValue::as_array)
            .is_some(),
    }
}

/// Runs the workload.
pub fn run(args: &Args, scale: &Scale) -> Result<Report, String> {
    let mut report = Report::default();
    let second = if args.trace {
        (config(Parallelism::default()), "round.plain")
    } else {
        (config(Parallelism::Sequential), "round.seq")
    };
    let arms = [(config(Parallelism::default()), "round"), second];

    // Set-up: build the city, start the daemons and ingest most of it.
    let mut setup_times = Vec::new();
    let mut input = Vec::new();
    let mut daemons = Vec::new();
    let mut rounds = 0;
    for _ in 0..scale.setups {
        for d in daemons.drain(..) {
            Daemon::stop(d)?;
        }
        let started = crate::now();
        input = city(args.seed, scale.side);
        let floor = if args.trace { 200 } else { scale.min_rounds };
        rounds = ((args.seconds * scale.rounds_per_second).round() as usize)
            .max(floor)
            .min(input.len() / 3);
        let warm = &input[..input.len() - rounds];
        for (cfg, root) in arms {
            daemons.push(Daemon::start(cfg, warm, root)?);
        }
        setup_times.push(started.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup_times));
    // `ingest_all` checked every ack; a wrong one ends the run.
    report.tally(2 * (input.len() - rounds) as u64, 0, String::new);

    let mut traced = Tracer::new(args.trace);
    let mut plain = Tracer::new(false);
    let first = input.len() - rounds;
    let meter = PhaseMeter::start();
    for r in 0..rounds {
        let write = &input[first + r];
        let mut order: Vec<usize> = (0..daemons.len()).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for k in order {
            let tracer = if daemons[k].root == "round.plain" {
                &mut plain
            } else {
                &mut traced
            };
            let bad = daemons[k].round(write, &input, first + r + 1, r, scale, tracer)?;
            report.tally(2 + scale.reads_per_write as u64, bad, || {
                format!("round {r}: {bad} answers failed their check")
            });
        }
    }
    let usage = meter.stop();

    // The served state must equal a batch run over everything ingested.
    let batch = Traclus::new(config(Parallelism::Sequential)).run(&input);
    for d in &mut daemons {
        let stats = d
            .conn
            .call(&Request::Stats, "stats", &mut Tracer::new(false))?
            .value;
        let count = |k: &str| stats.get(k).and_then(JsonValue::as_i64);
        let expected = [
            ("trajectories", input.len()),
            ("segments", batch.database.len()),
            ("clusters", batch.clusters.len()),
        ];
        for (key, want) in expected {
            let got = count(key);
            report.tally(1, 0, String::new);
            report.check_state(got == Some(want as i64), || {
                format!("{}: final {key} {got:?}, batch run {want}", d.root)
            });
        }
    }

    report.end_to_end(&daemons[0].timings, &daemons[1].timings);
    report.phase_usage(&usage);

    if args.trace {
        let main = &daemons[0];
        report.held_back(&main.timings, &daemons[1].timings, &traced);
        for op in [
            "stats",
            "representatives",
            "nearest",
            "membership",
            "region",
            "flush",
            "ingest",
        ] {
            let span = format!("server.{op}");
            report.set(
                &format!("{span}_p50_us"),
                median(&traced.durations(&span)) * 1e6,
            );
        }
        let handler: f64 = traced.durations("server.handler").iter().sum();
        let rounds_total: f64 = traced.durations("round").iter().sum();
        report.set("server.handler_share", handler / rounds_total);
        report.set(
            "server.publishes_per_write",
            (main.last_epoch - main.first_epoch.unwrap_or(0)) as f64 / (rounds - 1).max(1) as f64,
        );
        report.set(
            "json.encode_ingest_us",
            median(&json_encode_times(&input[first..])) * 1e6,
        );
        report.set(
            "json.parse_reps_us",
            median(&json_parse_times(&traced)) * 1e6,
        );
        let (stall, stall_bytes) = midsize_reply_probe(args.seed)?;
        report.set("server.midsize_reply_p50_us", median(&stall) * 1e6);
        report.set("wire.midsize_reply_bytes", stall_bytes as f64);
        report.set("wire.bytes_per_read", mean(&main.read_bytes));
        report.set("wire.bytes_per_write", mean(&main.write_bytes));
        report.set(
            "partition.segs_per_traj",
            batch.database.len() as f64 / input.len() as f64,
        );
        report.set("cluster.clusters", batch.clusters.len() as f64);
        report.set("cluster.noise_frac", batch.clustering.noise_ratio());
        report.set("representative.clusters", batch.clusters.len() as f64);
        crate::trace::save(&traced, args)?;
    }
    for d in daemons {
        d.stop()?;
    }
    Ok(report)
}

/// Round trips of `representatives` against a daemon holding a 3 × 3
/// city. Its answer (about 44 KiB) is larger than the daemon's 8 KiB write
/// buffer but smaller than one loopback segment, the size at which the
/// daemon's two-write reply meets Nagle's algorithm and the client's
/// delayed ACK (about 40 ms a reply; see `README.md`). The workload's own
/// city is sized above that range, so the stall shows here and not in the
/// end-to-end figures. Returns the times and the answer's size in bytes.
fn midsize_reply_probe(seed: u64) -> Result<(Vec<f64>, usize), String> {
    const READS: usize = 20;
    let small = city(seed, 3);
    let mut daemon = Daemon::start(config(Parallelism::default()), &small, "probe")?;
    let mut times = Vec::with_capacity(READS);
    let mut bytes = 0;
    for _ in 0..READS {
        let started = crate::now();
        let answer = daemon.conn.call(
            &Request::Representatives,
            "representatives",
            &mut Tracer::new(false),
        )?;
        times.push(started.elapsed().as_secs_f64());
        bytes = stable_bytes(&answer.value);
    }
    daemon.stop()?;
    Ok((times, bytes))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// `Request::to_line` on each timed write's ingest payload.
fn json_encode_times(writes: &[Trajectory<2>]) -> Vec<f64> {
    writes
        .iter()
        .map(|t| {
            let request = ingest(t);
            let started = crate::now();
            std::hint::black_box(request.to_line());
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// Durations of the `json.parse` spans of representatives answers.
fn json_parse_times(traced: &Tracer) -> Vec<f64> {
    let spans = traced.spans();
    spans
        .iter()
        .filter(|s| {
            s.name == "json.parse"
                && s.parent
                    .is_some_and(|p| spans[p].name == "server.representatives")
        })
        .map(|s| s.duration())
        .collect()
}
