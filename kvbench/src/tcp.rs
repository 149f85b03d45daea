//! `tcp-ycsb-b`: a loopback `kvd-server` with 2 shard workers, driven
//! over the memcache text protocol.
//!
//! A cycle starts the server, preloads every key with `noreply` SETs and
//! syncs on `version` (timed as set-up), then runs two phases:
//!
//! 1. open loop: one connection at a fixed rate, evenly spaced; each
//!    operation is timed from the instant it was due to the end of its
//!    reply;
//! 2. closed loop: two connections, each keeping a fixed number of
//!    requests outstanding; reported as operations per second.
//!
//! Every reply is compared byte for byte with the reply the generator's
//! model predicts. Phase 2 splits keys between its connections by key id
//! parity, so each key's operations stay in one ordered stream and the
//! expected value is exact.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use kv_direct::sim::ServerCosts;
use kv_direct::workloads::{Dist, YcsbSpec, YcsbWorkload};
use kv_direct::{KvRequest, OpLedger};
use kvd_server::{proto, ServerConfig, ServerHandle};

use crate::layers::{self, ledger_metrics, op_span};
use crate::ops::{self, Kind, Model, Op};
use crate::report::{peak_rss_mb, set_latencies, Outcome, PCTS};
use crate::sched::{achieved_rate, Schedule};
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::Args;

/// Keys preloaded.
const N_KEYS: u64 = 100_000;
/// Bytes of client data per value.
const VALUE_LEN: usize = 64;
/// Phase 1 offered rate, operations per second. It keeps the server's
/// core about a quarter busy: at 50,000 ops/s the core is over half busy
/// and a slowdown of the shared host tips it into a growing queue.
const RATE: u64 = 20_000;
/// Phase 1 operations per cycle (2 s at the rate).
const PHASE1_OPS: usize = 40_000;
/// Phase 1 operations per latency window (0.5 s at the rate).
const WINDOW: usize = 10_000;
/// Phase 2 operations per cycle, over both connections.
const PHASE2_OPS: usize = 400_000;
/// Requests outstanding per phase 2 connection.
const DEPTH: usize = 32;
/// Cycles a run makes at least.
const MIN_CYCLES: usize = 3;
/// A reply that takes longer than this counts as dropped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Bytes of `flags | cas` the server keeps ahead of each value.
const VALUE_HEADER_LEN: usize = 12;

fn key_text(id: u64) -> String {
    format!("key:{id:07}")
}

/// Request frames and the exact replies they must get.
#[derive(Default)]
struct Stream {
    ops: Vec<Op>,
    req: Vec<u8>,
    req_end: Vec<usize>,
    rep: Vec<u8>,
    rep_end: Vec<usize>,
}

impl Stream {
    fn push(&mut self, op: Op) {
        let key = key_text(op.id);
        match op.kind {
            Kind::Get => {
                write!(self.req, "get {key}\r\n").expect("writing to a Vec");
                let data = ops::value(op.id, op.version, VALUE_LEN);
                write!(self.rep, "VALUE {key} 0 {VALUE_LEN}\r\n").expect("writing to a Vec");
                self.rep.extend_from_slice(&data);
                self.rep.extend_from_slice(b"\r\nEND\r\n");
            }
            Kind::Set => {
                push_set(&mut self.req, &op, false);
                self.rep.extend_from_slice(b"STORED\r\n");
            }
        }
        self.ops.push(op);
        self.req_end.push(self.req.len());
        self.rep_end.push(self.rep.len());
    }

    fn frames(&self, from: usize, to: usize) -> &[u8] {
        let a = if from == 0 { 0 } else { self.req_end[from - 1] };
        &self.req[a..self.req_end[to - 1]]
    }

    fn len(&self) -> usize {
        self.ops.len()
    }
}

fn push_set(out: &mut Vec<u8>, op: &Op, noreply: bool) {
    let nr = if noreply { " noreply" } else { "" };
    write!(out, "set {} 0 0 {VALUE_LEN}{nr}\r\n", key_text(op.id)).expect("writing to a Vec");
    out.extend_from_slice(&ops::value(op.id, op.version, VALUE_LEN));
    out.extend_from_slice(b"\r\n");
}

/// All inputs of a run.
struct Inputs {
    preload: Vec<u8>,
    phase1: Stream,
    phase2: [Stream; 2],
    gen_ns_per_op: f64,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let t0 = Instant::now();
        let mut preload = Vec::new();
        for id in 0..N_KEYS {
            let op = Op {
                id,
                kind: Kind::Set,
                version: 0,
            };
            push_set(&mut preload, &op, true);
        }
        preload.extend_from_slice(b"version\r\n");
        let mut w = YcsbWorkload::new(YcsbSpec {
            n_keys: N_KEYS,
            kv_size: (VALUE_LEN + 8) as u64,
            put_ratio: 0.05,
            dist: Dist::long_tail(),
            seed,
        });
        let mut model = Model::preloaded(N_KEYS);
        let mut phase1 = Stream::default();
        for op in model.versioned(&w.key_trace(PHASE1_OPS)) {
            phase1.push(op);
        }
        let mut phase2 = [Stream::default(), Stream::default()];
        for op in model.versioned(&w.key_trace(PHASE2_OPS)) {
            phase2[(op.id % 2) as usize].push(op);
        }
        let n = N_KEYS as usize + PHASE1_OPS + PHASE2_OPS;
        Inputs {
            preload,
            phase1,
            phase2,
            gen_ns_per_op: t0.elapsed().as_nanos() as f64 / n as f64,
        }
    }
}

fn connect(h: &ServerHandle) -> io::Result<TcpStream> {
    let c = TcpStream::connect(h.local_addr())?;
    c.set_nodelay(true)?;
    c.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(c)
}

/// Reads replies for `s.ops[..n]` in order, comparing every byte with the
/// expected stream. `on_reply(i, t)` runs as reply `i` completes at `t`;
/// `on_read(done)` runs after each read with the count of completed
/// replies. Returns the operations whose replies were wrong or missing;
/// after the first wrong byte the stream cannot be realigned, so every
/// later operation counts as failed too.
fn read_replies(
    conn: &mut TcpStream,
    s: &Stream,
    n: usize,
    mut on_reply: impl FnMut(usize, Instant),
    mut on_read: impl FnMut(usize),
) -> u64 {
    let end = s.rep_end[n - 1];
    let mut buf = vec![0u8; 1 << 16];
    let (mut got, mut i) = (0usize, 0usize);
    while i < n {
        let k = match conn.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(k) => k,
        };
        let now = Instant::now();
        if got + k > end || buf[..k] != s.rep[got..got + k] {
            break;
        }
        got += k;
        while i < n && s.rep_end[i] <= got {
            on_reply(i, now);
            i += 1;
        }
        on_read(i);
    }
    (n - i) as u64
}

/// Phase 1 timestamps, ns after the schedule start.
#[derive(Default)]
struct OpenLoop {
    send_ns: Vec<u64>,
    reply_ns: Vec<u64>,
    failed: u64,
}

fn open_loop(conn: &mut TcpStream, s: &Stream) -> io::Result<OpenLoop> {
    let n = s.len();
    let mut writer = conn.try_clone()?;
    let sched = Schedule::new(Instant::now() + Duration::from_millis(1), RATE);
    let start = sched.due(0);
    let mut out = OpenLoop {
        reply_ns: vec![0; n],
        ..Default::default()
    };
    thread::scope(|sc| {
        let sender = sc.spawn(move || {
            let mut sends = Vec::with_capacity(n);
            for i in 0..n {
                let now = sched.wait_for(i);
                sends.push(now.duration_since(start).as_nanos() as u64);
                if writer.write_all(s.frames(i, i + 1)).is_err() {
                    break;
                }
            }
            sends
        });
        let reply_ns = &mut out.reply_ns;
        out.failed = read_replies(
            conn,
            s,
            n,
            |i, t| reply_ns[i] = t.duration_since(start).as_nanos() as u64,
            |_| {},
        );
        out.send_ns = sender.join().expect("phase 1 sender panicked");
    });
    Ok(out)
}

/// One connection of phase 2: keeps `DEPTH` requests outstanding until
/// the stream is done. Returns failed operations.
fn closed_loop(conn: &mut TcpStream, s: &Stream) -> u64 {
    let n = s.len();
    let mut sent = DEPTH.min(n);
    if conn.write_all(s.frames(0, sent)).is_err() {
        return n as u64;
    }
    let mut writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return n as u64,
    };
    read_replies(
        conn,
        s,
        n,
        |_, _| {},
        |done| {
            let want = (done + DEPTH).min(n);
            if want > sent && writer.write_all(s.frames(sent, want)).is_ok() {
                sent = want;
            }
        },
    )
}

/// What one cycle measured.
struct Cycle {
    setup_s: f64,
    open: OpenLoop,
    closed_s: f64,
    failed: u64,
    ledger: OpLedger,
    server: ServerCosts,
}

fn run_cycle(inp: &Inputs, pinned: bool) -> io::Result<Cycle> {
    let t0 = Instant::now();
    let handle = thread::scope(|sc| {
        sc.spawn(|| {
            if pinned {
                crate::sched::pin_to_cpu(1);
            }
            kvd_server::serve("127.0.0.1:0", ServerConfig::loopback(2))
        })
        .join()
        .expect("server start panicked")
    })?;
    let mut a = connect(&handle)?;
    let mut b = connect(&handle)?;
    a.write_all(&inp.preload)?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while !line.ends_with(b"\r\n") {
        a.read_exact(&mut byte)?;
        line.push(byte[0]);
    }
    if !line.starts_with(b"VERSION ") {
        return Err(io::Error::other("preload did not sync on version"));
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let before = handle.ledger();

    let open = open_loop(&mut a, &inp.phase1)?;

    let barrier = Barrier::new(2);
    let (s0, s1) = (&inp.phase2[0], &inp.phase2[1]);
    let (closed_s, failed2) = thread::scope(|sc| {
        let other = sc.spawn(|| {
            barrier.wait();
            closed_loop(&mut b, s1)
        });
        barrier.wait();
        let t = Instant::now();
        let f0 = closed_loop(&mut a, s0);
        let f1 = other.join().expect("phase 2 connection panicked");
        (t.elapsed().as_secs_f64(), f0 + f1)
    });

    // Shard ledgers are live, so the data plane's delta covers both
    // phases. Connections publish their protocol counters only when idle
    // or closing, so those come from the final ledger and cover the
    // whole cycle, preload included.
    let ledger = handle.ledger().since(&before);
    drop((a, b));
    let server = handle.stop().server;
    Ok(Cycle {
        setup_s,
        failed: open.failed + failed2,
        open,
        closed_s,
        ledger,
        server,
    })
}

/// Runs `tcp-ycsb-b` for `args.seconds`.
pub fn run(args: &Args) -> Outcome {
    let inp = Inputs::generate(args.seed);
    let mut out = Outcome::default();
    // Client and server each get a core of their own: the load
    // generator's threads run on CPU 0, every server thread on CPU 1.
    let pinned = args.nproc >= 2 && crate::sched::pin_to_cpu(0);
    out.note("tcp.client_server_pinned", pinned, "");
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut cycles: Vec<(Cycle, bool)> = Vec::new();
    let mut broken = 0u64;
    while cycles.len() < MIN_CYCLES || start.elapsed() < budget {
        let traced = args.trace && cycles.len() % 2 == 1;
        let cycle = run_cycle(&inp, pinned);
        if cycles.is_empty() {
            // One server's lifetime: later cycles add only allocator
            // fragmentation from rebuilding the store.
            out.e2e.set("peak_rss_mb", peak_rss_mb());
        }
        match cycle {
            Ok(c) => cycles.push((c, traced)),
            Err(e) => {
                // Every operation of a cycle that could not finish counts
                // as failed.
                out.problems.push(format!("cycle failed: {e}"));
                broken = 1;
                break;
            }
        }
    }
    let per_cycle = (PHASE1_OPS + PHASE2_OPS) as u64;
    out.attempted = per_cycle * (cycles.len() as u64 + broken);
    out.failed = cycles.iter().map(|c| c.0.failed).sum::<u64>() + per_cycle * broken;
    if cycles.is_empty() {
        return out;
    }

    let s = &inp.phase1;
    for (c, _) in &cycles {
        let errors = c.server.server_errors + c.server.protocol_errors;
        if errors != 0 {
            out.problems
                .push(format!("server counted {errors} error replies"));
        }
        let got = achieved_rate(&c.open.send_ns).unwrap_or(0.0);
        if (got / RATE as f64 - 1.0).abs() > 0.01 {
            out.problems.push(format!(
                "offered {got:.0} ops/s, target {RATE} (more than 1% off)"
            ));
        }
    }
    let plain: Vec<&Cycle> = cycles.iter().filter(|c| !c.1).map(|c| &c.0).collect();
    let lat = latencies(s, &plain);
    let e = &mut out.e2e;
    e.set(
        "setup_s",
        median(&cycles.iter().map(|c| c.0.setup_s).collect::<Vec<_>>()),
    );
    let closed = median(&plain.iter().map(|c| c.closed_s).collect::<Vec<_>>());
    e.set("ops_per_s", PHASE2_OPS as f64 / closed);
    e.set("sim_mops", sim_mops(&inp, args.seed));
    set_latencies(&mut out, lat.windowed);
    out.note("cycles", cycles.len(), "");
    out.note("phase1.get_samples", lat.get_n, "");
    out.note("phase1.set_samples", lat.set_n, "");
    out.note("phase1.windows", lat.windows, "");
    out.note("phase1.pooled_get_p99_us", lat.pooled_p99[0], "us");
    out.note("phase1.pooled_set_p99_us", lat.pooled_p99[1], "us");
    out.note("loadgen.late_p99_us", lat.late_p99, "us");
    out.note(
        "loadgen.offered_rate",
        median(
            &plain
                .iter()
                .map(|c| achieved_rate(&c.open.send_ns).unwrap_or(0.0))
                .collect::<Vec<_>>(),
        ),
        "ops/s",
    );
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted as f64,
        "fraction",
    );
    out.note("workloads.gen_ns_per_op", inp.gen_ns_per_op, "ns");

    if args.trace {
        layer_metrics(&inp, &cycles, &lat, &mut out, args);
    }
    out
}

/// Phase 1 latency percentiles, µs. Each percentile is taken within a
/// window of `WINDOW` consecutive operations and the median over windows
/// is reported, so a stall of the shared host that hits one window does
/// not move it. The percentiles of all samples pooled are kept beside.
struct Latencies {
    /// GET p50, p90, p99 and SET p50, p90, p99 (window medians).
    windowed: [f64; 6],
    /// GET p99, SET p99 over all samples pooled.
    pooled_p99: [f64; 2],
    late_p99: f64,
    get_n: usize,
    set_n: usize,
    windows: usize,
}

fn latencies(s: &Stream, cycles: &[&Cycle]) -> Latencies {
    let sched = Schedule::new(Instant::now(), RATE);
    let p = |xs: &[f64], pct| percentile(xs, pct).unwrap_or(0.0);
    let (mut get_all, mut set_all, mut late) = (Vec::new(), Vec::new(), Vec::new());
    // Per window: GET p50, p90, p99, then SET p50, p90, p99.
    let mut per_window: [Vec<f64>; 6] = Default::default();
    for c in cycles {
        for (w, ops) in s.ops.chunks(WINDOW).enumerate() {
            let (mut get, mut set) = (Vec::new(), Vec::new());
            for (j, op) in ops.iter().enumerate() {
                let i = w * WINDOW + j;
                let (Some(&sent), Some(&reply)) = (c.open.send_ns.get(i), c.open.reply_ns.get(i))
                else {
                    continue;
                };
                let due = sched.due_ns(i);
                late.push(sent.saturating_sub(due) as f64 / 1e3);
                if reply != 0 {
                    let us = reply.saturating_sub(due) as f64 / 1e3;
                    match op.kind {
                        Kind::Get => get.push(us),
                        Kind::Set => set.push(us),
                    }
                }
            }
            if get.is_empty() || set.is_empty() {
                continue;
            }
            for (k, pct) in PCTS.into_iter().enumerate() {
                per_window[k].push(p(&get, pct));
                per_window[3 + k].push(p(&set, pct));
            }
            get_all.append(&mut get);
            set_all.append(&mut set);
        }
    }
    let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    Latencies {
        windowed: per_window.each_ref().map(|w| med(w)),
        pooled_p99: [p(&get_all, 99.0), p(&set_all, 99.0)],
        late_p99: p(&late, 99.0),
        get_n: get_all.len(),
        set_n: set_all.len(),
        windows: per_window[0].len(),
    }
}

/// Store requests as the server's shard workers see them: text keys,
/// values behind the 12-byte `flags | cas` header.
fn store_requests(ops: &[Op]) -> Vec<KvRequest> {
    ops.iter()
        .map(|op| {
            let key = key_text(op.id).into_bytes();
            match op.kind {
                Kind::Get => KvRequest::get(&key),
                Kind::Set => KvRequest::put(&key, &framed_value(op)),
            }
        })
        .collect()
}

fn framed_value(op: &Op) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_HEADER_LEN];
    v.extend_from_slice(&ops::value(op.id, op.version, VALUE_LEN));
    v
}

fn store_preload() -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..N_KEYS)
        .map(|id| {
            let op = Op {
                id,
                kind: Kind::Set,
                version: 0,
            };
            (key_text(id).into_bytes(), framed_value(&op))
        })
        .collect()
}

/// The paper's simulated throughput for this workload's phase 2 stream:
/// the same operations through one simulated NIC (`SystemSim`) with the
/// server's per-shard store configuration.
fn sim_mops(inp: &Inputs, seed: u64) -> f64 {
    use kv_direct::system::{SystemSim, SystemSimConfig};
    // Operations per client packet, as in the sim workloads.
    const BATCH: usize = 40;
    let store = ServerConfig::loopback(2).store;
    let mut sim = SystemSim::with_seed(SystemSimConfig::paper(store, BATCH), seed);
    for (k, v) in store_preload() {
        sim.store_mut().put(&k, &v).expect("preload fits the store");
    }
    let mut ops = inp.phase2[0].ops.clone();
    ops.extend_from_slice(&inp.phase2[1].ops);
    sim.run(&store_requests(&ops)).mops
}

fn layer_metrics(
    inp: &Inputs,
    cycles: &[(Cycle, bool)],
    plain_lat: &Latencies,
    out: &mut Outcome,
    args: &Args,
) {
    let s = &inp.phase1;
    let n = s.len();
    let timer_ns = layers::timer_cost_ns();
    out.note("trace.timer_ns_per_span", timer_ns, "ns");
    let Some((traced, _)) = cycles.iter().rev().find(|c| c.1) else {
        out.problems.push("no traced cycle ran".into());
        return;
    };
    let mut tracer = Tracer::new();
    // Per request: the root span from due instant to reply, the
    // generator's lateness under it.
    let sched = Schedule::new(Instant::now(), RATE);
    let roots: Vec<SpanId> = (0..n)
        .map(|i| {
            let due = sched.due_ns(i);
            let reply = traced.open.reply_ns.get(i).copied().unwrap_or(due).max(due);
            let root = tracer.push("op", i as u64, None, due, reply);
            let sent = traced.open.send_ns.get(i).copied().unwrap_or(due).max(due);
            tracer.push("loadgen.late", i as u64, Some(root), due, sent);
            root
        })
        .collect();

    // Replays of the same operations through each server-side layer.
    let m = &mut out.layers;
    let mut parse_ns = 0u64;
    let mut frames = 0u64;
    for (i, &root) in roots.iter().enumerate() {
        let frame = s.frames(i, i + 1);
        let a = Instant::now();
        let parsed = std::hint::black_box(kvd_server::parse(std::hint::black_box(frame)));
        let b = Instant::now();
        if !matches!(parsed, kvd_server::Parsed::Frame { consumed, .. } if consumed == frame.len())
        {
            out.problems
                .push(format!("request {i} did not parse as one frame"));
            break;
        }
        parse_ns += op_span(
            &mut tracer,
            "server.parse",
            i as u64,
            Some(root),
            a,
            b,
            timer_ns,
        );
        frames += 1;
    }
    m.set(
        "server.parse_ns_per_frame",
        parse_ns as f64 / frames.max(1) as f64,
    );

    let reqs = store_requests(&s.ops);
    let cfg = ServerConfig::loopback(2).store;
    let preload = store_preload();
    let store = layers::replay_store(
        &cfg,
        2,
        &preload,
        &reqs,
        &mut tracer,
        Some(&roots),
        timer_ns,
    );
    m.set("core.execute_ns_per_get", store.get_ns);
    m.set("core.execute_ns_per_put", store.put_ns);
    if store.failed != 0 {
        out.problems
            .push(format!("store replay: {} operations failed", store.failed));
    }

    let mut reply = Vec::with_capacity(256);
    let (mut enc_ns, mut replies) = (0u64, 0u64);
    for (i, op) in s.ops.iter().enumerate() {
        if op.kind != Kind::Get {
            continue;
        }
        let key = key_text(op.id);
        let data = ops::value(op.id, op.version, VALUE_LEN);
        reply.clear();
        let a = Instant::now();
        proto::encode_value(&mut reply, key.as_bytes(), 0, None, &data);
        std::hint::black_box(&reply);
        let b = Instant::now();
        enc_ns += op_span(
            &mut tracer,
            "server.encode",
            i as u64,
            Some(roots[i]),
            a,
            b,
            timer_ns,
        );
        replies += 1;
    }
    m.set(
        "server.encode_ns_per_reply",
        enc_ns as f64 / replies.max(1) as f64,
    );

    let coverage = tracer.coverage(&roots);
    let root_ns: u64 = roots
        .iter()
        .map(|&r| {
            let sp = tracer.spans()[r as usize];
            sp.end - sp.start
        })
        .sum();
    // What the layer spans leave of the round trip: TCP, the connection
    // thread and the hop to the shard.
    let residual_ns = root_ns as f64 * (1.0 - coverage);
    m.set("server.residual_us_per_op", residual_ns / n as f64 / 1e3);
    m.set("trace.coverage", coverage);

    let sc = &traced.server;
    let requests = sc.requests.max(1) as f64;
    m.set("server.bytes_in_per_op", sc.bytes_in as f64 / requests);
    m.set("server.bytes_out_per_op", sc.bytes_out as f64 / requests);
    m.set(
        "server.errors",
        (sc.server_errors + sc.protocol_errors) as f64,
    );
    let puts = traced.ledger.core.puts;
    ledger_metrics(m, &traced.ledger, traced.ledger.core.requests, puts);
    let hash = layers::replay_hash(&cfg, 2, &preload, &reqs);
    m.set("hash.mem_accesses_per_get", hash.accesses_per_get);
    m.set("hash.mem_accesses_per_put", hash.accesses_per_put);
    m.set("hash.utilization", hash.utilization);
    m.set("loadgen.late_p99_us", plain_lat.late_p99);
    m.set("workloads.gen_ns_per_op", inp.gen_ns_per_op);

    let traced_cycles: Vec<&Cycle> = cycles.iter().filter(|c| c.1).map(|c| &c.0).collect();
    let traced_lat = latencies(s, &traced_cycles);
    m.set(
        "trace.overhead",
        traced_lat.windowed[0] / plain_lat.windowed[0] - 1.0,
    );

    crate::write_trace(&tracer, args, out);
}
