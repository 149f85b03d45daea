//! The serving front-end: a run-to-completion TCP server over sharded
//! stores.
//!
//! Layout (DESIGN.md §12):
//!
//! * one **acceptor** thread owns the listener and blocks in `accept`;
//! * `shards` stores, each behind its own lock; keys route to a shard
//!   via [`kvd_net::shard_of`];
//! * one thread per **connection**, which reassembles frames
//!   incrementally ([`crate::proto::parse`]), stages each operation into
//!   its shard's bundle, executes every bundle itself under that shard's
//!   lock, and writes responses back in request order. No request ever
//!   changes threads, and a connection holds at most one shard lock at a
//!   time.
//!
//! Steady-state the hot path allocates nothing per request: keys and
//! data are staged into pooled per-shard arenas, execution goes through
//! the pooled [`KvDirectStore::execute_into`] entry point
//! with a per-shard request buffer (retired value buffers recycle into
//! the station pool), and response encoding appends into a reused write
//! buffer.
//!
//! Stored values carry a 12-byte header — `flags: u32 LE | cas: u64 LE`
//! — ahead of the client data, so GET can echo flags and `gets` a cas
//! unique without a second index.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use kvd_core::{tick_of_us, KvDirectConfig, KvDirectStore, EXPIRY_TICK_US};
use kvd_net::{shard_of, HashRing, KvRequestRef, KvResponse, Status};
use kvd_sim::{CostSource, OpLedger, ServerCosts, SimTime};

use crate::proto::{
    parse, Command, Parsed, StoreVerb, MAX_KEY_LEN, TOO_LARGE_REPLY, VERSION_REPLY,
};

/// Bytes of `flags | cas` prepended to every stored value.
pub const VALUE_HEADER_LEN: usize = 12;

/// Reply for a key this node does not own under the cluster ring.
pub const NOT_PRIMARY_REPLY: &[u8] = b"SERVER_ERROR not_primary\r\n";

/// Memcached's pivot between the two `exptime` encodings: values up to
/// thirty days are relative seconds, anything larger is an absolute
/// Unix timestamp.
pub const EXPTIME_RELATIVE_MAX: u32 = 30 * 24 * 60 * 60;

/// The serving clock: maps wall time onto the store's expiry-tick
/// domain and memcached `exptime` values onto absolute stamps.
///
/// Tick 0 of every shard store is the instant the server started; the
/// clock reports `now` with one tick of headroom so a stamp minted
/// "dead on arrival" (`expiry = now_tick`) is expired from the very
/// first bundle a shard executes, even within the first millisecond of
/// uptime.
#[derive(Debug, Clone, Copy)]
struct ServerClock {
    epoch: Instant,
    /// Unix seconds at `epoch`, anchoring absolute `exptime` values.
    unix_at_epoch: u64,
}

impl ServerClock {
    fn start() -> ServerClock {
        ServerClock {
            epoch: Instant::now(),
            unix_at_epoch: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// Simulated-time microseconds since the server epoch (plus the
    /// one-tick headroom described above).
    fn now_us(&self) -> u64 {
        (self.epoch.elapsed().as_micros() as u64).saturating_add(EXPIRY_TICK_US)
    }

    /// Maps a memcached `exptime` to an expiry stamp: `0` never
    /// expires; values up to [`EXPTIME_RELATIVE_MAX`] are relative
    /// seconds from now; larger values are absolute Unix timestamps
    /// (a timestamp already in the past yields a stamp that is dead
    /// immediately, per memcached semantics).
    fn expiry_tick(&self, exptime: u32) -> u32 {
        if exptime == 0 {
            return 0;
        }
        let now_us = self.now_us();
        if exptime <= EXPTIME_RELATIVE_MAX {
            return tick_of_us(now_us + exptime as u64 * 1_000_000);
        }
        let unix_now = self.unix_at_epoch + now_us / 1_000_000;
        match (exptime as u64).checked_sub(unix_now) {
            // Future timestamp: distance from now, in ticks.
            Some(ahead) if ahead > 0 => tick_of_us(now_us.saturating_add(ahead * 1_000_000)),
            // Already past: the current tick is by construction >= 1,
            // so stamping it makes the entry dead right now.
            _ => tick_of_us(now_us),
        }
    }
}

/// This node's place in a cluster: requests for keys whose replica set
/// (under the ring, at the configured replication factor) does not
/// include `node` are refused with [`NOT_PRIMARY_REPLY`] instead of
/// being served from a store that was never written to — a stale read
/// masquerading as a miss is worse than an explicit redirect.
#[derive(Debug, Clone)]
pub struct ClusterMembership {
    /// This node's id on the ring.
    pub node: u32,
    /// The cluster's placement ring (shared by every member).
    pub ring: HashRing,
    /// Replication factor: keys are owned by their first `rf` replicas.
    pub rf: usize,
}

impl ClusterMembership {
    /// Whether this node serves `key`.
    pub fn owns(&self, key: &[u8]) -> bool {
        self.ring.replicas(key, self.rf).contains(&self.node)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard (= store) count; keys route via `shard_of`.
    pub shards: usize,
    /// Per-shard store configuration.
    pub store: KvDirectConfig,
    /// Max operations a connection stages from its buffered frames
    /// before executing them and writing the replies.
    pub max_batch: usize,
    /// Cluster membership; `None` (standalone) serves every key.
    pub cluster: Option<ClusterMembership>,
}

impl ServerConfig {
    /// A loopback-test configuration: `shards` stores, 64 MiB per
    /// shard, extended slabs on (memcache data blocks routinely exceed
    /// the paper's 512 B inline regime).
    pub fn loopback(shards: usize) -> Self {
        let mut store = KvDirectConfig::with_memory(64 << 20);
        store.extended_slabs = true;
        ServerConfig {
            shards,
            store,
            max_batch: 64,
            cluster: None,
        }
    }

    /// Joins a cluster: refuse keys outside this node's replica sets.
    pub fn with_cluster(mut self, membership: ClusterMembership) -> Self {
        self.cluster = Some(membership);
        self
    }
}

/// Operation verb as staged for a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Get,
    Set,
    Add,
    Replace,
    Delete,
    Touch,
}

impl Verb {
    /// Ops that must be a bundle's only occupant: conditional stores
    /// (probe-then-store must not interleave) and `touch` (executed
    /// through the store's dedicated re-stamp entry point rather than
    /// the batch pipeline).
    fn ships_alone(self) -> bool {
        matches!(self, Verb::Add | Verb::Replace | Verb::Touch)
    }
}

/// One routed operation: ranges into its bundle's arena.
#[derive(Debug, Clone, Copy)]
struct Op {
    verb: Verb,
    /// Response slot in the connection's chunk.
    slot: u32,
    key: (u32, u32),
    /// Framed value range (`flags|cas|data`) for store verbs.
    val: (u32, u32),
    /// Absolute expiry stamp (0 = never) for store verbs and `touch`.
    expiry: u32,
}

/// A pooled execution unit: one shard's ops and their byte arena in,
/// responses out. A bundle executes with `responses[i]` aligned to
/// `ops[i]`; the next reuse hands `responses` back to
/// `execute_into`, which recycles the retired value buffers
/// into the same shard's store, so buffers never drift between shards.
#[derive(Debug, Default)]
struct Bundle {
    /// The shard this bundle always executes on.
    shard: usize,
    ops: Vec<Op>,
    arena: Vec<u8>,
    responses: Vec<KvResponse>,
}

impl Bundle {
    fn key<'a>(&'a self, op: &Op) -> &'a [u8] {
        &self.arena[op.key.0 as usize..op.key.1 as usize]
    }
}

/// One shard: its store plus the scratch its executions reuse. Whoever
/// holds the lock is the shard's only executor.
struct Shard {
    store: KvDirectStore,
    /// Scratch response reused across conditional probes (pooled).
    probe: KvResponse,
    /// Request-ref buffer reused across bundles; empty between uses.
    refs: Vec<KvRequestRef<'static>>,
}

/// Locks one shard. A lock poisoned by a panicking execution surfaces as
/// a broken pipe on every connection that touches the shard afterwards.
fn lock(shard: &Mutex<Shard>) -> io::Result<MutexGuard<'_, Shard>> {
    shard
        .lock()
        .map_err(|_| io::Error::new(ErrorKind::BrokenPipe, "shard poisoned"))
}

/// Live protocol counters shared by all connections: one atomic per
/// [`ServerCosts`] field, in its declaration order.
#[derive(Default)]
struct SharedCosts([AtomicU64; ServerCosts::FIELDS.len()]);

impl SharedCosts {
    fn fold(&self, c: &ServerCosts) {
        for ((_, v), a) in c.fields().zip(&self.0) {
            // Untouched fields skip the atomic add.
            if v != 0 {
                a.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> ServerCosts {
        let mut out = ServerCosts::default();
        for ((_, v), a) in out.fields_mut().zip(&self.0) {
            *v = a.load(Ordering::Relaxed);
        }
        out
    }
}

/// A running server; dropping or [`stop`](ServerHandle::stop)ping shuts
/// it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    costs: Arc<SharedCosts>,
    shards: Arc<[Mutex<Shard>]>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open (accepted, not yet torn down). Chaos
    /// tests poll this to know a killed client has fully drained
    /// server-side before asserting on store state.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Live protocol-plane counters.
    pub fn server_costs(&self) -> ServerCosts {
        self.costs.snapshot()
    }

    /// Merged op-cost ledger: every shard's data-plane costs (merged in
    /// shard order, so the result is deterministic) plus the protocol
    /// plane's [`ServerCosts`].
    pub fn ledger(&self) -> OpLedger {
        let mut out = OpLedger::default();
        for shard in self.shards.iter() {
            // A poisoned shard has no trustworthy ledger; leave it out.
            if let Ok(shard) = lock(shard) {
                out.merge(&shard.store.ledger());
            }
        }
        let protocol = OpLedger {
            server: self.costs.snapshot(),
            ..Default::default()
        };
        out.merge(&protocol);
        out
    }

    /// Stops the server: drains connections, captures the final ledger,
    /// joins the acceptor.
    pub fn stop(mut self) -> OpLedger {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            // The acceptor blocks in `accept`: one connection wakes it to
            // see the flag. A failed connect means it has already exited.
            let _ = TcpStream::connect(wake_addr(self.addr));
            let _ = a.join();
        }
        // Connections poll the flag on their read timeout; give them a
        // bounded window to drain.
        for _ in 0..200 {
            if self.active.load(Ordering::SeqCst) == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.ledger()
    }
}

impl CostSource for ServerHandle {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.merge(&self.ledger());
    }
}

/// Where [`ServerHandle::stop`] connects to wake the acceptor: the bound
/// address, with a wildcard IP replaced by loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Binds `addr` and starts serving. A configuration with no shards or a
/// zero batch cap is refused with [`ErrorKind::InvalidInput`].
pub fn serve<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> io::Result<ServerHandle> {
    if cfg.shards == 0 || cfg.max_batch == 0 {
        let msg = "shards and max_batch must be at least 1";
        return Err(io::Error::new(ErrorKind::InvalidInput, msg));
    }
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let costs = Arc::new(SharedCosts::default());
    let cas = Arc::new(AtomicU64::new(0));
    let clock = ServerClock::start();
    let shards: Arc<[Mutex<Shard>]> = (0..cfg.shards)
        .map(|_| {
            Mutex::new(Shard {
                store: KvDirectStore::new(cfg.store.clone()),
                probe: KvResponse {
                    status: Status::NotFound,
                    value: Vec::new(),
                },
                refs: Vec::new(),
            })
        })
        .collect();

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let active = Arc::clone(&active);
        let costs = Arc::clone(&costs);
        let shards = Arc::clone(&shards);
        thread::spawn(move || {
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                active.fetch_add(1, Ordering::SeqCst);
                costs.fold(&ServerCosts {
                    connections: 1,
                    ..ServerCosts::default()
                });
                let shutdown = Arc::clone(&shutdown);
                let guard = ConnGuard {
                    active: Arc::clone(&active),
                    costs: Arc::clone(&costs),
                };
                let conn = Connection::new(
                    stream,
                    Arc::clone(&shards),
                    Arc::clone(&cas),
                    Arc::clone(&costs),
                    cfg.max_batch,
                    cfg.cluster.clone(),
                    clock,
                );
                thread::spawn(move || {
                    let _guard = guard;
                    if let Ok(mut conn) = conn {
                        let _ = conn.run(&shutdown);
                    }
                });
            }
        })
    };

    Ok(ServerHandle {
        addr: local,
        shutdown,
        active,
        costs,
        shards,
        acceptor: Some(acceptor),
    })
}

/// Decrements the active-connection gauge however the thread exits.
struct ConnGuard {
    active: Arc<AtomicUsize>,
    costs: Arc<SharedCosts>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.costs.fold(&ServerCosts {
            disconnects: 1,
            ..ServerCosts::default()
        });
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

fn next_cas(cas: &AtomicU64) -> u64 {
    cas.fetch_add(1, Ordering::Relaxed) + 1
}

/// Retypes an emptied request-ref buffer to a new borrow lifetime. An
/// empty vector holds no borrow, and collecting it in place keeps its
/// allocation.
fn recycle<'b>(mut refs: Vec<KvRequestRef<'_>>) -> Vec<KvRequestRef<'b>> {
    refs.clear();
    refs.into_iter().map(|_| unreachable!("emptied")).collect()
}

fn execute_bundle(shard: &mut Shard, bundle: &mut Bundle, cas: &AtomicU64) {
    let store = &mut shard.store;
    // Connections seal ships-alone ops into their own single-op bundle.
    if bundle.ops.len() == 1 && bundle.ops[0].verb.ships_alone() {
        let op = bundle.ops[0];
        if op.verb == Verb::Touch {
            let found = store.touch(bundle.key(&op), op.expiry);
            let status = if found { Status::Ok } else { Status::NotFound };
            set_response(bundle, status);
            return;
        }
        return execute_conditional(store, bundle, cas, &mut shard.probe);
    }
    // Stamp cas uniques into the value headers, then run the whole
    // bundle through the pooled batch entry point. Destructured so the
    // request refs (borrowing `arena`) and the response vector borrow
    // disjoint fields.
    let Bundle {
        ops,
        arena,
        responses,
        ..
    } = bundle;
    for op in ops.iter() {
        if op.verb == Verb::Set {
            let c = next_cas(cas);
            let at = op.val.0 as usize + 4;
            arena[at..at + 8].copy_from_slice(&c.to_le_bytes());
        }
    }
    let mut refs = recycle(std::mem::take(&mut shard.refs));
    for op in ops.iter() {
        let key = &arena[op.key.0 as usize..op.key.1 as usize];
        refs.push(match op.verb {
            Verb::Get => KvRequestRef::get(key),
            Verb::Set => {
                KvRequestRef::put_ttl(key, &arena[op.val.0 as usize..op.val.1 as usize], op.expiry)
            }
            Verb::Delete => KvRequestRef::delete(key),
            Verb::Add | Verb::Replace | Verb::Touch => unreachable!("these ops ship alone"),
        });
    }
    store.execute_into(&refs, responses);
    shard.refs = recycle(refs);
}

/// `add`/`replace`: probe-then-store, atomic because the caller holds the
/// shard's lock for both steps. The precondition failure is surfaced as
/// `Status::NotFound` (the connection maps it to `NOT_STORED`).
fn execute_conditional(
    store: &mut KvDirectStore,
    bundle: &mut Bundle,
    cas: &AtomicU64,
    probe: &mut KvResponse,
) {
    let op = bundle.ops[0];
    let c = next_cas(cas);
    let at = op.val.0 as usize + 4;
    bundle.arena[at..at + 8].copy_from_slice(&c.to_le_bytes());

    store.execute_one_into(KvRequestRef::get(bundle.key(&op)), probe);
    let proceed = match (op.verb, probe.status) {
        (Verb::Add, Status::NotFound) => true,
        (Verb::Replace, Status::Ok) => true,
        (Verb::Add, Status::Ok) | (Verb::Replace, Status::NotFound) => false,
        // Probe itself failed (device fault, shed): surface that status.
        _ => {
            set_response(bundle, probe.status);
            return;
        }
    };
    if !proceed {
        set_response(bundle, Status::NotFound);
        return;
    }
    let Bundle {
        arena, responses, ..
    } = bundle;
    responses.truncate(1);
    if responses.is_empty() {
        responses.push(KvResponse {
            status: Status::NotFound,
            value: Vec::new(),
        });
    }
    let req = KvRequestRef::put_ttl(
        &arena[op.key.0 as usize..op.key.1 as usize],
        &arena[op.val.0 as usize..op.val.1 as usize],
        op.expiry,
    );
    store.execute_one_into(req, &mut responses[0]);
}

/// Maps a failed op status to its `SERVER_ERROR` taxonomy line. The
/// three failure families clients must distinguish:
///
/// * `overloaded` — admission control shed the op before execution;
///   retry after backoff, ideally against another replica.
/// * `deadline_expired` — the op was admitted but outlived its service
///   deadline in-queue; the client's own timeout has likely fired, so
///   retrying immediately is reasonable.
/// * `device_error` — the (simulated) NIC pipeline faulted; retry
///   against another replica.
///
/// Allocation failure keeps memcached's canonical string. Note the
/// third kind of "expired" — a key whose **TTL** lapsed — is not an
/// error at all: it surfaces as `Status::NotFound`, i.e. a plain miss.
fn taxonomy_reply(status: Status) -> &'static [u8] {
    match status {
        Status::OutOfMemory => b"SERVER_ERROR out of memory storing object\r\n",
        Status::Overloaded => b"SERVER_ERROR overloaded\r\n",
        Status::Expired => b"SERVER_ERROR deadline_expired\r\n",
        _ => b"SERVER_ERROR device_error\r\n",
    }
}

fn set_response(bundle: &mut Bundle, status: Status) {
    bundle.responses.truncate(1);
    if bundle.responses.is_empty() {
        bundle.responses.push(KvResponse {
            status,
            value: Vec::new(),
        });
    } else {
        bundle.responses[0].status = status;
        bundle.responses[0].value.clear();
    }
}

// ---------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------

/// What the response encoder must emit, in request order.
enum PlanItem {
    /// One `get`/`gets` frame: `n_keys` consecutive slots, then `END`.
    GetFrame {
        first_slot: u32,
        n_keys: u32,
        with_cas: bool,
    },
    /// One store/delete op's status line (suppressed by `noreply`).
    Op {
        slot: u32,
        verb: Verb,
        noreply: bool,
    },
    /// Immediate canned reply (errors, `VERSION`).
    Reply(&'static [u8]),
    /// Close after flushing.
    Close,
}

struct Connection {
    stream: TcpStream,
    shards: Arc<[Mutex<Shard>]>,
    cas: Arc<AtomicU64>,
    costs: Arc<SharedCosts>,
    max_batch: usize,

    recv: Vec<u8>,
    start: usize,
    out: Vec<u8>,
    /// Data-block bytes still to swallow after an oversized store.
    swallow: usize,

    /// Per-shard bundle being filled this chunk (`None` = empty).
    staging: Vec<Option<Bundle>>,
    /// Per-shard idle bundles.
    pool: Vec<Vec<Bundle>>,
    /// Bundles executed this chunk, in execution order.
    done: Vec<Bundle>,
    plan: Vec<PlanItem>,
    /// slot -> (done-bundle index, op index), filled before encoding.
    slots: Vec<(u32, u32)>,
    local: ServerCosts,
    cluster: Option<ClusterMembership>,
    clock: ServerClock,
}

impl Connection {
    fn new(
        stream: TcpStream,
        shards: Arc<[Mutex<Shard>]>,
        cas: Arc<AtomicU64>,
        costs: Arc<SharedCosts>,
        max_batch: usize,
        cluster: Option<ClusterMembership>,
        clock: ServerClock,
    ) -> io::Result<Connection> {
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            staging: (0..shards.len()).map(|_| None).collect(),
            pool: (0..shards.len()).map(|_| Vec::new()).collect(),
            shards,
            cas,
            costs,
            max_batch,
            recv: Vec::with_capacity(16 << 10),
            start: 0,
            out: Vec::with_capacity(16 << 10),
            swallow: 0,
            done: Vec::new(),
            plan: Vec::new(),
            slots: Vec::new(),
            local: ServerCosts::default(),
            cluster,
            clock,
        })
    }

    /// Whether this node serves `key` (standalone servers serve all).
    fn owns(&self, key: &[u8]) -> bool {
        self.cluster.as_ref().is_none_or(|m| m.owns(key))
    }

    fn run(&mut self, shutdown: &AtomicBool) -> io::Result<()> {
        let mut tmp = [0u8; 16 << 10];
        let mut closing = false;
        // Read when the buffer is drained OR the last pass made no
        // progress (a partial frame is waiting for the rest of its
        // bytes) — otherwise a buffered partial frame would spin hot.
        let mut need_read = true;
        while !closing && !shutdown.load(Ordering::SeqCst) {
            if need_read || self.start == self.recv.len() {
                if self.start == self.recv.len() {
                    self.recv.clear();
                    self.start = 0;
                }
                match self.stream.read(&mut tmp) {
                    Ok(0) => break,
                    Ok(n) => {
                        self.local.bytes_in += n as u64;
                        self.recv.extend_from_slice(&tmp[..n]);
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        self.flush_costs();
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            if self.swallow > 0 {
                let avail = self.recv.len() - self.start;
                let eat = self.swallow.min(avail);
                self.start += eat;
                self.swallow -= eat;
                if self.swallow > 0 {
                    continue;
                }
            }

            closing = self.process_chunk()?;
            // No bytes consumed = a partial frame: wait for more input.
            need_read = self.start == 0;
            // Compact the carried-over tail so the buffer stays bounded.
            if self.start > 0 {
                self.recv.drain(..self.start);
                self.start = 0;
            }
        }
        self.flush_costs();
        Ok(())
    }

    /// Parses as many frames as are buffered (capped at `max_batch`
    /// ops), executes them shard by shard, encodes and writes. Returns `true` when
    /// the connection should close.
    fn process_chunk(&mut self) -> io::Result<bool> {
        // The parsed commands borrow the receive buffer while staging
        // mutates `self`; moving the buffer out for the duration keeps
        // the borrows disjoint without copying a byte.
        let recv = std::mem::take(&mut self.recv);
        let res = self.process_buffered(&recv);
        self.recv = recv;
        res
    }

    fn process_buffered(&mut self, recv: &[u8]) -> io::Result<bool> {
        let mut next_slot: u32 = 0;
        let mut closing = false;

        loop {
            if next_slot as usize >= self.max_batch || closing || self.swallow > 0 {
                break;
            }
            let buf = &recv[self.start..];
            if buf.is_empty() {
                break;
            }
            match parse(buf) {
                Parsed::Incomplete => break,
                Parsed::Frame { cmd, consumed } => {
                    self.local.frames += 1;
                    self.local.requests += 1;
                    // Stage before consuming: `cmd` borrows `buf`.
                    match cmd {
                        Command::Get { with_cas, keys } => {
                            // A frame touching any key this node does not
                            // own is refused whole — partial answers
                            // would read as misses on the foreign keys.
                            if keys.iter().any(|key| !self.owns(key)) {
                                self.local.server_errors += 1;
                                self.local.not_primary += 1;
                                self.plan.push(PlanItem::Reply(NOT_PRIMARY_REPLY));
                                self.start += consumed;
                                continue;
                            }
                            let first_slot = next_slot;
                            let mut n_keys = 0u32;
                            for key in keys.iter() {
                                self.stage(Verb::Get, next_slot, key, 0, &[], 0)?;
                                next_slot += 1;
                                n_keys += 1;
                            }
                            self.plan.push(PlanItem::GetFrame {
                                first_slot,
                                n_keys,
                                with_cas,
                            });
                        }
                        Command::Store {
                            verb,
                            key,
                            flags,
                            exptime,
                            data,
                            noreply,
                        } => {
                            let verb = match verb {
                                StoreVerb::Set => Verb::Set,
                                StoreVerb::Add => Verb::Add,
                                StoreVerb::Replace => Verb::Replace,
                            };
                            if !self.owns(key) {
                                self.local.server_errors += 1;
                                self.local.not_primary += 1;
                                if !noreply {
                                    self.plan.push(PlanItem::Reply(NOT_PRIMARY_REPLY));
                                }
                                self.start += consumed;
                                continue;
                            }
                            let expiry = self.clock.expiry_tick(exptime);
                            self.stage(verb, next_slot, key, flags, data, expiry)?;
                            self.plan.push(PlanItem::Op {
                                slot: next_slot,
                                verb,
                                noreply,
                            });
                            next_slot += 1;
                        }
                        Command::Touch {
                            key,
                            exptime,
                            noreply,
                        } => {
                            if !self.owns(key) {
                                self.local.server_errors += 1;
                                self.local.not_primary += 1;
                                if !noreply {
                                    self.plan.push(PlanItem::Reply(NOT_PRIMARY_REPLY));
                                }
                                self.start += consumed;
                                continue;
                            }
                            let expiry = self.clock.expiry_tick(exptime);
                            self.stage(Verb::Touch, next_slot, key, 0, &[], expiry)?;
                            self.plan.push(PlanItem::Op {
                                slot: next_slot,
                                verb: Verb::Touch,
                                noreply,
                            });
                            next_slot += 1;
                        }
                        Command::Delete { key, noreply } => {
                            if !self.owns(key) {
                                self.local.server_errors += 1;
                                self.local.not_primary += 1;
                                if !noreply {
                                    self.plan.push(PlanItem::Reply(NOT_PRIMARY_REPLY));
                                }
                                self.start += consumed;
                                continue;
                            }
                            self.stage(Verb::Delete, next_slot, key, 0, &[], 0)?;
                            self.plan.push(PlanItem::Op {
                                slot: next_slot,
                                verb: Verb::Delete,
                                noreply,
                            });
                            next_slot += 1;
                        }
                        Command::Version => self.plan.push(PlanItem::Reply(VERSION_REPLY)),
                        Command::Quit => {
                            self.plan.push(PlanItem::Close);
                            closing = true;
                        }
                    }
                    self.start += consumed;
                }
                Parsed::Error { err, consumed } => {
                    self.local.frames += 1;
                    self.local.protocol_errors += 1;
                    self.plan.push(PlanItem::Reply(err.reply()));
                    if err.is_fatal() {
                        self.plan.push(PlanItem::Close);
                        closing = true;
                    }
                    self.start += consumed;
                }
                Parsed::TooLarge {
                    consumed,
                    skip,
                    noreply,
                } => {
                    self.local.frames += 1;
                    self.local.server_errors += 1;
                    if !noreply {
                        self.plan.push(PlanItem::Reply(TOO_LARGE_REPLY));
                    }
                    self.start += consumed;
                    self.swallow = skip;
                }
            }
        }

        // Execute whatever is still staged.
        for shard in 0..self.staging.len() {
            self.seal(shard)?;
        }

        self.slots.clear();
        self.slots.resize(next_slot as usize, (u32::MAX, u32::MAX));
        for (bi, b) in self.done.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                self.slots[op.slot as usize] = (bi as u32, oi as u32);
            }
        }

        // Encode in request order.
        self.out.clear();
        for item in &self.plan {
            match *item {
                PlanItem::Reply(bytes) => self.out.extend_from_slice(bytes),
                PlanItem::Close => {}
                PlanItem::GetFrame {
                    first_slot,
                    n_keys,
                    with_cas,
                } => {
                    // A key that faulted (device error, overload shed,
                    // …) must not masquerade as a miss — a client would
                    // read that as a lost write. Fail the whole frame
                    // with the first fault's taxonomy class.
                    let failed = (first_slot..first_slot + n_keys).find_map(|slot| {
                        let (bi, oi) = self.slots[slot as usize];
                        let status = self.done[bi as usize].responses[oi as usize].status;
                        (!matches!(status, Status::Ok | Status::NotFound)).then_some(status)
                    });
                    if let Some(status) = failed {
                        self.local.server_errors += 1;
                        self.out.extend_from_slice(taxonomy_reply(status));
                        continue;
                    }
                    for slot in first_slot..first_slot + n_keys {
                        let (bi, oi) = self.slots[slot as usize];
                        let b = &self.done[bi as usize];
                        let op = &b.ops[oi as usize];
                        let resp = &b.responses[oi as usize];
                        if resp.status == Status::Ok && resp.value.len() >= VALUE_HEADER_LEN {
                            self.local.get_hits += 1;
                            let flags =
                                u32::from_le_bytes(resp.value[0..4].try_into().expect("4B"));
                            let cas = u64::from_le_bytes(resp.value[4..12].try_into().expect("8B"));
                            crate::proto::encode_value(
                                &mut self.out,
                                b.key(op),
                                flags,
                                with_cas.then_some(cas),
                                &resp.value[VALUE_HEADER_LEN..],
                            );
                        } else {
                            self.local.get_misses += 1;
                        }
                    }
                    self.out.extend_from_slice(b"END\r\n");
                }
                PlanItem::Op {
                    slot,
                    verb,
                    noreply,
                } => {
                    let (bi, oi) = self.slots[slot as usize];
                    let status = self.done[bi as usize].responses[oi as usize].status;
                    let line: &[u8] = match (verb, status) {
                        (Verb::Set | Verb::Add | Verb::Replace, Status::Ok) => b"STORED\r\n",
                        (Verb::Add | Verb::Replace, Status::NotFound) => b"NOT_STORED\r\n",
                        (Verb::Delete, Status::Ok) => b"DELETED\r\n",
                        (Verb::Delete, Status::NotFound) => b"NOT_FOUND\r\n",
                        (Verb::Touch, Status::Ok) => b"TOUCHED\r\n",
                        (Verb::Touch, Status::NotFound) => b"NOT_FOUND\r\n",
                        (_, status) => taxonomy_reply(status),
                    };
                    match line {
                        b"STORED\r\n" => self.local.stored += 1,
                        b"NOT_STORED\r\n" => self.local.not_stored += 1,
                        b"DELETED\r\n" => self.local.deleted += 1,
                        b"TOUCHED\r\n" => self.local.touched += 1,
                        b"NOT_FOUND\r\n" => {}
                        _ => self.local.server_errors += 1,
                    }
                    if !noreply {
                        self.out.extend_from_slice(line);
                    }
                }
            }
        }
        self.plan.clear();

        // Return bundles (responses intact — their buffers recycle on
        // the next execute) to their shard's pool.
        for mut b in self.done.drain(..) {
            b.ops.clear();
            b.arena.clear();
            self.pool[b.shard].push(b);
        }

        if !self.out.is_empty() {
            self.stream.write_all(&self.out)?;
            self.local.bytes_out += self.out.len() as u64;
        }
        Ok(closing)
    }

    /// Stages one op into its shard's bundle. A ships-alone op executes
    /// the shard's earlier staged ops first, then itself.
    fn stage(
        &mut self,
        verb: Verb,
        slot: u32,
        key: &[u8],
        flags: u32,
        data: &[u8],
        expiry: u32,
    ) -> io::Result<()> {
        debug_assert!(key.len() <= MAX_KEY_LEN);
        let shard = shard_of(key, self.shards.len());
        if verb.ships_alone() {
            self.seal(shard)?;
        }
        let mut bundle = self.staging[shard]
            .take()
            .or_else(|| self.pool[shard].pop())
            .unwrap_or_else(|| Bundle {
                shard,
                ..Bundle::default()
            });
        let kstart = bundle.arena.len() as u32;
        bundle.arena.extend_from_slice(key);
        let kend = bundle.arena.len() as u32;
        let (vstart, vend) = if matches!(verb, Verb::Set | Verb::Add | Verb::Replace) {
            let vstart = bundle.arena.len() as u32;
            bundle.arena.extend_from_slice(&flags.to_le_bytes());
            bundle.arena.extend_from_slice(&[0u8; 8]); // cas, stamped at execution
            bundle.arena.extend_from_slice(data);
            (vstart, bundle.arena.len() as u32)
        } else {
            (0, 0)
        };
        bundle.ops.push(Op {
            verb,
            slot,
            key: (kstart, kend),
            val: (vstart, vend),
            expiry,
        });
        self.staging[shard] = Some(bundle);
        if verb.ships_alone() {
            self.seal(shard)?;
        }
        Ok(())
    }

    /// Executes shard `shard`'s staged bundle, if any, under that shard's
    /// lock, and queues it for encoding.
    fn seal(&mut self, shard: usize) -> io::Result<()> {
        let Some(mut bundle) = self.staging[shard].take() else {
            return Ok(());
        };
        let mut locked = lock(&self.shards[shard])?;
        // Advance the shard's expiry clock to wall time before executing,
        // so lazily-expired entries stop being served the moment their
        // deadline passes. Reading the clock under the lock keeps each
        // shard's clock monotonic.
        let now = SimTime::from_us(self.clock.now_us());
        locked.store.processor_mut().set_now(now);
        execute_bundle(&mut locked, &mut bundle, &self.cas);
        drop(locked);
        self.done.push(bundle);
        Ok(())
    }

    fn flush_costs(&mut self) {
        if self.local != ServerCosts::default() {
            self.costs.fold(&self.local);
            self.local = ServerCosts::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn roundtrip(server: &ServerHandle, send: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.write_all(send).expect("send");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("read");
        got
    }

    #[test]
    fn serves_set_get_delete_over_tcp() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let got = roundtrip(
            &h,
            b"set k 5 0 5\r\nhello\r\nget k\r\ndelete k\r\nget k\r\n",
        );
        assert_eq!(
            got,
            b"STORED\r\nVALUE k 5 5\r\nhello\r\nEND\r\nDELETED\r\nEND\r\n".to_vec()
        );
        let ledger = h.stop();
        assert_eq!(ledger.server.requests, 4);
        assert_eq!(ledger.server.get_hits, 1);
        assert_eq!(ledger.server.get_misses, 1);
        assert_eq!(ledger.server.stored, 1);
        assert_eq!(ledger.server.deleted, 1);
        // Data-plane attribution: the shard stores saw the traffic too.
        assert!(ledger.core.requests > 0, "core plane unattributed");
    }

    #[test]
    fn faulted_get_is_a_server_error_not_a_miss() {
        // With every fault channel at 100%, retry budgets exhaust and
        // each op fails with a device error. A GET must surface that as
        // SERVER_ERROR — reporting it as a miss would read as data loss.
        let mut cfg = ServerConfig::loopback(1);
        cfg.store.fault_rates = kvd_sim::FaultRates::uniform(1.0);
        cfg.store.fault_seed = 0xFA_17;
        let h = serve("127.0.0.1:0", cfg).expect("bind");
        let got = roundtrip(&h, b"get k\r\n");
        assert_eq!(got, b"SERVER_ERROR device_error\r\n".to_vec());
        let ledger = h.stop();
        assert_eq!(ledger.server.server_errors, 1);
        assert_eq!(ledger.server.get_misses, 0, "fault must not count as miss");
        assert!(ledger.core.device_errors > 0);
    }

    #[test]
    fn non_owned_keys_refused_not_primary() {
        // Node 0 of a 2-node ring at RF=1: keys placed on node 1 must
        // be refused with the `not_primary` taxonomy line, not served
        // from a store the cluster never writes through this member.
        let ring = HashRing::with_nodes(2, 64);
        let owned = (0u32..)
            .find(|i| ring.primary(format!("k{i}").as_bytes()) == 0)
            .expect("owned key");
        let foreign = (0u32..)
            .find(|i| ring.primary(format!("k{i}").as_bytes()) == 1)
            .expect("foreign key");
        let cfg = ServerConfig::loopback(1).with_cluster(ClusterMembership {
            node: 0,
            ring,
            rf: 1,
        });
        let h = serve("127.0.0.1:0", cfg).expect("bind");
        let send = format!(
            "set k{owned} 0 0 1\r\na\r\nset k{foreign} 0 0 1\r\nb\r\nget k{foreign}\r\ndelete k{foreign}\r\nget k{owned}\r\n"
        );
        let got = roundtrip(&h, send.as_bytes());
        let mut want = b"STORED\r\n".to_vec();
        want.extend_from_slice(NOT_PRIMARY_REPLY);
        want.extend_from_slice(NOT_PRIMARY_REPLY);
        want.extend_from_slice(NOT_PRIMARY_REPLY);
        want.extend_from_slice(format!("VALUE k{owned} 0 1\r\na\r\nEND\r\n").as_bytes());
        assert_eq!(got, want);
        let ledger = h.stop();
        assert_eq!(ledger.server.not_primary, 3);
        assert_eq!(ledger.server.server_errors, 3);
    }

    #[test]
    fn multi_get_spans_shards_in_request_order() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(4)).expect("bind");
        let mut send = Vec::new();
        for i in 0..8 {
            send.extend_from_slice(format!("set key{i} 0 0 2 noreply\r\nv{i}\r\n").as_bytes());
        }
        send.extend_from_slice(b"get key0 key1 key2 key3 key4 key5 key6 key7 missing\r\n");
        let got = roundtrip(&h, &send);
        // All nine keys belong to ONE get frame: a single END; the miss
        // is silently absent.
        let mut want = Vec::new();
        for i in 0..8 {
            want.extend_from_slice(format!("VALUE key{i} 0 2\r\nv{i}\r\n").as_bytes());
        }
        want.extend_from_slice(b"END\r\n");
        assert_eq!(got, want);
        h.stop();
    }

    #[test]
    fn add_replace_preconditions() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let got = roundtrip(
            &h,
            b"add k 0 0 1\r\na\r\nadd k 0 0 1\r\nb\r\nreplace k 0 0 1\r\nc\r\nreplace missing 0 0 1\r\nd\r\nget k\r\n",
        );
        assert_eq!(
            got,
            b"STORED\r\nNOT_STORED\r\nSTORED\r\nNOT_STORED\r\nVALUE k 0 1\r\nc\r\nEND\r\n".to_vec()
        );
        h.stop();
    }

    #[test]
    fn gets_returns_monotonic_cas() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let got = roundtrip(
            &h,
            b"set k 0 0 1\r\na\r\ngets k\r\nset k 0 0 1\r\nb\r\ngets k\r\n",
        );
        let text = String::from_utf8(got).expect("ascii");
        let cas: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("VALUE"))
            .map(|l| l.split(' ').nth(4).expect("cas").parse().expect("number"))
            .collect();
        assert_eq!(cas.len(), 2);
        assert!(
            cas[1] > cas[0],
            "cas must be unique and increasing: {cas:?}"
        );
        h.stop();
    }

    #[test]
    fn error_paths_and_quit() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let mut s = TcpStream::connect(h.local_addr()).expect("connect");
        s.write_all(b"bogus\r\nget\r\nversion\r\nquit\r\n")
            .expect("send");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("read");
        let mut want = Vec::new();
        want.extend_from_slice(b"ERROR\r\n");
        want.extend_from_slice(b"CLIENT_ERROR bad command line format\r\n");
        want.extend_from_slice(VERSION_REPLY);
        assert_eq!(got, want);
        let ledger = h.stop();
        assert_eq!(ledger.server.protocol_errors, 2);
        h_assert_disconnect(&ledger);
    }

    fn h_assert_disconnect(l: &OpLedger) {
        assert!(l.server.connections >= 1);
        assert_eq!(l.server.connections, l.server.disconnects);
    }

    #[test]
    fn oversized_object_swallowed_and_refused() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let n = crate::proto::MAX_DATA_LEN + 1;
        let mut send = format!("set big 0 0 {n}\r\n").into_bytes();
        send.extend(vec![b'x'; n]);
        send.extend_from_slice(b"\r\nget ok\r\n");
        let got = roundtrip(&h, &send);
        let mut want = TOO_LARGE_REPLY.to_vec();
        want.extend_from_slice(b"END\r\n");
        assert_eq!(got, want);
        h.stop();
    }

    #[test]
    fn pipelined_split_segments_reassemble() {
        // The same request bytes dribbled one byte at a time must
        // produce the same responses as one write.
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let send = b"set k 1 0 3\r\nabc\r\nget k\r\n";
        let mut s = TcpStream::connect(h.local_addr()).expect("connect");
        for &b in send.iter() {
            s.write_all(&[b]).expect("byte");
        }
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("read");
        assert_eq!(got, b"STORED\r\nVALUE k 1 3\r\nabc\r\nEND\r\n".to_vec());
        h.stop();
    }

    #[test]
    fn binary_values_roundtrip() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let data: Vec<u8> = (0..=255u8).collect();
        let mut send = format!("set bin 0 0 {}\r\n", data.len()).into_bytes();
        send.extend_from_slice(&data);
        send.extend_from_slice(b"\r\nget bin\r\n");
        let got = roundtrip(&h, &send);
        let mut want = b"STORED\r\nVALUE bin 0 256\r\n".to_vec();
        want.extend_from_slice(&data);
        want.extend_from_slice(b"\r\nEND\r\n");
        assert_eq!(got, want);
        h.stop();
    }

    #[test]
    fn past_absolute_exptime_is_stored_then_gone() {
        // memcached semantics: an absolute exptime in the past is
        // accepted (STORED) but the value is dead on arrival.
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let n = EXPTIME_RELATIVE_MAX + 1; // 1970-era Unix timestamp
        let send = format!("set k 0 {n} 1\r\na\r\nget k\r\n");
        let got = roundtrip(&h, send.as_bytes());
        assert_eq!(got, b"STORED\r\nEND\r\n".to_vec());
        let ledger = h.stop();
        assert_eq!(ledger.server.stored, 1);
        assert_eq!(ledger.server.get_misses, 1);
    }

    #[test]
    fn touch_restamps_and_reports_misses() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let past = EXPTIME_RELATIVE_MAX + 1;
        // Immortal set; touch into the past kills it; touching a
        // missing key is NOT_FOUND.
        let send =
            format!("set k 0 0 1\r\na\r\nget k\r\ntouch k {past}\r\nget k\r\ntouch missing 60\r\n");
        let got = roundtrip(&h, send.as_bytes());
        assert_eq!(
            got,
            b"STORED\r\nVALUE k 0 1\r\na\r\nEND\r\nTOUCHED\r\nEND\r\nNOT_FOUND\r\n".to_vec()
        );
        let ledger = h.stop();
        assert_eq!(ledger.server.touched, 1);
        assert_eq!(ledger.server.get_hits, 1);
        assert_eq!(ledger.server.get_misses, 1);
    }

    #[test]
    fn relative_exptime_expires_in_real_time() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let got = roundtrip(&h, b"set k 0 1 1\r\na\r\nget k\r\n");
        assert_eq!(got, b"STORED\r\nVALUE k 0 1\r\na\r\nEND\r\n".to_vec());
        // One-second relative TTL: generously past the deadline the
        // same key must read as a plain miss (not an error).
        thread::sleep(Duration::from_millis(1600));
        let got = roundtrip(&h, b"get k\r\n");
        assert_eq!(got, b"END\r\n".to_vec());
        // A touch can also resurrect-protect: re-set and extend before
        // expiry, then confirm it survives the original deadline.
        let got = roundtrip(&h, b"set j 0 1 1\r\nb\r\ntouch j 30\r\n");
        assert_eq!(got, b"STORED\r\nTOUCHED\r\n".to_vec());
        thread::sleep(Duration::from_millis(1600));
        let got = roundtrip(&h, b"get j\r\n");
        assert_eq!(got, b"VALUE j 0 1\r\nb\r\nEND\r\n".to_vec());
        h.stop();
    }

    #[test]
    fn reachable_bad_config_is_invalid_input() {
        for cfg in [
            ServerConfig::loopback(0),
            ServerConfig {
                max_batch: 0,
                ..ServerConfig::loopback(1)
            },
        ] {
            let err = serve("127.0.0.1:0", cfg).err().expect("refused");
            assert_eq!(err.kind(), ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn stop_returns_without_any_connection() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let ledger = h.stop();
        assert_eq!(ledger.server.connections, 0);
    }

    #[test]
    fn back_to_back_connections_are_accepted() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        for _ in 0..50 {
            assert_eq!(roundtrip(&h, b"version\r\n"), VERSION_REPLY.to_vec());
        }
        let ledger = h.stop();
        assert_eq!(ledger.server.connections, 50);
        assert_eq!(ledger.server.requests, 50);
    }

    #[test]
    fn reader_sees_reply_before_half_close() {
        // Interactive (non-pipelined) use: one command, read reply.
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let s = TcpStream::connect(h.local_addr()).expect("connect");
        let mut w = s.try_clone().expect("clone");
        let mut r = BufReader::new(s);
        w.write_all(b"set k 0 0 1\r\nz\r\n").expect("send");
        let mut line = String::new();
        r.read_line(&mut line).expect("reply");
        assert_eq!(line, "STORED\r\n");
        w.write_all(b"quit\r\n").expect("quit");
        h.stop();
    }
}
