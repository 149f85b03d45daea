//! Steady-state allocation guard for the serving hot path.
//!
//! A counting allocator wraps the system allocator and counts every
//! thread, so the server's connection thread is covered along with the
//! client. One loopback connection replays a fixed pipelined GET/SET
//! stream: the warmup passes grow every pool (bundles, arenas, response
//! buffers, the shards' request-ref buffers, the stores' value pools) to
//! their equilibrium, and the measured pass of the same stream must then
//! perform **zero** heap allocations anywhere in the process.
//!
//! This file intentionally holds a single `#[test]`: the harness runs
//! tests in one binary concurrently, and a second test's allocations
//! would race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use kvd_server::proto::VERSION_REPLY;
use kvd_server::{serve, ServerConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Writes `stream` and reads replies into `reply` (cleared, never grown
/// past its capacity) until they end with the trailing `version` reply.
fn replay(conn: &mut TcpStream, stream: &[u8], reply: &mut Vec<u8>, want_len: Option<usize>) {
    conn.write_all(stream).expect("send");
    reply.clear();
    let cap = reply.capacity();
    reply.resize(cap, 0);
    let mut len = 0;
    loop {
        let n = conn.read(&mut reply[len..]).expect("read");
        assert!(n > 0, "server closed mid-stream");
        len += n;
        let done = match want_len {
            Some(want) => len >= want,
            None => reply[..len].ends_with(VERSION_REPLY),
        };
        if done {
            break;
        }
        assert!(len < cap, "reply outgrew its preallocated buffer");
    }
    reply.truncate(len);
}

#[test]
fn steady_state_serving_allocates_nothing() {
    const KEYS: usize = 256;
    const ROUNDS: usize = 8;

    let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
    let mut conn = TcpStream::connect(h.local_addr()).expect("connect");

    // Sets and single- and multi-key gets over a preloaded key set; the
    // same value per key every time, so every pass's replies are equal.
    let set = |out: &mut Vec<u8>, k: usize, noreply: &str| {
        out.extend_from_slice(format!("set key:{k:05} 0 0 32{noreply}\r\n").as_bytes());
        out.extend_from_slice(&[b'a' + (k % 26) as u8; 32]);
        out.extend_from_slice(b"\r\n");
    };
    let mut preload = Vec::new();
    for k in 0..KEYS {
        set(&mut preload, k, " noreply");
    }
    preload.extend_from_slice(b"version\r\n");
    let mut stream = Vec::new();
    for round in 0..ROUNDS {
        for k in 0..KEYS {
            if (k + round) % 4 == 0 {
                set(&mut stream, k, "");
            } else if k % 3 == 0 {
                stream.extend_from_slice(format!("get key:{k:05} key:{:05}\r\n", k / 2).as_bytes());
            } else {
                stream.extend_from_slice(format!("get key:{k:05}\r\n").as_bytes());
            }
        }
    }
    stream.extend_from_slice(b"version\r\n");
    let mut first = Vec::with_capacity(4 << 20);
    let mut reply = Vec::with_capacity(4 << 20);

    replay(&mut conn, &preload, &mut first, None);
    replay(&mut conn, &stream, &mut first, None);
    for _ in 0..2 {
        replay(&mut conn, &stream, &mut reply, Some(first.len()));
        assert_eq!(reply, first, "a warm pass must answer like the first");
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    replay(&mut conn, &stream, &mut reply, Some(first.len()));
    let during = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(reply, first, "the measured pass must answer like the first");
    assert_eq!(
        during, 0,
        "steady-state serving must not allocate ({during} allocations over one pass)"
    );
    drop(conn);
    h.stop();
}
