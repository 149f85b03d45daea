//! Concurrent connections on one shard: the run-to-completion lock path.
//!
//! Several client threads pipeline `set`/`replace`/`gets` over keys that
//! mostly hash to the same shard, so their chunks contend for one shard
//! lock, while another thread keeps snapshotting the merged ledger. A
//! few keys live on the other shard, so cas uniques are also minted by
//! two shards executing at once. Each
//! key has exactly one writer (the thread whose index it carries), and
//! every thread reads every key. The run must finish, every reply must
//! be well-formed, each writer must read its own writes, readers must
//! never see a key go back in time, cas uniques must be distinct across
//! connections, the final `get` of each key must return its writer's
//! last acknowledged value, and the protocol ledger must count exactly
//! the requests sent.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::Duration;

use kvd_net::shard_of;
use kvd_server::{serve, ServerConfig, ServerHandle};

const SHARDS: usize = 2;
const WRITERS: usize = 4;
/// Keys per writer on the contended shard 0, and on shard 1.
const HOT_KEYS: usize = 6;
const COLD_KEYS: usize = 2;
const ROUNDS: u32 = 1000;

/// The keys of writer `w`: `HOT_KEYS` on shard 0, `COLD_KEYS` on shard 1.
fn keys_of(w: usize) -> Vec<String> {
    let on = |shard, n| {
        (0u32..)
            .map(move |i| format!("w{w}:k{i}"))
            .filter(move |k| shard_of(k.as_bytes(), SHARDS) == shard)
            .take(n)
    };
    on(0, HOT_KEYS).chain(on(1, COLD_KEYS)).collect()
}

fn value(key: &str, round: u32) -> String {
    format!("{key}@{round}")
}

/// One `VALUE` line and its data block.
struct Hit {
    key: String,
    flags: u32,
    cas: u64,
    data: String,
}

fn read_line(r: &mut impl BufRead) -> String {
    let mut line = String::new();
    r.read_line(&mut line).expect("reply line");
    assert!(line.ends_with("\r\n"), "unterminated reply line {line:?}");
    line.truncate(line.len() - 2);
    line
}

/// Reads one `get`/`gets` reply frame up to its `END`.
fn read_get_frame(r: &mut impl BufRead, with_cas: bool) -> Vec<Hit> {
    let mut hits = Vec::new();
    loop {
        let line = read_line(r);
        if line == "END" {
            return hits;
        }
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(f.len(), if with_cas { 5 } else { 4 }, "bad header {line:?}");
        assert_eq!(f[0], "VALUE", "bad header {line:?}");
        let len: usize = f[3].parse().expect("byte count");
        let mut data = vec![0u8; len + 2];
        r.read_exact(&mut data).expect("data block");
        assert_eq!(&data[len..], b"\r\n", "unterminated data block");
        data.truncate(len);
        hits.push(Hit {
            key: f[1].to_string(),
            flags: f[2].parse().expect("flags"),
            cas: if with_cas {
                f[4].parse().expect("cas")
            } else {
                0
            },
            data: String::from_utf8(data).expect("ascii value"),
        });
    }
}

/// What one client thread saw: every `(cas, value)` pair it read and its
/// keys' last acknowledged values.
struct Seen {
    cas: Vec<(u64, String)>,
    last_acked: Vec<(String, String)>,
    requests: u64,
}

fn client(h: &ServerHandle, me: usize, all_keys: &[(usize, String)], start: &Barrier) -> Seen {
    let stream = TcpStream::connect(h.local_addr()).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut r = BufReader::new(stream);
    let mine = keys_of(me);
    let gets_line = {
        let mut l = "gets".to_string();
        for (_, k) in all_keys {
            l.push(' ');
            l.push_str(k);
        }
        l.push_str("\r\n");
        l
    };
    let mut seen = Seen {
        cas: Vec::new(),
        last_acked: Vec::new(),
        requests: 0,
    };
    // Highest round seen per key: single writers make it monotonic.
    let mut high: HashMap<String, u32> = HashMap::new();
    // Every connection is open before any sends, so rounds overlap.
    start.wait();
    for round in 0..ROUNDS {
        // One pipelined write per round: this writer's stores, then a
        // `gets` of every key.
        let verb = if round > 0 && round % 3 == 0 {
            "replace"
        } else {
            "set"
        };
        let mut req = String::new();
        for k in &mine {
            let v = value(k, round);
            req.push_str(&format!("{verb} {k} {me} 0 {}\r\n{v}\r\n", v.len()));
        }
        req.push_str(&gets_line);
        w.write_all(req.as_bytes()).expect("send");
        seen.requests += mine.len() as u64 + 1;

        for _ in &mine {
            assert_eq!(read_line(&mut r), "STORED");
        }
        let hits = read_get_frame(&mut r, true);
        assert!(hits.len() >= mine.len(), "own keys missing");
        for hit in hits {
            let (owner, _) = all_keys
                .iter()
                .find(|(_, k)| *k == hit.key)
                .expect("reply names a requested key");
            assert_eq!(hit.flags as usize, *owner, "flags name the writer");
            let (key, at) = hit.data.rsplit_once('@').expect("value shape");
            assert_eq!(key, hit.key, "value belongs to its key");
            let at: u32 = at.parse().expect("round");
            if *owner == me {
                assert_eq!(at, round, "a writer reads its own last write");
            }
            let prev = high.insert(hit.key.clone(), at).unwrap_or(0);
            assert!(
                at >= prev,
                "{} went back from round {prev} to {at}",
                hit.key
            );
            seen.cas.push((hit.cas, hit.data));
        }
    }
    seen.last_acked = mine
        .iter()
        .map(|k| (k.clone(), value(k, ROUNDS - 1)))
        .collect();
    w.write_all(b"quit\r\n").expect("quit");
    seen.requests += 1;
    let mut rest = Vec::new();
    r.read_to_end(&mut rest).expect("close");
    assert!(rest.is_empty(), "trailing bytes after quit");
    seen
}

fn run(h: &ServerHandle) -> u64 {
    let all_keys: Vec<(usize, String)> = (0..WRITERS)
        .flat_map(|w| keys_of(w).into_iter().map(move |k| (w, k)))
        .collect();
    let done = AtomicBool::new(false);
    let start = Barrier::new(WRITERS);
    let (seen, polls) = thread::scope(|sc| {
        let poller = sc.spawn(|| {
            let mut polls = 0u64;
            let mut last = 0u64;
            while !done.load(Ordering::SeqCst) {
                let l = h.ledger();
                assert!(l.core.requests >= last, "merged ledger went backwards");
                last = l.core.requests;
                polls += 1;
                thread::sleep(Duration::from_millis(1));
            }
            polls
        });
        let clients: Vec<_> = (0..WRITERS)
            .map(|me| {
                let (all_keys, start) = (&all_keys, &start);
                sc.spawn(move || client(h, me, all_keys, start))
            })
            .collect();
        let seen: Vec<Seen> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (seen, poller.join().expect("ledger poller"))
    });
    assert!(polls > 0, "ledger never polled");

    // A cas unique names one stored value, whichever connection stored
    // it and whichever connection read it.
    let mut by_cas: HashMap<u64, &str> = HashMap::new();
    for (cas, data) in seen.iter().flat_map(|s| &s.cas) {
        let prev = by_cas.insert(*cas, data);
        assert!(
            prev.is_none_or(|p| p == data),
            "cas {cas} names both {prev:?} and {data:?}"
        );
    }

    // Final reads return each key's last acknowledged write.
    let mut c = TcpStream::connect(h.local_addr()).expect("connect");
    let mut req = String::from("get");
    for (_, k) in &all_keys {
        req.push(' ');
        req.push_str(k);
    }
    req.push_str("\r\n");
    c.write_all(req.as_bytes()).expect("send");
    let mut r = BufReader::new(c);
    let finals: HashMap<String, String> = read_get_frame(&mut r, false)
        .into_iter()
        .map(|h| (h.key, h.data))
        .collect();
    for (key, want) in seen.iter().flat_map(|s| &s.last_acked) {
        assert_eq!(finals.get(key), Some(want), "final value of {key}");
    }
    seen.iter().map(|s| s.requests).sum::<u64>() + 1
}

#[test]
fn contended_shard_serves_every_connection_consistently() {
    let h = serve("127.0.0.1:0", ServerConfig::loopback(SHARDS)).expect("bind");
    // A deadlock shows as a missing verdict, not a hung test run.
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let sent = run(&h);
        let ledger = h.stop();
        tx.send(()).expect("report");
        (sent, ledger)
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(120)) {
        panic!("no verdict within 120 s: deadlock");
    }
    let (sent, ledger) = worker.join().expect("run");
    assert_eq!(ledger.server.requests, sent, "protocol ledger miscounts");
    assert_eq!(ledger.server.protocol_errors, 0);
    assert_eq!(ledger.server.server_errors, 0);
}
