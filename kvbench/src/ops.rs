//! Input generation: versioned operation streams and their expected
//! results.
//!
//! Every SET writes a value that encodes its key and a fresh version, so
//! a stale or misrouted read cannot match by accident. The generator
//! keeps the model of the last version written per key while it emits
//! the stream, so each GET carries the version it must read back.

use kv_direct::ooo::SimOp;
use kv_direct::{KvRequest, Status};

/// GET or SET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read a key.
    Get,
    /// Write a key.
    Set,
}

/// One operation of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Key id.
    pub id: u64,
    /// GET or SET.
    pub kind: Kind,
    /// For a SET the version written; for a GET the version expected.
    pub version: u32,
}

/// The per-key model of the last version written.
pub struct Model {
    last: Vec<u32>,
    next: u32,
}

impl Model {
    /// Every key of `n_keys` preloaded at version 0.
    pub fn preloaded(n_keys: u64) -> Self {
        Model {
            last: vec![0; n_keys as usize],
            next: 1,
        }
    }

    /// Turns a key trace into versioned operations, advancing the model.
    pub fn versioned(&mut self, trace: &[(u64, SimOp)]) -> Vec<Op> {
        trace
            .iter()
            .map(|&(id, op)| self.step(id, op == SimOp::Put))
            .collect()
    }

    /// Emits one operation on key `id`.
    pub fn step(&mut self, id: u64, set: bool) -> Op {
        let slot = &mut self.last[id as usize];
        if set {
            *slot = self.next;
            self.next += 1;
            Op {
                id,
                kind: Kind::Set,
                version: *slot,
            }
        } else {
            Op {
                id,
                kind: Kind::Get,
                version: *slot,
            }
        }
    }
}

/// The 8-byte binary key of key id `id`.
pub fn bin_key(id: u64) -> [u8; 8] {
    id.to_le_bytes()
}

/// `len` value bytes determined by `(id, version)`.
pub fn value(id: u64, version: u32, len: usize) -> Vec<u8> {
    let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(version) << 20);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Binary-keyed store requests for a stream.
pub fn requests(ops: &[Op], value_len: usize) -> Vec<KvRequest> {
    ops.iter()
        .map(|op| match op.kind {
            Kind::Get => KvRequest::get(&bin_key(op.id)),
            Kind::Set => KvRequest::put(&bin_key(op.id), &value(op.id, op.version, value_len)),
        })
        .collect()
}

/// Preload requests: every key at version 0.
pub fn preload(n_keys: u64, value_len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n_keys)
        .map(|id| (bin_key(id).to_vec(), value(id, 0, value_len)))
        .collect()
}

/// Whether a store response is the one `op` must get: SETs succeed,
/// GETs return exactly the expected version's bytes.
pub fn response_ok(op: &Op, value_len: usize, status: Status, data: &[u8]) -> bool {
    match op.kind {
        Kind::Set => status == Status::Ok,
        Kind::Get => status == Status::Ok && data == value(op.id, op.version, value_len).as_slice(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_track_the_last_write() {
        let mut m = Model::preloaded(4);
        let ops = m.versioned(&[
            (1, SimOp::Get),
            (1, SimOp::Put),
            (1, SimOp::Get),
            (2, SimOp::Put),
            (1, SimOp::Get),
        ]);
        let v: Vec<u32> = ops.iter().map(|o| o.version).collect();
        assert_eq!(v, [0, 1, 1, 2, 1]);
    }

    #[test]
    fn values_differ_by_version_and_key() {
        assert_eq!(value(3, 1, 64).len(), 64);
        assert_ne!(value(3, 1, 8), value(3, 2, 8));
        assert_ne!(value(3, 1, 8), value(4, 1, 8));
        assert_eq!(value(3, 1, 13), value(3, 1, 13));
    }
}
