//! Wire format of the transaction protocol messages.

use bytes::{BufMut, Bytes, BytesMut};

/// One item of an Execute response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecItem {
    /// The key.
    pub key: u64,
    /// Whether the item was found (and, if locking, locked).
    pub ok: bool,
    /// The value at execution time.
    pub value: Vec<u8>,
    /// The version at execution time.
    pub version: u64,
    /// Byte offset of the item in the shard's registered region — the
    /// address later one-sided validation reads and commit writes target.
    pub item_off: u64,
}

/// Coordinator → participant requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxRequest {
    /// Read items; lock those flagged (the write set).
    Execute {
        /// Transaction/coordinator id (lock owner).
        txid: u64,
        /// `(key, lock?)` pairs.
        items: Vec<(u64, bool)>,
    },
    /// RPC-path validation: re-check read-set versions.
    Validate {
        /// `(key, expected_version)` pairs.
        items: Vec<(u64, u64)>,
    },
    /// Append redo records for the commit.
    Log {
        /// Transaction id.
        txid: u64,
        /// `(key, new_value)` records.
        records: Vec<(u64, Vec<u8>)>,
    },
    /// RPC-path commit: install values, bump versions, release locks.
    Commit {
        /// Transaction id (lock owner).
        txid: u64,
        /// `(key, new_value)` pairs.
        items: Vec<(u64, Vec<u8>)>,
    },
    /// Release locks after an abort.
    Unlock {
        /// Transaction id (lock owner).
        txid: u64,
        /// Keys to unlock.
        keys: Vec<u64>,
    },
}

/// Participant → coordinator responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxResponse {
    /// Execute result. `all_ok == false` means a lock or lookup failed
    /// and any locks taken by this request were rolled back.
    Execute {
        /// Whether every item succeeded.
        all_ok: bool,
        /// Per-item results (present only when `all_ok`).
        items: Vec<ExecItem>,
    },
    /// Validation result.
    Validate {
        /// Whether every version matched.
        ok: bool,
    },
    /// Generic success (Log/Commit/Unlock).
    Ok,
}

fn put_bytes(b: &mut BytesMut, v: &[u8]) {
    b.put_u32_le(v.len() as u32);
    b.put_slice(v);
}

fn get_u64(raw: &[u8], at: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(raw.get(*at..*at + 8)?.try_into().ok()?);
    *at += 8;
    Some(v)
}

fn get_u32(raw: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(raw.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

fn get_bytes(raw: &[u8], at: &mut usize) -> Option<Vec<u8>> {
    let len = get_u32(raw, at)? as usize;
    let v = raw.get(*at..*at + len)?.to_vec();
    *at += len;
    Some(v)
}

/// Encoded size of `(key, bytes)` records: key, length prefix, bytes.
fn records_len(records: &[(u64, Vec<u8>)]) -> usize {
    records.iter().map(|(_, v)| 8 + 4 + v.len()).sum()
}

impl TxRequest {
    /// Exact size of [`encode`](Self::encode)'s output.
    pub fn encoded_len(&self) -> usize {
        // Tag, then per variant: txid and/or the item count, the items.
        1 + match self {
            TxRequest::Execute { items, .. } => 8 + 4 + items.len() * (8 + 1),
            TxRequest::Validate { items } => 4 + items.len() * (8 + 8),
            TxRequest::Log { records, .. } => 8 + 4 + records_len(records),
            TxRequest::Commit { items, .. } => 8 + 4 + records_len(items),
            TxRequest::Unlock { keys, .. } => 8 + 4 + keys.len() * 8,
        }
    }

    /// Serializes the request.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len());
        match self {
            TxRequest::Execute { txid, items } => {
                b.put_u8(1);
                b.put_u64_le(*txid);
                b.put_u32_le(items.len() as u32);
                for (k, lock) in items {
                    b.put_u64_le(*k);
                    b.put_u8(*lock as u8);
                }
            }
            TxRequest::Validate { items } => {
                b.put_u8(2);
                b.put_u32_le(items.len() as u32);
                for (k, v) in items {
                    b.put_u64_le(*k);
                    b.put_u64_le(*v);
                }
            }
            TxRequest::Log { txid, records } => {
                b.put_u8(3);
                b.put_u64_le(*txid);
                b.put_u32_le(records.len() as u32);
                for (k, v) in records {
                    b.put_u64_le(*k);
                    put_bytes(&mut b, v);
                }
            }
            TxRequest::Commit { txid, items } => {
                b.put_u8(4);
                b.put_u64_le(*txid);
                b.put_u32_le(items.len() as u32);
                for (k, v) in items {
                    b.put_u64_le(*k);
                    put_bytes(&mut b, v);
                }
            }
            TxRequest::Unlock { txid, keys } => {
                b.put_u8(5);
                b.put_u64_le(*txid);
                b.put_u32_le(keys.len() as u32);
                for k in keys {
                    b.put_u64_le(*k);
                }
            }
        }
        debug_assert_eq!(b.len(), self.encoded_len());
        b.freeze()
    }

    /// Deserializes a request.
    pub fn decode(raw: &[u8]) -> Option<TxRequest> {
        let mut at = 1;
        match *raw.first()? {
            1 => {
                let txid = get_u64(raw, &mut at)?;
                let n = get_u32(raw, &mut at)? as usize;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = get_u64(raw, &mut at)?;
                    let lock = *raw.get(at)? != 0;
                    at += 1;
                    items.push((k, lock));
                }
                Some(TxRequest::Execute { txid, items })
            }
            2 => {
                let n = get_u32(raw, &mut at)? as usize;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push((get_u64(raw, &mut at)?, get_u64(raw, &mut at)?));
                }
                Some(TxRequest::Validate { items })
            }
            3 | 4 => {
                let code = raw[0];
                let txid = get_u64(raw, &mut at)?;
                let n = get_u32(raw, &mut at)? as usize;
                let mut records = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = get_u64(raw, &mut at)?;
                    records.push((k, get_bytes(raw, &mut at)?));
                }
                Some(if code == 3 {
                    TxRequest::Log { txid, records }
                } else {
                    TxRequest::Commit {
                        txid,
                        items: records,
                    }
                })
            }
            5 => {
                let txid = get_u64(raw, &mut at)?;
                let n = get_u32(raw, &mut at)? as usize;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(get_u64(raw, &mut at)?);
                }
                Some(TxRequest::Unlock { txid, keys })
            }
            _ => None,
        }
    }
}

impl TxResponse {
    /// Exact size of [`encode`](Self::encode)'s output.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            TxResponse::Execute { items, .. } => {
                // Per item: key, ok, version, offset, length-prefixed value.
                let items = items.iter().map(|it| 8 + 1 + 8 + 8 + 4 + it.value.len());
                1 + 4 + items.sum::<usize>()
            }
            TxResponse::Validate { .. } => 1,
            TxResponse::Ok => 0,
        }
    }

    /// Serializes the response.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len());
        match self {
            TxResponse::Execute { all_ok, items } => {
                b.put_u8(1);
                b.put_u8(*all_ok as u8);
                b.put_u32_le(items.len() as u32);
                for it in items {
                    b.put_u64_le(it.key);
                    b.put_u8(it.ok as u8);
                    b.put_u64_le(it.version);
                    b.put_u64_le(it.item_off);
                    put_bytes(&mut b, &it.value);
                }
            }
            TxResponse::Validate { ok } => {
                b.put_u8(2);
                b.put_u8(*ok as u8);
            }
            TxResponse::Ok => b.put_u8(3),
        }
        debug_assert_eq!(b.len(), self.encoded_len());
        b.freeze()
    }

    /// Deserializes a response.
    pub fn decode(raw: &[u8]) -> Option<TxResponse> {
        let mut at = 1;
        match *raw.first()? {
            1 => {
                let all_ok = *raw.get(at)? != 0;
                at += 1;
                let n = get_u32(raw, &mut at)? as usize;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = get_u64(raw, &mut at)?;
                    let ok = *raw.get(at)? != 0;
                    at += 1;
                    let version = get_u64(raw, &mut at)?;
                    let item_off = get_u64(raw, &mut at)?;
                    let value = get_bytes(raw, &mut at)?;
                    items.push(ExecItem {
                        key,
                        ok,
                        value,
                        version,
                        item_off,
                    });
                }
                Some(TxResponse::Execute { all_ok, items })
            }
            2 => Some(TxResponse::Validate {
                ok: *raw.get(at)? != 0,
            }),
            3 => Some(TxResponse::Ok),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            TxRequest::Execute {
                txid: 9,
                items: vec![(1, true), (2, false)],
            },
            TxRequest::Validate {
                items: vec![(5, 100), (6, 200)],
            },
            TxRequest::Log {
                txid: 9,
                records: vec![(1, vec![1, 2, 3])],
            },
            TxRequest::Commit {
                txid: 9,
                items: vec![(1, vec![4; 40]), (7, vec![])],
            },
            TxRequest::Unlock {
                txid: 9,
                keys: vec![1, 2, 3],
            },
        ];
        for r in reqs {
            assert_eq!(r.encode().len(), r.encoded_len(), "{r:?}");
            assert_eq!(TxRequest::decode(&r.encode()), Some(r.clone()));
        }
        assert_eq!(TxRequest::decode(&[]), None);
        assert_eq!(TxRequest::decode(&[99]), None);
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            TxResponse::Execute {
                all_ok: true,
                items: vec![ExecItem {
                    key: 3,
                    ok: true,
                    value: vec![9; 8],
                    version: 12,
                    item_off: 4096,
                }],
            },
            TxResponse::Execute {
                all_ok: false,
                items: vec![],
            },
            TxResponse::Validate { ok: false },
            TxResponse::Ok,
        ];
        for r in resps {
            assert_eq!(r.encode().len(), r.encoded_len(), "{r:?}");
            assert_eq!(TxResponse::decode(&r.encode()), Some(r.clone()));
        }
    }

    #[test]
    fn truncation_is_detected() {
        let enc = TxRequest::Execute {
            txid: 1,
            items: vec![(1, true)],
        }
        .encode();
        for cut in 1..enc.len() {
            assert_eq!(TxRequest::decode(&enc[..cut]), None, "cut at {cut}");
        }
    }
}
