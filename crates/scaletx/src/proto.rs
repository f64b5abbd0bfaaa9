//! Wire format of the transaction protocol messages.
//!
//! Every message is a tag byte, the variant's fixed fields, and — for
//! the variants that carry a list — a `u32` item count followed by the
//! items, with nothing after them. Decoding borrows: a [`List`] reads
//! its items out of the received bytes one at a time, values as
//! `&[u8]`, and nothing is copied or sized from a wire count. Encoding
//! writes a message once, into a buffer of its exact length, from an
//! iterator over the same item types.

use bytes::Bytes;
use std::marker::PhantomData;

/// One item of a message list: how it is laid out on the wire.
pub trait WireItem<'a>: Copy {
    /// The fewest bytes one item occupies.
    const MIN_LEN: usize;

    /// Bytes this item occupies.
    fn wire_len(&self) -> usize {
        Self::MIN_LEN
    }

    /// Writes the item at the front of `out`, which it advances.
    fn put(&self, out: &mut &mut [u8]);

    /// Reads one item off the front of `raw`, which it advances; `None`
    /// when `raw` ends inside the item.
    fn take(raw: &mut &'a [u8]) -> Option<Self>;
}

fn put(out: &mut &mut [u8], bytes: &[u8]) {
    let (head, tail) = std::mem::take(out).split_at_mut(bytes.len());
    head.copy_from_slice(bytes);
    *out = tail;
}

fn take<'a>(raw: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    let (head, tail) = raw.split_at_checked(len)?;
    *raw = tail;
    Some(head)
}

fn take_u8(raw: &mut &[u8]) -> Option<u8> {
    Some(take(raw, 1)?[0])
}

fn take_u32(raw: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(raw, 4)?.try_into().ok()?))
}

fn take_u64(raw: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(raw, 8)?.try_into().ok()?))
}

/// A key (Unlock).
impl WireItem<'_> for u64 {
    const MIN_LEN: usize = 8;

    fn put(&self, out: &mut &mut [u8]) {
        put(out, &self.to_le_bytes());
    }

    fn take(raw: &mut &[u8]) -> Option<Self> {
        take_u64(raw)
    }
}

/// `(key, lock?)` (Execute).
impl WireItem<'_> for (u64, bool) {
    const MIN_LEN: usize = 8 + 1;

    fn put(&self, out: &mut &mut [u8]) {
        put(out, &self.0.to_le_bytes());
        put(out, &[self.1 as u8]);
    }

    fn take(raw: &mut &[u8]) -> Option<Self> {
        Some((take_u64(raw)?, take_u8(raw)? != 0))
    }
}

/// `(key, expected_version)` (Validate).
impl WireItem<'_> for (u64, u64) {
    const MIN_LEN: usize = 8 + 8;

    fn put(&self, out: &mut &mut [u8]) {
        put(out, &self.0.to_le_bytes());
        put(out, &self.1.to_le_bytes());
    }

    fn take(raw: &mut &[u8]) -> Option<Self> {
        Some((take_u64(raw)?, take_u64(raw)?))
    }
}

/// `(key, new_value)` (Log, Commit): key, length prefix, bytes.
impl<'a> WireItem<'a> for (u64, &'a [u8]) {
    const MIN_LEN: usize = 8 + 4;

    fn wire_len(&self) -> usize {
        8 + 4 + self.1.len()
    }

    fn put(&self, out: &mut &mut [u8]) {
        put(out, &self.0.to_le_bytes());
        put(out, &(self.1.len() as u32).to_le_bytes());
        put(out, self.1);
    }

    fn take(raw: &mut &'a [u8]) -> Option<Self> {
        let key = take_u64(raw)?;
        let len = take_u32(raw)? as usize;
        Some((key, take(raw, len)?))
    }
}

/// One item of an Execute response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecItemView<'a> {
    /// The key.
    pub key: u64,
    /// Whether the item was found (and, if locking, locked).
    pub ok: bool,
    /// The value at execution time.
    pub value: &'a [u8],
    /// The version at execution time.
    pub version: u64,
    /// Byte offset of the item in the shard's registered region — the
    /// address later one-sided validation reads and commit writes target.
    pub item_off: u64,
}

/// Key, ok, version, offset, length-prefixed value.
impl<'a> WireItem<'a> for ExecItemView<'a> {
    const MIN_LEN: usize = 8 + 1 + 8 + 8 + 4;

    fn wire_len(&self) -> usize {
        Self::MIN_LEN + self.value.len()
    }

    fn put(&self, out: &mut &mut [u8]) {
        put(out, &self.key.to_le_bytes());
        put(out, &[self.ok as u8]);
        put(out, &self.version.to_le_bytes());
        put(out, &self.item_off.to_le_bytes());
        put(out, &(self.value.len() as u32).to_le_bytes());
        put(out, self.value);
    }

    fn take(raw: &mut &'a [u8]) -> Option<Self> {
        let key = take_u64(raw)?;
        let ok = take_u8(raw)? != 0;
        let version = take_u64(raw)?;
        let item_off = take_u64(raw)?;
        let len = take_u32(raw)? as usize;
        Some(ExecItemView {
            key,
            ok,
            value: take(raw, len)?,
            version,
            item_off,
        })
    }
}

/// The items of a received message, read in place: an iterator over the
/// wire bytes, checked when the message was decoded to hold exactly the
/// announced number of whole items.
#[derive(Clone, Copy, Debug)]
pub struct List<'a, T> {
    raw: &'a [u8],
    left: usize,
    item: PhantomData<T>,
}

impl<'a, T: WireItem<'a>> List<'a, T> {
    /// Reads the count and takes the rest of the message as its items.
    /// `None` unless that many items fill the rest exactly — so a count
    /// no message of this length could hold is refused before an item
    /// is looked at.
    fn decode(mut raw: &'a [u8]) -> Option<Self> {
        let left = take_u32(&mut raw)? as usize;
        if left > raw.len() / T::MIN_LEN {
            return None;
        }
        let list = List {
            raw,
            left,
            item: PhantomData,
        };
        let mut walk = list;
        for _ in 0..left {
            T::take(&mut walk.raw)?;
        }
        walk.raw.is_empty().then_some(list)
    }
}

impl<'a, T: WireItem<'a>> Iterator for List<'a, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.left = self.left.checked_sub(1)?;
        T::take(&mut self.raw)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<'a, T: WireItem<'a>> ExactSizeIterator for List<'a, T> {}

/// Coordinator → participant requests, as received.
#[derive(Clone, Copy, Debug)]
pub enum TxRequestView<'a> {
    /// Read items; lock those flagged (the write set).
    Execute {
        /// Transaction/coordinator id (lock owner).
        txid: u64,
        /// `(key, lock?)` pairs.
        items: List<'a, (u64, bool)>,
    },
    /// RPC-path validation: re-check read-set versions.
    Validate {
        /// `(key, expected_version)` pairs.
        items: List<'a, (u64, u64)>,
    },
    /// Append redo records for the commit.
    Log {
        /// Transaction id.
        txid: u64,
        /// `(key, new_value)` records.
        records: List<'a, (u64, &'a [u8])>,
    },
    /// RPC-path commit: install values, bump versions, release locks.
    Commit {
        /// Transaction id (lock owner).
        txid: u64,
        /// `(key, new_value)` pairs.
        items: List<'a, (u64, &'a [u8])>,
    },
    /// Release locks after an abort.
    Unlock {
        /// Transaction id (lock owner).
        txid: u64,
        /// Keys to unlock.
        keys: List<'a, u64>,
    },
}

/// Participant → coordinator responses, as received.
#[derive(Clone, Copy, Debug)]
pub enum TxResponseView<'a> {
    /// Execute result. `all_ok == false` means a lock or lookup failed
    /// and any locks taken by this request were rolled back.
    Execute {
        /// Whether every item succeeded.
        all_ok: bool,
        /// Per-item results (present only when `all_ok`).
        items: List<'a, ExecItemView<'a>>,
    },
    /// Validation result.
    Validate {
        /// Whether every version matched.
        ok: bool,
    },
    /// Generic success (Log/Commit/Unlock).
    Ok,
}

impl<'a> TxRequestView<'a> {
    /// Deserializes a request; `None` for anything but one whole message.
    pub fn decode(raw: &'a [u8]) -> Option<Self> {
        let (&tag, mut raw) = raw.split_first()?;
        Some(match tag {
            1 => TxRequestView::Execute {
                txid: take_u64(&mut raw)?,
                items: List::decode(raw)?,
            },
            2 => TxRequestView::Validate {
                items: List::decode(raw)?,
            },
            3 => TxRequestView::Log {
                txid: take_u64(&mut raw)?,
                records: List::decode(raw)?,
            },
            4 => TxRequestView::Commit {
                txid: take_u64(&mut raw)?,
                items: List::decode(raw)?,
            },
            5 => TxRequestView::Unlock {
                txid: take_u64(&mut raw)?,
                keys: List::decode(raw)?,
            },
            _ => return None,
        })
    }
}

impl<'a> TxResponseView<'a> {
    /// Deserializes a response; `None` for anything but one whole message.
    pub fn decode(raw: &'a [u8]) -> Option<Self> {
        match *raw {
            [1, all_ok, ref items @ ..] => Some(TxResponseView::Execute {
                all_ok: all_ok != 0,
                items: List::decode(items)?,
            }),
            [2, ok] => Some(TxResponseView::Validate { ok: ok != 0 }),
            [3] => Some(TxResponseView::Ok),
            _ => None,
        }
    }
}

/// Builds `tag | head | count | items` in its one allocation. `items`
/// is walked twice: once for the length, once to write.
fn message<'a, T: WireItem<'a>>(
    tag: u8,
    head: &[u8],
    items: impl Iterator<Item = T> + Clone,
) -> Bytes {
    let (count, items_len) = items
        .clone()
        .fold((0u32, 0), |(n, len), it| (n + 1, len + it.wire_len()));
    Bytes::build(1 + head.len() + 4 + items_len, |mut out| {
        put(&mut out, &[tag]);
        put(&mut out, head);
        put(&mut out, &count.to_le_bytes());
        for it in items {
            it.put(&mut out);
        }
        debug_assert!(out.is_empty());
    })
}

/// Serializes an Execute request for lock owner `txid`.
pub fn execute_request(txid: u64, items: impl Iterator<Item = (u64, bool)> + Clone) -> Bytes {
    message(1, &txid.to_le_bytes(), items)
}

/// Serializes a Validate request.
pub fn validate_request(items: impl Iterator<Item = (u64, u64)> + Clone) -> Bytes {
    message(2, &[], items)
}

/// Serializes a Log request.
pub fn log_request<'a>(txid: u64, records: impl Iterator<Item = (u64, &'a [u8])> + Clone) -> Bytes {
    message(3, &txid.to_le_bytes(), records)
}

/// Serializes a Commit request.
pub fn commit_request<'a>(
    txid: u64,
    items: impl Iterator<Item = (u64, &'a [u8])> + Clone,
) -> Bytes {
    message(4, &txid.to_le_bytes(), items)
}

/// Serializes an Unlock request.
pub fn unlock_request(txid: u64, keys: impl Iterator<Item = u64> + Clone) -> Bytes {
    message(5, &txid.to_le_bytes(), keys)
}

/// Serializes an Execute response.
pub fn execute_response<'a>(
    all_ok: bool,
    items: impl Iterator<Item = ExecItemView<'a>> + Clone,
) -> Bytes {
    message(1, &[all_ok as u8], items)
}

/// Serializes a Validate response.
pub fn validate_response(ok: bool) -> Bytes {
    Bytes::build(2, |out| out.copy_from_slice(&[2, ok as u8]))
}

/// Serializes the generic success response.
pub fn ok_response() -> Bytes {
    Bytes::build(1, |out| out[0] = 3)
}

/// The owned message types this module used to decode into and encode
/// from, kept as the reference the borrowed path is tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use bytes::Bytes;

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ExecItem {
        pub key: u64,
        pub ok: bool,
        pub value: Vec<u8>,
        pub version: u64,
        pub item_off: u64,
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TxRequest {
        Execute {
            txid: u64,
            items: Vec<(u64, bool)>,
        },
        Validate {
            items: Vec<(u64, u64)>,
        },
        Log {
            txid: u64,
            records: Vec<(u64, Vec<u8>)>,
        },
        Commit {
            txid: u64,
            items: Vec<(u64, Vec<u8>)>,
        },
        Unlock {
            txid: u64,
            keys: Vec<u64>,
        },
    }

    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TxResponse {
        Execute { all_ok: bool, items: Vec<ExecItem> },
        Validate { ok: bool },
        Ok,
    }

    fn put_bytes(b: &mut Vec<u8>, v: &[u8]) {
        b.extend((v.len() as u32).to_le_bytes());
        b.extend_from_slice(v);
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

    impl TxRequest {
        pub fn encode(&self) -> Bytes {
            let mut b = Vec::new();
            match self {
                TxRequest::Execute { txid, items } => {
                    b.push(1);
                    b.extend(txid.to_le_bytes());
                    b.extend((items.len() as u32).to_le_bytes());
                    for (k, lock) in items {
                        b.extend(k.to_le_bytes());
                        b.push(*lock as u8);
                    }
                }
                TxRequest::Validate { items } => {
                    b.push(2);
                    b.extend((items.len() as u32).to_le_bytes());
                    for (k, v) in items {
                        b.extend(k.to_le_bytes());
                        b.extend(v.to_le_bytes());
                    }
                }
                TxRequest::Log { txid, records } => {
                    b.push(3);
                    b.extend(txid.to_le_bytes());
                    b.extend((records.len() as u32).to_le_bytes());
                    for (k, v) in records {
                        b.extend(k.to_le_bytes());
                        put_bytes(&mut b, v);
                    }
                }
                TxRequest::Commit { txid, items } => {
                    b.push(4);
                    b.extend(txid.to_le_bytes());
                    b.extend((items.len() as u32).to_le_bytes());
                    for (k, v) in items {
                        b.extend(k.to_le_bytes());
                        put_bytes(&mut b, v);
                    }
                }
                TxRequest::Unlock { txid, keys } => {
                    b.push(5);
                    b.extend(txid.to_le_bytes());
                    b.extend((keys.len() as u32).to_le_bytes());
                    for k in keys {
                        b.extend(k.to_le_bytes());
                    }
                }
            }
            Bytes::from(b)
        }

        /// The parent's decoder, less its `Vec::with_capacity(n)` on the
        /// unchecked wire count (the 64 GB request of
        /// `huge_counts_are_refused_not_allocated`).
        pub fn decode(raw: &[u8]) -> Option<TxRequest> {
            let mut at = 1;
            match *raw.first()? {
                1 => {
                    let txid = get_u64(raw, &mut at)?;
                    let n = get_u32(raw, &mut at)? as usize;
                    let mut items = Vec::new();
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
                    let mut items = Vec::new();
                    for _ in 0..n {
                        items.push((get_u64(raw, &mut at)?, get_u64(raw, &mut at)?));
                    }
                    Some(TxRequest::Validate { items })
                }
                3 | 4 => {
                    let code = raw[0];
                    let txid = get_u64(raw, &mut at)?;
                    let n = get_u32(raw, &mut at)? as usize;
                    let mut records = Vec::new();
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
                    let mut keys = Vec::new();
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
        pub fn encode(&self) -> Bytes {
            let mut b = Vec::new();
            match self {
                TxResponse::Execute { all_ok, items } => {
                    b.push(1);
                    b.push(*all_ok as u8);
                    b.extend((items.len() as u32).to_le_bytes());
                    for it in items {
                        b.extend(it.key.to_le_bytes());
                        b.push(it.ok as u8);
                        b.extend(it.version.to_le_bytes());
                        b.extend(it.item_off.to_le_bytes());
                        put_bytes(&mut b, &it.value);
                    }
                }
                TxResponse::Validate { ok } => {
                    b.push(2);
                    b.push(*ok as u8);
                }
                TxResponse::Ok => b.push(3),
            }
            Bytes::from(b)
        }

        pub fn decode(raw: &[u8]) -> Option<TxResponse> {
            let mut at = 1;
            match *raw.first()? {
                1 => {
                    let all_ok = *raw.get(at)? != 0;
                    at += 1;
                    let n = get_u32(raw, &mut at)? as usize;
                    let mut items = Vec::new();
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
}

#[cfg(test)]
mod tests {
    use super::oracle::{ExecItem, TxRequest, TxResponse};
    use super::*;
    use simcore::{check_cases, DetRng};

    fn records(items: &[(u64, Vec<u8>)]) -> impl Iterator<Item = (u64, &[u8])> + Clone {
        items.iter().map(|(k, v)| (*k, &v[..]))
    }

    /// The borrowed encoder's bytes for an owned message.
    fn encode_request(r: &TxRequest) -> Bytes {
        match r {
            TxRequest::Execute { txid, items } => execute_request(*txid, items.iter().copied()),
            TxRequest::Validate { items } => validate_request(items.iter().copied()),
            TxRequest::Log { txid, records: r } => log_request(*txid, records(r)),
            TxRequest::Commit { txid, items } => commit_request(*txid, records(items)),
            TxRequest::Unlock { txid, keys } => unlock_request(*txid, keys.iter().copied()),
        }
    }

    fn encode_response(r: &TxResponse) -> Bytes {
        match r {
            TxResponse::Execute { all_ok, items } => execute_response(
                *all_ok,
                items.iter().map(|it| ExecItemView {
                    key: it.key,
                    ok: it.ok,
                    value: &it.value,
                    version: it.version,
                    item_off: it.item_off,
                }),
            ),
            TxResponse::Validate { ok } => validate_response(*ok),
            TxResponse::Ok => ok_response(),
        }
    }

    /// The owned message a view reads as.
    fn owned_request(v: TxRequestView<'_>) -> TxRequest {
        let owned = |l: List<'_, (u64, &[u8])>| l.map(|(k, v)| (k, v.to_vec())).collect();
        match v {
            TxRequestView::Execute { txid, items } => TxRequest::Execute {
                txid,
                items: items.collect(),
            },
            TxRequestView::Validate { items } => TxRequest::Validate {
                items: items.collect(),
            },
            TxRequestView::Log { txid, records } => TxRequest::Log {
                txid,
                records: owned(records),
            },
            TxRequestView::Commit { txid, items } => TxRequest::Commit {
                txid,
                items: owned(items),
            },
            TxRequestView::Unlock { txid, keys } => TxRequest::Unlock {
                txid,
                keys: keys.collect(),
            },
        }
    }

    fn owned_response(v: TxResponseView<'_>) -> TxResponse {
        match v {
            TxResponseView::Execute { all_ok, items } => TxResponse::Execute {
                all_ok,
                items: items
                    .map(|it| ExecItem {
                        key: it.key,
                        ok: it.ok,
                        value: it.value.to_vec(),
                        version: it.version,
                        item_off: it.item_off,
                    })
                    .collect(),
            },
            TxResponseView::Validate { ok } => TxResponse::Validate { ok },
            TxResponseView::Ok => TxResponse::Ok,
        }
    }

    fn decode_request(raw: &[u8]) -> Option<TxRequest> {
        TxRequestView::decode(raw).map(owned_request)
    }

    fn decode_response(raw: &[u8]) -> Option<TxResponse> {
        TxResponseView::decode(raw).map(owned_response)
    }

    /// Up to seven `(key, value)` records, values up to 47 bytes.
    fn draw_records(rng: &mut DetRng) -> Vec<(u64, Vec<u8>)> {
        rng.vec(0..8, |r| (r.edgy(), r.vec(0..48, |r| r.edgy() as u8)))
    }

    /// Same bytes out (every LLC/NIC charge, so every fingerprint,
    /// depends on them), same fields in, nothing from a cut message.
    #[test]
    fn requests_agree_with_the_owned_oracle() {
        check_cases("requests_agree_with_the_owned_oracle", |rng| {
            let kind = rng.below(5);
            let txid = rng.edgy();
            let flagged = rng.vec(0..12, |r| (r.edgy(), r.chance(0.5)));
            let pairs = rng.vec(0..12, |r| (r.edgy(), r.edgy()));
            let records = draw_records(rng);
            let req = match kind {
                0 => TxRequest::Execute {
                    txid,
                    items: flagged,
                },
                1 => TxRequest::Validate { items: pairs },
                2 => TxRequest::Log { txid, records },
                3 => TxRequest::Commit {
                    txid,
                    items: records,
                },
                _ => TxRequest::Unlock {
                    txid,
                    keys: pairs.into_iter().map(|p| p.0).collect(),
                },
            };
            let wire = encode_request(&req);
            assert_eq!(&wire, &req.encode());
            assert_eq!(decode_request(&wire), Some(req.clone()));
            assert_eq!(TxRequest::decode(&wire), Some(req));
            for cut in 0..wire.len() {
                assert!(
                    TxRequestView::decode(&wire[..cut]).is_none(),
                    "cut at {cut}"
                );
            }
        });
    }

    #[test]
    fn responses_agree_with_the_owned_oracle() {
        check_cases("responses_agree_with_the_owned_oracle", |rng| {
            let kind = rng.below(3);
            let flag = rng.chance(0.5);
            let values = draw_records(rng);
            let places: Vec<_> = (0..8)
                .map(|_| (rng.chance(0.5), rng.edgy(), rng.edgy()))
                .collect();
            let items = values
                .into_iter()
                .zip(places)
                .map(|((key, value), (ok, version, item_off))| ExecItem {
                    key,
                    ok,
                    value,
                    version,
                    item_off,
                })
                .collect();
            let resp = match kind {
                0 => TxResponse::Execute {
                    all_ok: flag,
                    items,
                },
                1 => TxResponse::Validate { ok: flag },
                _ => TxResponse::Ok,
            };
            let wire = encode_response(&resp);
            assert_eq!(&wire, &resp.encode());
            assert_eq!(decode_response(&wire), Some(resp.clone()));
            assert_eq!(TxResponse::decode(&wire), Some(resp));
            for cut in 0..wire.len() {
                assert!(
                    TxResponseView::decode(&wire[..cut]).is_none(),
                    "cut at {cut}"
                );
            }
        });
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_refused() {
        assert!(TxRequestView::decode(&[]).is_none());
        assert!(TxRequestView::decode(&[99]).is_none());
        assert!(TxResponseView::decode(&[0]).is_none());
        for whole in [ok_response(), validate_response(true)] {
            let mut long = whole.to_vec();
            long.push(0);
            assert!(TxResponseView::decode(&whole).is_some());
            assert!(TxResponseView::decode(&long).is_none());
        }
    }

    /// The parent's decoders passed the wire count to
    /// `Vec::with_capacity`: this 13-byte Execute asked for 64 GB and
    /// aborted the process.
    #[test]
    fn huge_counts_are_refused_not_allocated() {
        let mut msg = vec![1u8];
        msg.extend_from_slice(&7u64.to_le_bytes());
        msg.extend_from_slice(&[0xFF; 4]);
        assert!(TxRequestView::decode(&msg).is_none());
        assert!(TxResponseView::decode(&[1, 1, 0xFF, 0xFF, 0xFF, 0xFF]).is_none());
    }

    /// The items must fill the message exactly, so no other count reads
    /// the same bytes as a message.
    #[test]
    fn every_corruption_of_the_count_is_refused() {
        let value = vec![7u8; 8];
        let requests = [
            (9, execute_request(9, [(1, true), (2, false)].into_iter())),
            (1, validate_request([(5, 100), (6, 200)].into_iter())),
            (
                9,
                log_request(9, [(1, &value[..]), (2, &[][..])].into_iter()),
            ),
            (9, commit_request(9, [(1, &value[..])].into_iter())),
            (9, unlock_request(9, [1, 2, 3].into_iter())),
        ];
        let response = execute_response(
            true,
            [ExecItemView {
                key: 3,
                ok: true,
                value: &value,
                version: 12,
                item_off: 4096,
            }]
            .into_iter(),
        );
        let corrupt = |wire: &Bytes, count_at: usize, decodes: &dyn Fn(&[u8]) -> bool| {
            assert!(decodes(wire));
            for at in count_at..count_at + 4 {
                for byte in 0..=255u8 {
                    let mut bad = wire.to_vec();
                    if bad[at] != byte {
                        bad[at] = byte;
                        assert!(!decodes(&bad), "byte {at} = {byte} of {wire:?}");
                    }
                }
            }
        };
        for (count_at, wire) in &requests {
            corrupt(wire, *count_at, &|raw| TxRequestView::decode(raw).is_some());
        }
        corrupt(&response, 2, &|raw| TxResponseView::decode(raw).is_some());
    }
}
