//! Wire format of metadata operations.

use bytes::Bytes;

/// Metadata operations, as evaluated in Fig. 1(a) and Fig. 13.
///
/// `Ord` follows declaration order, which matches the order the paper's
/// figures list the operations; per-op reports iterate in this order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FsOp {
    /// Create a file.
    Mknod,
    /// Remove a file.
    Rmnod,
    /// Look up a file's attributes.
    Stat,
    /// List a directory.
    Readdir,
}

impl FsOp {
    /// Numeric wire code.
    pub fn code(self) -> u8 {
        match self {
            FsOp::Mknod => 1,
            FsOp::Rmnod => 2,
            FsOp::Stat => 3,
            FsOp::Readdir => 4,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(c: u8) -> Option<FsOp> {
        match c {
            1 => Some(FsOp::Mknod),
            2 => Some(FsOp::Rmnod),
            3 => Some(FsOp::Stat),
            4 => Some(FsOp::Readdir),
            _ => None,
        }
    }

    /// All operations, in the order the paper's figures list them.
    pub fn all() -> [FsOp; 4] {
        [FsOp::Mknod, FsOp::Rmnod, FsOp::Stat, FsOp::Readdir]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FsOp::Mknod => "Mknod",
            FsOp::Rmnod => "Rmnod",
            FsOp::Stat => "Stat",
            FsOp::Readdir => "ReadDir",
        }
    }
}

/// A decoded request: an operation on a path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FsRequest {
    /// The operation.
    pub op: FsOp,
    /// The target path (UTF-8).
    pub path: String,
}

impl FsRequest {
    /// Serializes: `[op u8][path bytes]`.
    pub fn encode(&self) -> Bytes {
        Bytes::build(1 + self.path.len(), |out| {
            out[0] = self.op.code();
            out[1..].copy_from_slice(self.path.as_bytes());
        })
    }

    /// Deserializes a request.
    pub fn decode(raw: &[u8]) -> Option<FsRequest> {
        let (&code, path) = raw.split_first()?;
        Some(FsRequest {
            op: FsOp::from_code(code)?,
            path: String::from_utf8(path.to_vec()).ok()?,
        })
    }
}

/// A response: status byte plus op-specific body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsResponse {
    /// Operation succeeded with no body (Mknod/Rmnod).
    Ok,
    /// Stat result.
    Attr {
        /// Inode number.
        ino: u64,
        /// File size.
        size: u64,
        /// Modification timestamp (simulated nanoseconds).
        mtime: u64,
    },
    /// Directory listing (possibly truncated to a response page).
    Entries(Vec<String>),
    /// The operation failed.
    Err(u8),
}

impl FsResponse {
    /// Serializes the response.
    pub fn encode(&self) -> Bytes {
        let mut b = Vec::new();
        match self {
            FsResponse::Ok => b.push(0),
            FsResponse::Attr { ino, size, mtime } => {
                b.push(1);
                b.extend(ino.to_le_bytes());
                b.extend(size.to_le_bytes());
                b.extend(mtime.to_le_bytes());
            }
            FsResponse::Entries(names) => {
                b.push(2);
                b.extend((names.len() as u32).to_le_bytes());
                for n in names {
                    b.extend((n.len() as u16).to_le_bytes());
                    b.extend_from_slice(n.as_bytes());
                }
            }
            FsResponse::Err(code) => b.extend_from_slice(&[255, *code]),
        }
        Bytes::from(b)
    }

    /// Deserializes a response.
    pub fn decode(raw: &[u8]) -> Option<FsResponse> {
        match *raw.first()? {
            0 => Some(FsResponse::Ok),
            1 => {
                if raw.len() < 25 {
                    return None;
                }
                Some(FsResponse::Attr {
                    ino: u64::from_le_bytes(raw[1..9].try_into().ok()?),
                    size: u64::from_le_bytes(raw[9..17].try_into().ok()?),
                    mtime: u64::from_le_bytes(raw[17..25].try_into().ok()?),
                })
            }
            2 => {
                let n = u32::from_le_bytes(raw.get(1..5)?.try_into().ok()?) as usize;
                let mut out = Vec::with_capacity(n);
                let mut at = 5;
                for _ in 0..n {
                    let len = u16::from_le_bytes(raw.get(at..at + 2)?.try_into().ok()?) as usize;
                    at += 2;
                    out.push(String::from_utf8(raw.get(at..at + len)?.to_vec()).ok()?);
                    at += len;
                }
                Some(FsResponse::Entries(out))
            }
            255 => Some(FsResponse::Err(*raw.get(1)?)),
            _ => None,
        }
    }

    /// Whether the response indicates success.
    pub fn is_ok(&self) -> bool {
        !matches!(self, FsResponse::Err(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codes_round_trip() {
        for op in FsOp::all() {
            assert_eq!(FsOp::from_code(op.code()), Some(op));
        }
        assert_eq!(FsOp::from_code(0), None);
        assert_eq!(FsOp::from_code(9), None);
    }

    #[test]
    fn request_round_trip() {
        let r = FsRequest {
            op: FsOp::Stat,
            path: "/bench/client-3/file-000042".into(),
        };
        assert_eq!(FsRequest::decode(&r.encode()), Some(r));
        assert_eq!(FsRequest::decode(&[]), None);
        assert_eq!(FsRequest::decode(&[99, b'x']), None);
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            FsResponse::Ok,
            FsResponse::Attr {
                ino: 7,
                size: 4096,
                mtime: 123456789,
            },
            FsResponse::Entries(vec!["a".into(), "file-1".into(), "".into()]),
            FsResponse::Err(2),
        ] {
            assert_eq!(FsResponse::decode(&resp.encode()), Some(resp.clone()));
        }
    }

    #[test]
    fn truncated_entries_rejected() {
        let enc = FsResponse::Entries(vec!["abcdef".into()]).encode();
        assert_eq!(FsResponse::decode(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn variable_sized_responses_exceed_small_blocks() {
        // The reason Fig. 13 cannot include UD-based RPCs: listings are
        // variable-sized and can exceed small fixed buffers.
        let many: Vec<String> = (0..500).map(|i| format!("file-{i:06}")).collect();
        let enc = FsResponse::Entries(many).encode();
        assert!(enc.len() > 4096, "listing should exceed the UD MTU");
    }
}
