//! MICA-style in-memory key-value store.
//!
//! The storage substrate of the paper's ScaleTX evaluation (§4.2): "an
//! in-memory hash table which has the same layout as that of MICA". Two
//! properties matter for the transaction protocol:
//!
//! - **co-located version numbers and lock words**: every item embeds its
//!   version and lock next to the value, so a coordinator can validate a
//!   read set with one 8-byte RDMA read per key and commit a write with a
//!   single RDMA write covering `version | lock | value`;
//! - **stable addresses in one flat byte region**: the table indexes into
//!   a caller-provided buffer (registered as an RDMA memory region by the
//!   server), so item offsets handed to clients remain valid for
//!   one-sided access.
//!
//! The crate is deliberately fabric-agnostic: it operates on `&mut [u8]`
//! and the simulation layers the buffer inside a registered MR.

pub mod item;
pub mod table;

pub use item::{ItemRef, ITEM_HEADER};
pub use table::{KvError, KvTable};
