//! # filterscope-core
//!
//! Shared vocabulary types for the `filterscope` workspace: calendar
//! timestamps matching the Blue Coat log format, IPv4 CIDR blocks, proxy
//! identifiers for the seven SG-9000 appliances studied in the paper, and a
//! common error type.
//!
//! Everything in this crate is deliberately dependency-free, `Copy`-friendly
//! where possible, and total (no panics on untrusted input).

#![forbid(unsafe_code)]

pub mod bytes;
pub mod error;
pub mod fs;
pub mod intern;
pub mod json;
pub mod net;
pub mod pool;
pub mod progress;
pub mod proxy_id;
pub mod time;

pub use bytes::{crc32, ByteReader, ByteWriter};
pub use error::{Error, Result};
pub use intern::{Interner, Sym};
pub use json::Json;
pub use net::Ipv4Cidr;
pub use progress::Progress;
pub use proxy_id::ProxyId;
pub use time::{Date, TimeOfDay, Timestamp, Weekday};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::error::{Error, Result};
    pub use crate::net::Ipv4Cidr;
    pub use crate::proxy_id::ProxyId;
    pub use crate::time::{Date, TimeOfDay, Timestamp, Weekday};
}
