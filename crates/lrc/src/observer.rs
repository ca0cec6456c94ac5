//! The engine's observable transitions, as one typed event.
//!
//! An [`EngineEvent`] reports an externally meaningful transition —
//! memory accesses, interval closes, record application, page installs —
//! to the engine's [`carlos_sim::Observers`] list, without being able to
//! influence it. The list is empty by default and observation charges no
//! simulated time, so observed runs are bit-identical to unobserved ones.
//! The `carlos-check` crate builds its happens-before tracker and
//! shadow-memory oracle on these events.

use crate::{interval::IntervalRecord, vc::Vc};

/// An engine transition, emitted synchronously on the owning node's proc.
#[derive(Debug, Clone, Copy)]
pub enum EngineEvent<'a> {
    /// A read of `data.len()` bytes at `addr` completed on `node`,
    /// returning the bytes in `data`, with the node's vector timestamp at
    /// `vt`.
    MemRead {
        /// Reading node.
        node: u32,
        /// Shared-memory address.
        addr: usize,
        /// Bytes read.
        data: &'a [u8],
        /// The node's vector timestamp.
        vt: &'a Vc,
    },
    /// A write of `data` at `addr` completed on `node`, whose vector
    /// timestamp is `vt` (the write belongs to the still-open interval
    /// `vt[node] + 1`).
    MemWrite {
        /// Writing node.
        node: u32,
        /// Shared-memory address.
        addr: usize,
        /// Bytes written.
        data: &'a [u8],
        /// The node's vector timestamp.
        vt: &'a Vc,
    },
    /// `node` closed an interval, creating `rec` (a release or acquire
    /// endpoint with at least one dirty page).
    IntervalClosed {
        /// Closing node.
        node: u32,
        /// The new interval record.
        rec: &'a IntervalRecord,
    },
    /// `node` applied the remote interval record `rec` (the acquire side),
    /// advancing its timestamp to cover it.
    RecordApplied {
        /// Applying node.
        node: u32,
        /// The applied record.
        rec: &'a IntervalRecord,
    },
    /// A node installed a full copy of a page.
    PageInstalled,
}
