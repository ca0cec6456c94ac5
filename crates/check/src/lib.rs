//! Online consistency oracle for the CarlOS simulator.
//!
//! `carlos-check` attaches a [`Checker`] to a simulated cluster and
//! validates, as the run unfolds, that the DSM actually delivers the lazy
//! release consistency contract it claims:
//!
//! - a **happens-before tracker** mirrors the vector timestamps carried by
//!   REQUEST/RELEASE/FORWARD annotations and re-derives the causal order of
//!   intervals, flagging non-monotone closes, out-of-order applies, and
//!   release/accept verdicts that contradict the mirrored state;
//! - a **shadow-memory oracle** keeps a per-word last-writer history and
//!   validates that every read returns a value some write produced that is
//!   not ordered *after* the read — a stale read past an established
//!   acquire is a protocol bug, not an application bug;
//! - a **data-race detector** reports concurrent writes (and uncovered
//!   reads) of the same word from different nodes with no intervening
//!   release/acquire chain, attributed by `(node, interval, address)`.
//!
//! The checker is an observer: it is invoked synchronously from the engine
//! and runtime hot paths but never sends messages, never advances virtual
//! time, and never perturbs scheduling. A run with the checker installed
//! produces a bit-identical [`carlos_sim::SimReport`] fingerprint to the
//! same run without it.
//!
//! By default violations accumulate and are inspected at the end of the
//! run via [`Checker::violations`] / [`Checker::assert_clean`]. With
//! [`Checker::fail_fast`], the first violation aborts the offending node
//! through [`carlos_sim::abort`], surfacing as
//! [`carlos_sim::SimError::Aborted`].
//!
//! Benign, intentionally racy words (e.g. a monotonically improving bound
//! polled without a lock) can be exempted from read-side checks with
//! [`Checker::allow_racy`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delivery;
mod hb;
mod oracle;

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use carlos_core::{CoreEvent, Runtime};
use carlos_lrc::EngineEvent;
use carlos_sim::{Cluster, Observer, TransportEvent, WireEvent};
use parking_lot::Mutex;

use delivery::DeliveryLog;
pub use delivery::DeliveryEvent;
use hb::HbTracker;
use oracle::Oracle;

/// What a [`Violation`] asserts went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two writes to the same word from different nodes with concurrent
    /// interval timestamps — no release/acquire chain orders them.
    WriteWriteRace,
    /// A read of a word for which another node's write is neither covered
    /// by the reader's timestamp nor causally after the read.
    ReadWriteRace,
    /// A race-free word read returned a value other than the one written
    /// by the unique most recent covered write.
    StaleRead,
    /// A nonzero value was read from a word no observed write produced.
    UnknownValue,
    /// The happens-before mirror caught the protocol misbehaving: a
    /// non-monotone close, an out-of-order apply, a timestamp mismatch, or
    /// a completeness verdict that contradicts the mirrored state.
    HbOrder,
}

/// One consistency violation, attributed to the node and (open) interval
/// that observed it and the word-aligned address involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The class of violation.
    pub kind: ViolationKind,
    /// Node at which the violation was observed.
    pub node: u32,
    /// That node's interval at observation time (the still-open interval
    /// for memory accesses).
    pub interval: u32,
    /// Word-aligned shared-memory address, or 0 for non-memory violations.
    pub addr: usize,
    /// Human-readable description naming the other party.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} at node {} interval {} addr {:#x}: {}",
            self.kind, self.node, self.interval, self.addr, self.detail
        )
    }
}

struct State {
    hb: HbTracker,
    oracle: Oracle,
    deliveries: DeliveryLog,
    violations: Vec<Violation>,
    reported: HashSet<String>,
    fail_fast: bool,
}

impl State {
    /// Deduplicate and store `found`; returns the first fresh violation's
    /// message when fail-fast escalation should fire.
    fn record(&mut self, found: Vec<(String, Violation)>) -> Option<String> {
        let mut first = None;
        for (key, v) in found {
            if self.reported.insert(key) {
                if first.is_none() {
                    first = Some(v.to_string());
                }
                self.violations.push(v);
            }
        }
        if self.fail_fast {
            first
        } else {
            None
        }
    }
}

/// The online LRC oracle. Cheap to clone (all clones share one state);
/// [`install`](Checker::install) it on every node's runtime and
/// [`attach`](Checker::attach) it to the cluster before the run.
#[derive(Clone)]
pub struct Checker {
    inner: Arc<Mutex<State>>,
}

impl fmt::Debug for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.inner.lock();
        write!(
            f,
            "Checker({} violations{})",
            st.violations.len(),
            if st.fail_fast { ", fail-fast" } else { "" }
        )
    }
}

impl Checker {
    /// A checker for an `n_nodes`-node cluster, accumulating violations.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(State {
                hb: HbTracker::new(n_nodes),
                oracle: Oracle::new(n_nodes),
                deliveries: DeliveryLog::new(n_nodes),
                violations: Vec::new(),
                reported: HashSet::new(),
                fail_fast: false,
            })),
        }
    }

    /// Escalate the first violation by aborting the offending node (the
    /// run then fails with [`carlos_sim::SimError::Aborted`]). Violations
    /// observed on the wire-delivery path are never escalated — that path
    /// runs outside any node — but they still accumulate.
    #[must_use]
    pub fn fail_fast(self) -> Self {
        self.inner.lock().fail_fast = true;
        self
    }

    /// Add the checker to one node's runtime observers (engine and core
    /// events). Call from the node closure, before the application touches
    /// shared memory.
    pub fn install(&self, rt: &mut Runtime) {
        rt.observe(Arc::new(self.clone()));
    }

    /// Add the checker to the cluster's wire observers (FIFO delivery
    /// checks and the delivery log).
    pub fn attach(&self, cluster: &mut Cluster) {
        cluster.observe(Arc::new(self.clone()));
    }

    /// Exempt `[addr, addr + len)` from read-side checks. Use for words an
    /// application intentionally reads without synchronization (the read
    /// must tolerate any previously written value). Write/write race
    /// detection still applies.
    pub fn allow_racy(&self, addr: usize, len: usize) {
        self.inner.lock().oracle.allow_racy(addr, len);
    }

    /// The wire-delivery log in observation (virtual-time) order, each
    /// delivery annotated with message-level vector clocks. The schedule
    /// explorer queries this — via [`DeliveryEvent::flip_unordered`] — for
    /// the racing-delivery frontier of a finished run.
    #[must_use]
    pub fn deliveries(&self) -> Vec<DeliveryEvent> {
        self.inner.lock().deliveries.events().to_vec()
    }

    /// All violations recorded so far, in observation order.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().violations.clone()
    }

    /// True when no violation has been recorded.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.inner.lock().violations.is_empty()
    }

    /// Panics with a full listing if any violation was recorded.
    pub fn assert_clean(&self) {
        let st = self.inner.lock();
        assert!(
            st.violations.is_empty(),
            "consistency oracle found {} violation(s):\n{}",
            st.violations.len(),
            st.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Run one oracle `step` under the state lock and record what it
    /// finds; in fail-fast mode, abort `node` on the first fresh violation.
    /// Only safe from a node's own execution context.
    fn check(&self, node: u32, step: impl FnOnce(&mut State) -> Vec<(String, Violation)>) {
        let first = {
            let mut st = self.inner.lock();
            let found = step(&mut st);
            st.record(found)
        };
        if let Some(m) = first {
            carlos_sim::abort(node, m);
        }
    }
}

impl Observer<EngineEvent<'_>> for Checker {
    fn observe(&self, e: &EngineEvent<'_>) {
        match *e {
            EngineEvent::MemRead {
                node,
                addr,
                data,
                vt,
            } => self.check(node, |st| st.oracle.on_read(node, addr, data, vt)),
            EngineEvent::MemWrite {
                node,
                addr,
                data,
                vt,
            } => self.check(node, |st| {
                st.oracle.on_write(node, addr, data, vt, &st.hb.node_vt)
            }),
            EngineEvent::IntervalClosed { node, rec } => {
                self.check(node, |st| st.hb.on_interval_closed(node, rec));
            }
            EngineEvent::RecordApplied { node, rec } => {
                self.check(node, |st| st.hb.on_record_applied(node, rec));
            }
            EngineEvent::PageInstalled => {}
        }
    }
}

impl Observer<CoreEvent<'_>> for Checker {
    fn observe(&self, e: &CoreEvent<'_>) {
        match *e {
            CoreEvent::ReleaseSent { node, required } => {
                self.check(node, |st| st.hb.on_release_sent(node, required));
            }
            CoreEvent::ReleaseAccepted {
                node,
                required,
                complete,
            } => self.check(node, |st| {
                st.hb.on_release_accepted(node, required, complete)
            }),
            _ => {}
        }
    }
}

/// The checker reads the wire, not the transport.
impl Observer<TransportEvent> for Checker {
    fn observe(&self, _: &TransportEvent) {}
}

/// The wire-delivery path records violations but never escalates: it runs
/// under the kernel lock, outside any node.
impl Observer<WireEvent<'_>> for Checker {
    fn observe(&self, e: &WireEvent<'_>) {
        let mut st = self.inner.lock();
        match *e {
            WireEvent::Sent { dst, dgram } => st.deliveries.on_sent(dst, dgram),
            WireEvent::Dropped { dst, dgram } => st.deliveries.on_dropped(dst, dgram),
            WireEvent::Delivered { dst, dgram, at } => {
                let found = st.hb.on_frame(dgram.src, dst, dgram.sent_at, at);
                let _ = st.record(found);
                st.deliveries.on_delivered(dst, dgram, at);
            }
        }
    }
}
