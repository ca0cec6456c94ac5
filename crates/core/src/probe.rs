//! The runtime's observable protocol events, as one typed event.
//!
//! A [`CoreEvent`] reports the runtime's release/acquire protocol
//! transitions — releases sent, releases accepted (complete or pending on
//! repair), repair requests, message sends and dispatches, protocol-cost
//! charges, demand fetches and sync waits — to the runtime's
//! [`carlos_sim::Observers`] list, without influencing them. Like the
//! engine-level [`carlos_lrc::EngineEvent`], the list is empty by default
//! and observation charges no simulated time, so observed runs are
//! bit-identical to unobserved ones.

use carlos_lrc::Vc;
use carlos_sim::{NodeId, Ns};

/// Message class for cost attribution, mirroring the paper's §5.4 microcost
/// accounting: the four user-message annotations plus internal
/// consistency-protocol traffic (diff/page/interval requests and replies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgClass {
    /// Annotation NONE — plain message, no consistency processing.
    None,
    /// Annotation REQUEST — carries the sender's timestamp.
    Request,
    /// Annotation RELEASE — carries timestamp, records, and diffs.
    Release,
    /// Annotation RELEASE_NT — non-transitive release.
    ReleaseNt,
    /// Internal SYS_* protocol traffic (diff/page/interval fetch).
    System,
}

impl MsgClass {
    /// All classes, in display order.
    pub const ALL: [MsgClass; 5] = [
        MsgClass::None,
        MsgClass::Request,
        MsgClass::Release,
        MsgClass::ReleaseNt,
        MsgClass::System,
    ];

    /// Display name matching the paper's annotation names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::None => "NONE",
            MsgClass::Request => "REQUEST",
            MsgClass::Release => "RELEASE",
            MsgClass::ReleaseNt => "RELEASE_NT",
            MsgClass::System => "SYSTEM",
        }
    }

    /// The class of a user message with annotation `a`.
    #[must_use]
    pub fn of(a: crate::Annotation) -> Self {
        match a {
            crate::Annotation::None => MsgClass::None,
            crate::Annotation::Request => MsgClass::Request,
            crate::Annotation::Release => MsgClass::Release,
            crate::Annotation::ReleaseNt => MsgClass::ReleaseNt,
        }
    }
}

/// The protocol phase a virtual-time charge belongs to (per-message-class
/// cost breakdown, §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CostPhase {
    /// Sender-side marshalling: timestamp, records, diff creation at send.
    Send,
    /// Receiver-side unmarshalling and timestamp bookkeeping.
    Recv,
    /// Acquire-side acceptance of a release (record application).
    Accept,
    /// Creating a diff to serve a fetch.
    DiffCreate,
    /// Applying a fetched or carried diff to a local page.
    DiffApply,
    /// Copying a whole page to serve (or install from) a page fetch.
    PageCopy,
    /// Applying write notices from fetched interval records.
    NoticeApply,
}

impl CostPhase {
    /// Display name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CostPhase::Send => "send",
            CostPhase::Recv => "recv",
            CostPhase::Accept => "accept",
            CostPhase::DiffCreate => "diff_create",
            CostPhase::DiffApply => "diff_apply",
            CostPhase::PageCopy => "page_copy",
            CostPhase::NoticeApply => "notice_apply",
        }
    }
}

/// What a demand fetch is asking the owner for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FetchKind {
    /// Diffs for a page this node holds an old copy of.
    Diffs,
    /// A full page copy (first access).
    Page,
}

/// Coherence-granule size class of a fetched unit, relative to the
/// cluster's base page size (variable-granularity coherence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GranuleClass {
    /// Sub-page granule (fine-grained shared data).
    Fine,
    /// Exactly the base page size (the legacy unit).
    Page,
    /// Super-page granule (bulk array regions).
    Bulk,
}

impl GranuleClass {
    /// All classes, in display order.
    pub const ALL: [GranuleClass; 3] = [GranuleClass::Fine, GranuleClass::Page, GranuleClass::Bulk];

    /// Classifies a granule of `granule_len` bytes against `page_size`.
    #[must_use]
    pub fn of(granule_len: usize, page_size: usize) -> Self {
        match granule_len.cmp(&page_size) {
            std::cmp::Ordering::Less => GranuleClass::Fine,
            std::cmp::Ordering::Equal => GranuleClass::Page,
            std::cmp::Ordering::Greater => GranuleClass::Bulk,
        }
    }

    /// Display name for reports and counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GranuleClass::Fine => "fine",
            GranuleClass::Page => "page",
            GranuleClass::Bulk => "bulk",
        }
    }
}

/// A runtime protocol event, emitted synchronously on the observed node's
/// proc. Sinks may record state (and may panic or abort to escalate a
/// violation) but must not call back into the runtime.
#[derive(Debug, Clone, Copy)]
pub enum CoreEvent<'a> {
    /// `node` sent a RELEASE (or RELEASE_NT) whose required timestamp is
    /// `required` (the sender's timestamp after closing the release
    /// interval).
    ReleaseSent {
        /// Releasing node.
        node: NodeId,
        /// The release's required timestamp.
        required: &'a Vc,
    },
    /// `node` ran the acquire side for a RELEASE. `complete` is false when
    /// the carried records left a causal gap and the accept is parked
    /// pending repair.
    ReleaseAccepted {
        /// Acquiring node.
        node: NodeId,
        /// The release's required timestamp.
        required: &'a Vc,
        /// Whether acceptance completed.
        complete: bool,
    },
    /// A node asked a release's originator for the interval records it
    /// lacks (the SYS_IVAL_REQ repair).
    RepairRequested,
    /// `node` is handing a message of `class` for handler `handler` to its
    /// transport toward `dst`. Fires immediately before the transport-level
    /// send, so a trace layer can pair it with the next
    /// [`carlos_sim::TransportEvent::Sent`] on the same (node, dst) pair.
    MsgSent {
        /// Sending node.
        node: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Message class.
        class: MsgClass,
        /// Destination handler id.
        handler: u32,
        /// Virtual time.
        at: Ns,
    },
    /// `node` decoded an in-order message from `src` and is about to run
    /// its consistency processing and handler. Pairs with the preceding
    /// [`carlos_sim::TransportEvent::Delivered`] on (node, src).
    MsgDispatched {
        /// Receiving node.
        node: NodeId,
        /// Sending node.
        src: NodeId,
        /// Message class.
        class: MsgClass,
        /// Handler id.
        handler: u32,
        /// Encoded message length.
        bytes: usize,
        /// Virtual time.
        at: Ns,
    },
    /// `node` charged `ns` of virtual time to protocol work of `phase` on
    /// behalf of a message of `class`. The charge begins at `at`. Summing
    /// these per (class, phase) reproduces the paper's §5.4 microcost
    /// table.
    ProtocolCost {
        /// Charged node.
        node: NodeId,
        /// Message class the work serves.
        class: MsgClass,
        /// Protocol phase.
        phase: CostPhase,
        /// Charged virtual time.
        ns: Ns,
        /// Start of the charge.
        at: Ns,
    },
    /// `node` issued a demand fetch for `page` to `server` (a page fault
    /// needing diffs or a full copy). Ends at the matching `FetchFinished`.
    FetchStarted {
        /// Faulting node.
        node: NodeId,
        /// Serving node.
        server: NodeId,
        /// Fetched granule.
        page: u32,
        /// Diffs or a full copy.
        kind: FetchKind,
        /// Virtual time.
        at: Ns,
    },
    /// The reply for `node`'s outstanding fetch of `page` from `server`
    /// arrived and was applied.
    FetchFinished {
        /// Faulting node.
        node: NodeId,
        /// Serving node.
        server: NodeId,
        /// Fetched granule.
        page: u32,
        /// Virtual time.
        at: Ns,
    },
    /// A fetch reply delivered `bytes` of payload (diff bytes or a full
    /// granule copy) for a granule of size class `class`. Fires
    /// once per fulfilled demand — including each sub-reply of a coalesced
    /// batch — so summing per class reproduces the per-granule-class
    /// traffic columns of the report tables.
    FetchFulfilled {
        /// The granule's size class.
        class: GranuleClass,
        /// Payload bytes delivered.
        bytes: usize,
    },
    /// `node` entered (`begin` true) or left (`begin` false) a blocking
    /// synchronization wait: `what` names the operation ("lock",
    /// "barrier", ...) and `id` the object. Emitted by the sync layer
    /// through [`crate::Runtime::sync_wait`].
    SyncWait {
        /// Waiting node.
        node: NodeId,
        /// The operation.
        what: &'static str,
        /// The object id.
        id: u32,
        /// Entering (true) or leaving (false) the wait.
        begin: bool,
        /// Virtual time.
        at: Ns,
    },
}
