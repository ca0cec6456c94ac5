//! The one observation interface of every layer: each layer emits a typed
//! event enum ([`crate::WireEvent`], [`crate::TransportEvent`], and the
//! engine and runtime events of the crates above) to an [`Observers`] list
//! of [`Observer`] sinks. Sinks run synchronously at the emitting site,
//! charge no virtual time and must not call back into the emitting layer,
//! so an observed run is bit-identical to an unobserved one.

use std::{fmt, sync::Arc};

/// A passive receiver of events of type `E`. It may record state, and may
/// panic or abort to escalate a detected violation.
pub trait Observer<E>: Send + Sync {
    /// `e` happened.
    fn observe(&self, e: &E);
}

/// A fan-out list of sinks, notified in installation order. `O` is the
/// sink trait object, e.g. `dyn for<'a> Observer<WireEvent<'a>>`.
pub struct Observers<O: ?Sized>(Vec<Arc<O>>);

impl<O: ?Sized> Observers<O> {
    /// Appends `sink`.
    pub fn add(&mut self, sink: Arc<O>) {
        self.0.push(sink);
    }

    /// True when no sink is installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Hands the event `event` builds to every sink. An empty list builds
    /// no event, so the unobserved path costs one branch.
    #[inline]
    pub fn emit<E>(&self, event: impl FnOnce() -> E)
    where
        O: Observer<E>,
    {
        if self.0.is_empty() {
            return;
        }
        let e = event();
        for sink in &self.0 {
            sink.observe(&e);
        }
    }
}

impl<O: ?Sized> Default for Observers<O> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<O: ?Sized> Clone for Observers<O> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }
}

impl<O: ?Sized> fmt::Debug for Observers<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Observers({})", self.0.len())
    }
}
