//! Shared-resource timing primitives used by both simulators.

/// A serially-shared bandwidth resource (global memory port, bus): FCFS
/// service, one request at a time.
#[derive(Debug, Clone, Default)]
pub(crate) struct BandwidthServer {
    free_at: u64,
}

impl BandwidthServer {
    /// Creates an idle server.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Requests `cycles` of service no earlier than `now`; returns the
    /// completion time.
    pub(crate) fn acquire(&mut self, now: u64, cycles: u64) -> u64 {
        self.free_at = self.free_at.max(now) + cycles;
        self.free_at
    }
}

/// Tracks a core's activity span for leakage integration.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActivitySpan {
    first: Option<u64>,
    last: u64,
    busy: u64,
}

impl ActivitySpan {
    /// Records activity over `[start, end)`.
    pub(crate) fn record(&mut self, start: u64, end: u64) {
        if self.first.is_none() {
            self.first = Some(start);
        }
        self.first = Some(self.first.unwrap().min(start));
        self.last = self.last.max(end);
        self.busy += end.saturating_sub(start);
    }

    /// `true` if anything was recorded.
    pub(crate) fn is_active(&self) -> bool {
        self.first.is_some()
    }

    /// First-activity to last-activity span (0 when idle).
    pub(crate) fn span(&self) -> u64 {
        match self.first {
            Some(f) => self.last.saturating_sub(f),
            None => 0,
        }
    }

    /// End of the last recorded activity.
    pub(crate) fn last_end(&self) -> u64 {
        self.last
    }

    /// Sum of recorded busy intervals (may exceed span if overlapping
    /// units are recorded; used as a utilization indicator only).
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_server_serializes_fcfs() {
        let mut s = BandwidthServer::new();
        assert_eq!(s.acquire(0, 10), 10);
        // Second request waits for the first.
        assert_eq!(s.acquire(5, 10), 20);
        // Idle gap: starts at `now`.
        assert_eq!(s.acquire(100, 5), 105);
    }

    #[test]
    fn activity_span_tracks_extremes() {
        let mut a = ActivitySpan::default();
        assert!(!a.is_active());
        assert_eq!(a.span(), 0);
        a.record(10, 20);
        a.record(50, 60);
        a.record(5, 8);
        assert!(a.is_active());
        assert_eq!(a.span(), 55); // 60 - 5
        assert_eq!(a.last_end(), 60);
        assert_eq!(a.busy_cycles(), 23);
    }
}
