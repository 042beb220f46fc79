//! Session establishment, idle expiry, and replay protection.
//!
//! A session is keyed by the PASTA nonce its frames carry: the nonce
//! doubles as the session ID, so a replayed session ID is exactly a
//! reused nonce — which would also reuse keystream, making the replay
//! check a cryptographic requirement, not just a protocol nicety. Once a
//! nonce has ever been opened it can never be opened again, even after
//! the session idle-expires.

use pasta_pipeline::RefusalReason;
use std::collections::{BTreeMap, BTreeSet};

/// Per-session bookkeeping.
#[derive(Debug, Clone, Copy)]
struct SessionState {
    opened_us: u64,
    last_active_us: u64,
}

/// One tenant's session registry.
#[derive(Debug)]
pub struct SessionTable {
    idle_timeout_us: u64,
    active: BTreeMap<u128, SessionState>,
    used_nonces: BTreeSet<u128>,
    expired: u64,
}

impl SessionTable {
    /// An empty table; sessions idle longer than `idle_timeout_us` are
    /// expired on their next touch or by [`SessionTable::expire_idle`],
    /// which the server runs on every open.
    #[must_use]
    pub fn new(idle_timeout_us: u64) -> Self {
        SessionTable {
            idle_timeout_us,
            active: BTreeMap::new(),
            used_nonces: BTreeSet::new(),
            expired: 0,
        }
    }

    /// Opens a session under `nonce`.
    ///
    /// # Errors
    ///
    /// [`RefusalReason::SessionExpired`] when the nonce was ever used
    /// before (replay — including re-opening an expired session's ID).
    pub fn open(&mut self, now_us: u64, nonce: u128) -> Result<(), RefusalReason> {
        if !self.used_nonces.insert(nonce) {
            return Err(RefusalReason::SessionExpired);
        }
        self.active.insert(
            nonce,
            SessionState {
                opened_us: now_us,
                last_active_us: now_us,
            },
        );
        Ok(())
    }

    /// Marks activity on a session, refreshing its idle timer.
    ///
    /// # Errors
    ///
    /// [`RefusalReason::SessionExpired`] when the session is unknown,
    /// was never opened, or sat idle past the timeout (in which case it
    /// is removed here).
    pub fn touch(&mut self, now_us: u64, nonce: u128) -> Result<(), RefusalReason> {
        let Some(state) = self.active.get_mut(&nonce) else {
            return Err(RefusalReason::SessionExpired);
        };
        if now_us.saturating_sub(state.last_active_us) > self.idle_timeout_us {
            self.active.remove(&nonce);
            self.expired += 1;
            return Err(RefusalReason::SessionExpired);
        }
        state.last_active_us = now_us;
        Ok(())
    }

    /// Sweeps out every session idle past the timeout; returns how many
    /// were expired.
    pub fn expire_idle(&mut self, now_us: u64) -> usize {
        let timeout = self.idle_timeout_us;
        let before = self.active.len();
        self.active
            .retain(|_, s| now_us.saturating_sub(s.last_active_us) <= timeout);
        let removed = before - self.active.len();
        self.expired += removed as u64;
        removed
    }

    /// Virtual time a session has been open, if it is still active.
    #[must_use]
    pub fn age_us(&self, now_us: u64, nonce: u128) -> Option<u64> {
        self.active
            .get(&nonce)
            .map(|s| now_us.saturating_sub(s.opened_us))
    }

    /// Number of currently active sessions.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Total sessions expired for idleness so far.
    #[must_use]
    pub fn expired_count(&self) -> u64 {
        self.expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_touch_and_replay() {
        let mut table = SessionTable::new(1_000);
        table.open(0, 42).unwrap();
        assert_eq!(table.active_count(), 1);
        assert!(table.touch(500, 42).is_ok());
        assert_eq!(
            table.open(600, 42),
            Err(RefusalReason::SessionExpired),
            "replayed session ID must be refused"
        );
        assert_eq!(table.touch(0, 7), Err(RefusalReason::SessionExpired));
    }

    #[test]
    fn idle_expiry_is_permanent() {
        let mut table = SessionTable::new(1_000);
        table.open(0, 9).unwrap();
        assert!(table.touch(900, 9).is_ok(), "within timeout");
        assert!(table.touch(1_900, 9).is_ok(), "timer was refreshed");
        assert_eq!(
            table.touch(3_000, 9),
            Err(RefusalReason::SessionExpired),
            "idle past the timeout"
        );
        assert_eq!(table.expired_count(), 1);
        assert_eq!(
            table.open(3_001, 9),
            Err(RefusalReason::SessionExpired),
            "an expired session's nonce stays burned"
        );
    }

    #[test]
    fn sweep_expires_in_bulk() {
        let mut table = SessionTable::new(100);
        for nonce in 0..5u128 {
            table.open(0, nonce).unwrap();
        }
        table.touch(90, 3).unwrap();
        assert_eq!(table.expire_idle(150), 4);
        assert_eq!(table.active_count(), 1);
        assert_eq!(table.age_us(150, 3), Some(150));
        assert_eq!(table.age_us(150, 0), None);
    }

    #[test]
    fn sweep_on_open_bounds_the_table_and_keeps_nonces_burned() {
        // The server's order: sweep at the open's stamp, then open. With
        // opens spaced beyond the timeout, only the newest stays active.
        let timeout = 1_000;
        let mut table = SessionTable::new(timeout);
        for nonce in 0..50u128 {
            let now = nonce as u64 * (timeout + 1);
            table.expire_idle(now);
            table.open(now, nonce).unwrap();
            assert_eq!(table.active_count(), 1);
        }
        assert_eq!(table.expired_count(), 49);
        // A swept session's nonce is still refused on re-open.
        let now = 50 * (timeout + 1);
        table.expire_idle(now);
        assert_eq!(table.open(now, 3), Err(RefusalReason::SessionExpired));
        assert_eq!(table.open(now, 49), Err(RefusalReason::SessionExpired));
    }
}
