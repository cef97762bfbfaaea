//! Core-side observability plumbing: every finished estimation session is
//! folded into the process-global probes in [`relcomp_obs::sampler`] and
//! into a **thread-local accumulator** ([`take_thread_session_stats`]) that
//! the serve engine drains around a query to split its trace into `sample`
//! vs `convergence_check` time. This works because every estimation path —
//! resident estimators, the parallel sampler's `run_adaptive` (which
//! evaluates the stopping rule at round barriers on the caller thread), and
//! the fixed paths — funnels through [`crate::session::finish_estimate`] on
//! the thread that issued the query.
//!
//! Time spent inside the convergence stopping rule is measured by
//! `should_stop` itself into a thread-local tally and drained into the next
//! session observation, so "sampling time" vs "deciding-to-stop time" are
//! separable without threading timers through every estimator.

use std::cell::Cell;

pub use relcomp_obs::SessionObservation;

/// Sessions finished on this thread since the last
/// [`take_thread_session_stats`], summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSessionStats {
    /// Sessions finished on this thread.
    pub sessions: u64,
    /// Worlds sampled across those sessions.
    pub samples: u64,
    /// Sampling batches taken across those sessions.
    pub batches: u64,
    /// Summed session wall time, microseconds.
    pub micros: u64,
    /// Summed time inside the convergence stopping rule, nanoseconds.
    pub convergence_nanos: u64,
}

thread_local! {
    static CONVERGENCE_NANOS: Cell<u64> = const { Cell::new(0) };
    static THREAD_STATS: Cell<ThreadSessionStats> = const { Cell::new(ThreadSessionStats {
        sessions: 0,
        samples: 0,
        batches: 0,
        micros: 0,
        convergence_nanos: 0,
    }) };
}

/// Tally nanoseconds spent inside the convergence stopping rule on this
/// thread (drained into the next session observation).
pub(crate) fn note_convergence_nanos(nanos: u64) {
    CONVERGENCE_NANOS.with(|c| c.set(c.get().saturating_add(nanos)));
}

pub(crate) fn take_convergence_nanos() -> u64 {
    CONVERGENCE_NANOS.with(|c| c.replace(0))
}

/// Record one finished estimation session: global sampler probes and this
/// thread's accumulator.
pub(crate) fn emit_session(obs: SessionObservation) {
    relcomp_obs::note_session(&obs);
    THREAD_STATS.with(|c| {
        let mut s = c.get();
        s.sessions += 1;
        s.samples += obs.samples;
        s.batches += obs.batches;
        s.micros += obs.micros;
        s.convergence_nanos += obs.convergence_nanos;
        c.set(s);
    });
}

/// Drain the session stats accumulated on the calling thread. The serve
/// engine calls this before and after `compute` to attribute a query's
/// estimation work (covering multi-session queries like top-k) to the
/// `sample` / `convergence_check` trace stages.
pub fn take_thread_session_stats() -> ThreadSessionStats {
    THREAD_STATS.with(|c| c.replace(ThreadSessionStats::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_updates_thread_stats() {
        let _ = take_thread_session_stats();

        note_convergence_nanos(40);
        let conv = take_convergence_nanos();
        assert_eq!(conv, 40);
        assert_eq!(take_convergence_nanos(), 0);

        emit_session(SessionObservation {
            samples: 128,
            batches: 2,
            micros: 10,
            convergence_nanos: conv,
            stop_reason: "converged",
        });
        emit_session(SessionObservation {
            samples: 64,
            batches: 1,
            micros: 5,
            convergence_nanos: 0,
            stop_reason: "fixed_k",
        });

        let stats = take_thread_session_stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.samples, 192);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.micros, 15);
        assert_eq!(stats.convergence_nanos, 40);
        assert_eq!(take_thread_session_stats(), ThreadSessionStats::default());
    }
}
