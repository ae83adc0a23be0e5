//! Session-churn telemetry for long-lived streaming runtimes.
//!
//! A run-to-completion batch only needs frame counters; a long-lived
//! service also wants to know how its *population* of sessions moved:
//! how many were admitted, how many were explicitly retired by a caller,
//! how many completed their streams, and how crowded the service got at
//! its busiest. [`ChurnCounters`] is that ledger; the streaming runtime
//! keeps one and hands it out with the final service report.

/// Running counters of session admission, retirement and completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnCounters {
    /// Sessions admitted into the runtime since it started.
    pub admitted: u64,
    /// Sessions a caller explicitly retired (awaited the final report of).
    /// A session can complete without ever being retired — its report is
    /// then delivered with the shutdown drain — so `retired <= completed`
    /// at shutdown but not necessarily before.
    pub retired: u64,
    /// Sessions whose streams finished (final report produced).
    pub completed: u64,
    /// Sessions whose streams were hard-cancelled: ended before their
    /// configured frame budget, with a partial report. A cancelled session
    /// still counts as `completed` (its final — partial — report was
    /// produced), so `cancelled <= completed`.
    pub cancelled: u64,
    /// Largest number of sessions that were in flight at the same time.
    pub peak_concurrent: u64,
}

impl ChurnCounters {
    /// Sessions admitted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.admitted - self.completed
    }

    /// Records one admission and refreshes the concurrency high-water mark.
    pub fn record_admission(&mut self) {
        self.admitted += 1;
        self.peak_concurrent = self.peak_concurrent.max(self.in_flight());
    }

    /// Records one explicit retirement request.
    pub fn record_retirement(&mut self) {
        self.retired += 1;
    }

    /// Records one hard-cancelled session (stream ended before its frame
    /// budget, partial report delivered).
    ///
    /// # Panics
    ///
    /// Panics if more cancellations than completions are recorded — record
    /// the cancellation when the (partial) final report arrives, alongside
    /// [`Self::record_completion`].
    pub fn record_cancellation(&mut self) {
        assert!(
            self.cancelled < self.completed,
            "cancellation recorded for a session without a final report"
        );
        self.cancelled += 1;
    }

    /// Records one completed session stream.
    ///
    /// # Panics
    ///
    /// Panics if more completions than admissions are recorded — that is
    /// always an accounting bug in the caller.
    pub fn record_completion(&mut self) {
        assert!(
            self.completed < self.admitted,
            "completion recorded for a session that was never admitted"
        );
        self.completed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admissions_and_completions_balance() {
        let mut churn = ChurnCounters::default();
        churn.record_admission();
        churn.record_admission();
        assert_eq!(churn.in_flight(), 2);
        churn.record_completion();
        assert_eq!(churn.in_flight(), 1);
        assert_eq!(churn.admitted, 2);
        assert_eq!(churn.completed, 1);
    }

    #[test]
    fn peak_concurrency_is_a_high_water_mark() {
        let mut churn = ChurnCounters::default();
        churn.record_admission();
        churn.record_admission();
        churn.record_admission();
        assert_eq!(churn.peak_concurrent, 3);
        churn.record_completion();
        churn.record_completion();
        churn.record_admission();
        assert_eq!(churn.in_flight(), 2, "one old + one new session");
        assert_eq!(churn.peak_concurrent, 3, "the peak never decays");
    }

    #[test]
    fn retirement_is_counted_separately_from_completion() {
        let mut churn = ChurnCounters::default();
        churn.record_admission();
        churn.record_retirement();
        churn.record_completion();
        assert_eq!(churn.retired, 1);
        assert_eq!(churn.completed, 1);
    }

    #[test]
    fn cancellations_ride_along_with_completions() {
        let mut churn = ChurnCounters::default();
        churn.record_admission();
        churn.record_admission();
        churn.record_retirement();
        churn.record_completion();
        churn.record_cancellation();
        assert_eq!(churn.cancelled, 1);
        assert_eq!(churn.completed, 1);
        assert_eq!(churn.in_flight(), 1, "the other session still streams");
    }

    #[test]
    #[should_panic(expected = "never admitted")]
    fn excess_completions_panic() {
        let mut churn = ChurnCounters::default();
        churn.record_completion();
    }

    #[test]
    #[should_panic(expected = "without a final report")]
    fn excess_cancellations_panic() {
        let mut churn = ChurnCounters::default();
        churn.record_admission();
        churn.record_cancellation();
    }
}
