//! Z-score anomaly detection on reconstruction errors (Section VI-G).
//!
//! The paper's application experiment: as events stream in, measure the
//! reconstruction error of entries in the *latest tensor unit* (where new
//! changes arrive) and flag entries whose error z-score is extreme.
//! Because SliceNStitch updates factors per event, a spike is scored the
//! moment it arrives; period-based baselines only see it at the next
//! boundary — that gap is exactly Fig. 9's "time between occurrence and
//! detection".

use crate::kruskal::KruskalTensor;
use sns_tensor::{Coord, SparseTensor};

/// Streaming mean/variance tracker (Welford) that converts observations
/// into z-scores against the statistics of everything seen *before* them.
#[derive(Debug, Clone, Default)]
pub struct ZScoreTracker {
    count: u64,
    mean: f64,
    m2: f64,
}

impl ZScoreTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of observations absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current (population) standard deviation.
    pub fn std(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Scores `value` against the current statistics, then absorbs it.
    /// Returns 0 while fewer than 2 observations exist or the variance is
    /// degenerate.
    pub fn score_and_update(&mut self, value: f64) -> f64 {
        let z = self.score(value);
        self.update(value);
        z
    }

    /// Z-score of `value` without absorbing it.
    ///
    /// With fewer than 2 observations the score is 0. A degenerate
    /// zero-variance history gets a tiny floor instead, so that the first
    /// true outlier after a constant stretch still scores high (instead
    /// of the undefined 0/0).
    pub fn score(&self, value: f64) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let sd = self.std().max(1e-12 * (1.0 + self.mean.abs()));
        (value - self.mean) / sd
    }

    /// Absorbs an observation.
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// The accumulated second central moment `M₂` (state capture).
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Rebuilds a tracker from captured Welford accumulators; it
    /// continues bitwise-identically to the captured one.
    pub fn from_parts(count: u64, mean: f64, m2: f64) -> Self {
        ZScoreTracker { count, mean, m2 }
    }
}

/// One scored stream event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEvent {
    /// Stream time of the event.
    pub time: u64,
    /// The full window coordinate that was scored.
    pub coord: Coord,
    /// Reconstruction error `|x_J − x̃_J|` at that coordinate.
    pub error: f64,
    /// Z-score of the error against all previously scored events.
    pub z: f64,
}

/// Scores arrival events by reconstruction error z-score and keeps the
/// scored events for offline ranking (top-k precision, detection delay).
///
/// By default every event is retained; [`AnomalyDetector::bounded`]
/// caps retention for long-running streams (the z-score statistics stay
/// exact either way — only the replayable event log is truncated).
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    tracker: ZScoreTracker,
    events: Vec<ScoredEvent>,
    /// Retention cap; `usize::MAX` (the default) keeps everything.
    max_events: usize,
}

impl Default for AnomalyDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl AnomalyDetector {
    /// Creates an empty detector that retains every scored event.
    pub fn new() -> Self {
        AnomalyDetector {
            tracker: ZScoreTracker::new(),
            events: Vec::new(),
            max_events: usize::MAX,
        }
    }

    /// Creates a detector that retains *at least* the `max_events` most
    /// recent scored events (truncation is amortized, so up to twice as
    /// many may be resident). Use for indefinitely running streams where
    /// an unbounded event log would be a leak.
    ///
    /// # Panics
    /// Panics if `max_events == 0`; a detector that records nothing
    /// cannot rank anything.
    pub fn bounded(max_events: usize) -> Self {
        assert!(max_events > 0, "retention cap must be positive");
        AnomalyDetector { max_events, ..Default::default() }
    }

    /// Scores the entry at `coord` of the current window against the
    /// current factorization, records and returns the event.
    pub fn observe(
        &mut self,
        window: &SparseTensor,
        kruskal: &KruskalTensor,
        coord: &Coord,
        time: u64,
    ) -> ScoredEvent {
        let error = (window.get(coord) - kruskal.eval(coord)).abs();
        self.record(coord, time, error)
    }

    /// Scores a pre-computed reconstruction error, records and returns
    /// the event. This is the path for callers that measure the residual
    /// themselves — e.g. the runtime's `AnomalyCpd` decorator, which
    /// scores an arrival *before* the tuple reaches the window.
    pub fn record(&mut self, coord: &Coord, time: u64, error: f64) -> ScoredEvent {
        let z = self.tracker.score_and_update(error);
        let ev = ScoredEvent { time, coord: *coord, error, z };
        if self.events.len() >= self.max_events.saturating_mul(2) {
            // Amortized truncation: drop the oldest half in one move.
            self.events.drain(..self.events.len() - self.max_events);
        }
        self.events.push(ev);
        ev
    }

    /// The streaming statistics every event has been scored against.
    pub fn tracker(&self) -> &ZScoreTracker {
        &self.tracker
    }

    /// Total events scored (independent of retention).
    pub fn scored(&self) -> u64 {
        self.tracker.count()
    }

    /// All *retained* scored events in arrival order (everything, unless
    /// the detector is [`bounded`](AnomalyDetector::bounded)).
    pub fn events(&self) -> &[ScoredEvent] {
        &self.events
    }

    /// The `k` events with the highest z-scores, best first.
    pub fn top_k(&self, k: usize) -> Vec<ScoredEvent> {
        let mut sorted = self.events.clone();
        sorted.sort_by(|a, b| b.z.total_cmp(&a.z));
        sorted.truncate(k);
        sorted
    }

    /// Captures the detector's complete state — streaming statistics,
    /// retained event log, retention cap — for durable serialization.
    pub fn capture_state(&self) -> DetectorState {
        DetectorState {
            count: self.tracker.count(),
            mean: self.tracker.mean(),
            m2: self.tracker.m2(),
            events: self.events.clone(),
            max_events: self.max_events,
        }
    }

    /// Rebuilds a detector from captured state; it scores, retains, and
    /// ranks exactly as the captured one would have.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn from_state(state: DetectorState) -> Result<Self, String> {
        let DetectorState { count, mean, m2, events, max_events } = state;
        if max_events == 0 {
            return Err("retention cap must be positive".to_string());
        }
        if (events.len() as u64) > count {
            return Err(format!("{} retained events but only {count} scored", events.len()));
        }
        Ok(AnomalyDetector {
            tracker: ZScoreTracker::from_parts(count, mean, m2),
            events,
            max_events,
        })
    }
}

/// Captured raw state of an [`AnomalyDetector`] (see
/// [`AnomalyDetector::capture_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorState {
    /// Observations absorbed by the z-score tracker.
    pub count: u64,
    /// Welford running mean.
    pub mean: f64,
    /// Welford second central moment.
    pub m2: f64,
    /// Retained scored events, in arrival order.
    pub events: Vec<ScoredEvent>,
    /// Retention cap (`usize::MAX` = unbounded).
    pub max_events: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_tensor::Shape;

    #[test]
    fn welford_matches_bruteforce() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0, 5.0, 1.0];
        let mut t = ZScoreTracker::new();
        for &x in &xs {
            t.update(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((t.mean() - mean).abs() < 1e-12);
        assert!((t.std() - var.sqrt()).abs() < 1e-12);
        assert_eq!(t.count(), 7);
    }

    #[test]
    fn score_uses_prior_statistics_only() {
        let mut t = ZScoreTracker::new();
        assert_eq!(t.score_and_update(5.0), 0.0); // nothing seen yet
        assert_eq!(t.score_and_update(5.0), 0.0); // one obs: degenerate
        assert_eq!(t.score_and_update(5.0), 0.0); // zero variance
        let z = t.score_and_update(50.0); // far outlier
        assert!(z > 3.0, "z = {z}");
    }

    #[test]
    fn spike_gets_top_zscore() {
        // Window with small errors everywhere except one injected spike.
        let shape = Shape::new(&[3, 3, 2]);
        let mut window = SparseTensor::new(shape);
        let kruskal = KruskalTensor::zeros(&[3, 3, 2], 1); // reconstructs 0
        let mut det = AnomalyDetector::new();
        let mut t = 0u64;
        for a in 0..3u32 {
            for b in 0..3u32 {
                let c = Coord::new(&[a, b, 1]);
                window.add(&c, 1.0); // error = 1 everywhere
                det.observe(&window, &kruskal, &c, t);
                t += 1;
            }
        }
        let spike = Coord::new(&[1, 1, 1]);
        window.add(&spike, 14.0); // error jumps to 15
        let ev = det.observe(&window, &kruskal, &spike, t);
        assert!(ev.z > 2.0, "spike z = {}", ev.z);
        let top = det.top_k(1);
        assert_eq!(top[0].coord, spike);
        assert_eq!(top[0].time, t);
    }

    #[test]
    fn empty_detector_behaviour() {
        let det = AnomalyDetector::new();
        assert!(det.top_k(5).is_empty());
        assert!(det.events().is_empty());
        assert_eq!(det.scored(), 0);
    }

    #[test]
    fn record_matches_observe() {
        let shape = Shape::new(&[2, 2]);
        let mut window = SparseTensor::new(shape);
        let kruskal = KruskalTensor::zeros(&[2, 2], 1);
        let c = Coord::new(&[1, 1]);
        window.add(&c, 3.0);
        let mut a = AnomalyDetector::new();
        let mut b = AnomalyDetector::new();
        for t in 0..5u64 {
            let ea = a.observe(&window, &kruskal, &c, t);
            let eb = b.record(&c, t, 3.0); // |3.0 − 0| computed by hand
            assert_eq!(ea, eb);
        }
        assert_eq!(a.scored(), b.scored());
        assert_eq!(a.tracker().mean(), b.tracker().mean());
    }

    #[test]
    fn bounded_retention_keeps_recent_events_and_exact_stats() {
        let c = Coord::new(&[0, 0]);
        let mut capped = AnomalyDetector::bounded(10);
        let mut full = AnomalyDetector::new();
        for t in 0..100u64 {
            let v = (t % 7) as f64;
            capped.record(&c, t, v);
            full.record(&c, t, v);
        }
        // Statistics are exact regardless of truncation.
        assert_eq!(capped.scored(), 100);
        assert_eq!(capped.tracker().mean().to_bits(), full.tracker().mean().to_bits());
        assert_eq!(capped.tracker().std().to_bits(), full.tracker().std().to_bits());
        // At least the 10 most recent events survive, far fewer than all.
        assert!(capped.events().len() >= 10 && capped.events().len() < 25);
        let last = capped.events().last().unwrap();
        assert_eq!(last.time, 99);
        assert_eq!(full.events().len(), 100);
    }

    #[test]
    #[should_panic(expected = "retention cap")]
    fn zero_retention_rejected() {
        let _ = AnomalyDetector::bounded(0);
    }
}
