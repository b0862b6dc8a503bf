//! Conventional (discrete) sliding-window tensor model — Section III.
//!
//! Units end at fixed wall-clock multiples of `T`: unit `w` aggregates
//! `(w·T − T, w·T]`. The window tensor holds the `W` most recently
//! *completed* units — it changes **only once per period**, which is
//! precisely the limitation of the conventional model that the paper's
//! continuous model removes. Tuples of the in-flight period accumulate in
//! a side buffer until their period completes. Baseline algorithms are
//! notified once per period via [`PeriodUpdate`].
//!
//! A slide re-keys all non-zeros (O(nnz)) — once per period, consistent
//! with the baselines' per-period cost model.

use crate::tuple::{validate_tuple, StreamTuple};
use crate::Result;
use sns_tensor::{Coord, IndexedCoordSet, Shape, SparseTensor, SparseTensorState};

/// Notification that a period just completed and the window slid by one.
#[derive(Debug, Clone)]
pub struct PeriodUpdate {
    /// End time of the completed period (a multiple of `T`).
    pub boundary: u64,
    /// The completed unit as aggregated `(categorical coord, value)` pairs.
    pub slice: Vec<(Coord, f64)>,
    /// The unit that just left the window (time index 0 before the slide),
    /// needed by windowed baselines to downdate their accumulators.
    pub evicted: Vec<(Coord, f64)>,
}

/// Discrete sliding tensor window (conventional model).
///
/// The pending (in-flight) unit accumulates in an insertion-ordered
/// [`IndexedCoordSet`], so the order a completed period's slice is handed
/// to the baselines — and with it their float summation order — is a
/// deterministic function of the arrival history that survives state
/// capture bitwise.
pub struct DiscreteWindow {
    tensor: SparseTensor,
    period: u64,
    window: usize,
    /// Exclusive upper bound of the unit currently accumulating:
    /// the active unit covers `(boundary − T, boundary]`.
    boundary: u64,
    pending: IndexedCoordSet,
    last_arrival: Option<u64>,
    periods_completed: u64,
}

impl DiscreteWindow {
    /// Creates a discrete window over categorical dims `base_dims` with
    /// `window` units of `period` ticks. The first unit covers `(0, T]`.
    pub fn new(base_dims: &[usize], window: usize, period: u64) -> Self {
        assert!(window > 0, "window size W must be positive");
        assert!(period > 0, "period T must be positive");
        let mut dims = base_dims.to_vec();
        dims.push(window);
        DiscreteWindow {
            tensor: SparseTensor::new(Shape::new(&dims)),
            period,
            window,
            boundary: period,
            pending: IndexedCoordSet::new(),
            last_arrival: None,
            periods_completed: 0,
        }
    }

    /// The current window tensor (completed units + the accumulating one).
    pub fn tensor(&self) -> &SparseTensor {
        &self.tensor
    }

    /// Period `T`.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Number of completed periods so far.
    pub fn periods_completed(&self) -> u64 {
        self.periods_completed
    }

    /// Index of the time mode.
    pub fn time_mode(&self) -> usize {
        self.tensor.shape().order() - 1
    }

    fn complete_period(&mut self) -> PeriodUpdate {
        // Gather the unit leaving the window (time index 0).
        let evicted: Vec<(Coord, f64)> = self
            .tensor
            .fiber_entries(self.time_mode(), 0)
            .map(|(c, v)| (c.truncated(), v))
            .collect();
        // Slide: re-key every entry one time index down.
        let shape = self.tensor.shape().clone();
        let tm = self.time_mode();
        let mut slid = SparseTensor::new(shape);
        for (c, v) in self.tensor.iter() {
            let t = c.get(tm);
            if t == 0 {
                continue; // evicted
            }
            slid.add(&c.with(tm, t - 1), v);
        }
        // Install the completed unit at the newest index, in arrival
        // order (deterministic; baselines sum slice entries in this
        // order).
        let newest = (self.window - 1) as u32;
        let slice: Vec<(Coord, f64)> = self.pending.take_entries();
        for (c, v) in &slice {
            slid.add(&c.extended(newest), *v);
        }
        self.tensor = slid;
        let update = PeriodUpdate { boundary: self.boundary, slice, evicted };
        self.boundary += self.period;
        self.periods_completed += 1;
        update
    }

    /// Advances the wall clock to `t`, completing every period whose end
    /// lies strictly before or at `t`… more precisely, a unit `(b−T, b]`
    /// completes as soon as the clock passes `b` (i.e. `t > b`). Completed
    /// periods are appended to `out`.
    pub fn advance_to(&mut self, t: u64, out: &mut Vec<PeriodUpdate>) {
        while t > self.boundary {
            out.push(self.complete_period());
        }
    }

    /// Ingests a tuple, first completing any periods that ended before it.
    ///
    /// # Errors
    /// Rejects tuples that break [`validate_tuple`].
    pub fn ingest(&mut self, tuple: StreamTuple, out: &mut Vec<PeriodUpdate>) -> Result<()> {
        validate_tuple(&tuple, self.tensor.shape(), self.last_arrival)?;
        self.advance_to(tuple.time, out);
        self.last_arrival = Some(tuple.time);
        // Accumulate into the pending unit only; the window tensor does not
        // change until the period completes (conventional-model semantics).
        self.pending.add_value(tuple.coords, tuple.value);
        Ok(())
    }

    /// Flushes every period ending at or before `t` (use at end of stream).
    pub fn flush_to(&mut self, t: u64, out: &mut Vec<PeriodUpdate>) {
        while t >= self.boundary {
            out.push(self.complete_period());
        }
    }

    /// Accumulated value of the in-flight (pending) unit at a categorical
    /// coordinate — the unit arrivals land in, invisible in
    /// [`DiscreteWindow::tensor`] until its period completes. Read-only;
    /// anomaly scoring uses this to compare an arrival against what its
    /// period has accumulated so far.
    pub fn pending_value(&self, coords: &Coord) -> f64 {
        self.pending.get(coords).unwrap_or(0.0)
    }

    /// Captures the complete window state — tensor (with iteration
    /// orders), pending accumulation (in arrival order), and period
    /// bookkeeping — for durable serialization.
    pub fn capture_state(&self) -> DiscreteWindowState {
        DiscreteWindowState {
            tensor: self.tensor.capture_state(),
            period: self.period,
            window: self.window,
            boundary: self.boundary,
            pending: self.pending.entries().map(|(c, v)| (*c, v)).collect(),
            last_arrival: self.last_arrival,
            periods_completed: self.periods_completed,
        }
    }

    /// Rebuilds a window from captured state.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency.
    pub fn from_state(state: DiscreteWindowState) -> std::result::Result<Self, String> {
        let DiscreteWindowState {
            tensor,
            period,
            window,
            boundary,
            pending,
            last_arrival,
            periods_completed,
        } = state;
        if window == 0 || period == 0 {
            return Err(format!("degenerate window geometry W={window} T={period}"));
        }
        let tensor = SparseTensor::from_state(tensor)?;
        if tensor.shape().dim(tensor.order() - 1) != window {
            return Err(format!(
                "time mode length {} does not match W={window}",
                tensor.shape().dim(tensor.order() - 1)
            ));
        }
        let base_order = tensor.order() - 1;
        for (c, _) in &pending {
            if c.order() != base_order {
                return Err(format!("pending coord {c:?} has wrong order"));
            }
            for m in 0..base_order {
                if c.get(m) as usize >= tensor.shape().dim(m) {
                    return Err(format!("pending coord {c:?} out of bounds in mode {m}"));
                }
            }
        }
        let (members, values): (Vec<Coord>, Vec<f64>) = pending.into_iter().unzip();
        Ok(DiscreteWindow {
            tensor,
            period,
            window,
            boundary,
            pending: IndexedCoordSet::from_ordered_entries(members, values)?,
            last_arrival,
            periods_completed,
        })
    }
}

/// Captured raw state of a [`DiscreteWindow`] (see
/// [`DiscreteWindow::capture_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteWindowState {
    /// The window tensor (completed units) with exact iteration orders.
    pub tensor: SparseTensorState,
    /// Period `T`.
    pub period: u64,
    /// Window length `W`.
    pub window: usize,
    /// Exclusive upper bound of the accumulating unit.
    pub boundary: u64,
    /// The pending unit's accumulation, in arrival order.
    pub pending: Vec<(Coord, f64)>,
    /// Latest accepted arrival timestamp.
    pub last_arrival: Option<u64>,
    /// Completed periods so far.
    pub periods_completed: u64,
}

impl std::fmt::Debug for DiscreteWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DiscreteWindow(boundary={}, W={}, T={}, nnz={})",
            self.boundary,
            self.window,
            self.period,
            self.tensor.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(a: u32, v: f64, t: u64) -> StreamTuple {
        StreamTuple::new([a], v, t)
    }

    #[test]
    fn accumulates_within_period() {
        let mut w = DiscreteWindow::new(&[4], 3, 10);
        let mut out = Vec::new();
        w.ingest(tup(1, 2.0, 3), &mut out).unwrap();
        w.ingest(tup(1, 3.0, 7), &mut out).unwrap();
        assert!(out.is_empty());
        // Conventional model: the tensor does not change mid-period.
        assert_eq!(w.tensor().nnz(), 0);
        // Once the period completes, the aggregated unit appears at W−1.
        w.flush_to(10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slice, vec![(Coord::new(&[1]), 5.0)]);
        assert_eq!(w.tensor().get(&Coord::new(&[1, 2])), 5.0);
    }

    #[test]
    fn boundary_tuple_belongs_to_closing_period() {
        // Interval is (0, T]; a tuple at exactly T is inside unit 1.
        let mut w = DiscreteWindow::new(&[4], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 1.0, 10), &mut out).unwrap();
        assert!(out.is_empty());
        w.ingest(tup(0, 1.0, 11), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].boundary, 10);
        assert_eq!(out[0].slice, vec![(Coord::new(&[0]), 1.0)]);
    }

    #[test]
    fn slide_moves_units_and_evicts() {
        let mut w = DiscreteWindow::new(&[4], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 1.0, 5), &mut out).unwrap(); // unit ending 10
        w.ingest(tup(1, 2.0, 15), &mut out).unwrap(); // unit ending 20
        w.ingest(tup(2, 3.0, 25), &mut out).unwrap(); // unit ending 30
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].slice, vec![(Coord::new(&[0]), 1.0)]);
        assert_eq!(out[1].slice, vec![(Coord::new(&[1]), 2.0)]);
        // Window now holds units (0..10] at index 0 and (10..20] at index 1.
        assert_eq!(w.tensor().get(&Coord::new(&[0, 0])), 1.0);
        assert_eq!(w.tensor().get(&Coord::new(&[1, 1])), 2.0);
        // One more slide evicts the first unit.
        w.ingest(tup(3, 4.0, 35), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].evicted, vec![(Coord::new(&[0]), 1.0)]);
        assert_eq!(w.tensor().get(&Coord::new(&[0, 0])), 0.0);
        assert_eq!(w.tensor().get(&Coord::new(&[1, 0])), 2.0);
        assert_eq!(w.tensor().get(&Coord::new(&[2, 1])), 3.0);
    }

    #[test]
    fn empty_periods_complete_too() {
        let mut w = DiscreteWindow::new(&[4], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 1.0, 5), &mut out).unwrap();
        w.ingest(tup(1, 1.0, 45), &mut out).unwrap(); // skips 3 boundaries
        assert_eq!(out.len(), 4); // periods ending 10, 20, 30, 40
        assert!(out[1].slice.is_empty());
        assert!(out[2].slice.is_empty());
        assert_eq!(w.periods_completed(), 4);
    }

    #[test]
    fn flush_completes_final_periods() {
        let mut w = DiscreteWindow::new(&[4], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 1.0, 5), &mut out).unwrap();
        w.flush_to(10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].slice, vec![(Coord::new(&[0]), 1.0)]);
    }

    #[test]
    fn validation_errors() {
        let mut w = DiscreteWindow::new(&[4], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 1.0, 10), &mut out).unwrap();
        assert!(w.ingest(tup(0, 1.0, 5), &mut out).is_err());
        assert!(w.ingest(tup(9, 1.0, 12), &mut out).is_err());
        assert!(w.ingest(StreamTuple::new([0u32, 0], 1.0, 12), &mut out).is_err());
    }

    #[test]
    fn tensor_only_changes_at_boundaries() {
        // The discreteness limitation the paper motivates: a tuple at
        // 2:00:01 is not visible in the tensor until 3:00:00.
        let mut w = DiscreteWindow::new(&[4], 3, 3600);
        let mut out = Vec::new();
        w.ingest(tup(2, 4.0, 7201), &mut out).unwrap(); // "2:00:01"
        w.advance_to(10_799, &mut out); // "2:59:59"
        assert_eq!(w.tensor().nnz(), 0, "tuple visible before its period ends");
        w.advance_to(10_801, &mut out); // just past "3:00:00"
        assert_eq!(w.tensor().get(&Coord::new(&[2, 2])), 4.0);
    }
}
