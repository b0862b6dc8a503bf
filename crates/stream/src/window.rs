//! Event-driven continuous tensor window (Algorithm 1 of the paper).

use crate::delta::{Changes, Delta, DeltaKind};
use crate::scheduler::{EventQueue, ScheduledEvent};
use crate::tuple::{validate_tuple, StreamTuple};
use crate::Result;
use sns_tensor::{Coord, Shape, SparseTensor, SparseTensorState};

/// The continuous tensor window `X = D(t, W)`.
///
/// Maintains the window under arriving tuples and the `W` scheduled
/// boundary crossings each tuple generates. Every change is returned as a
/// [`Delta`]; the window tensor is updated **before** deltas are handed
/// out, so consumers observe `X + ΔX`.
///
/// Complexities match Theorems 1–2 of the paper: `O(M·W)` time per tuple
/// amortized over its `W+1` events, `O(M·|active tuples|)` space.
///
/// [`ContinuousWindow::capture_state`] freezes the tensor, the pending
/// event queue, and the clock as plain data, from which
/// [`ContinuousWindow::from_state`] rebuilds a window that continues
/// bitwise-identically — engine snapshot/restore is built on this.
pub struct ContinuousWindow {
    tensor: SparseTensor,
    period: u64,
    window: usize,
    queue: EventQueue,
    now: u64,
    last_arrival: Option<u64>,
    events_processed: u64,
}

impl ContinuousWindow {
    /// Creates a window over categorical mode lengths `base_dims`
    /// (`N₁,…,N_{M−1}`), with `window` time indices (`W`) of `period`
    /// ticks (`T`) each.
    ///
    /// # Panics
    /// Panics if `window == 0` or `period == 0`.
    pub fn new(base_dims: &[usize], window: usize, period: u64) -> Self {
        assert!(window > 0, "window size W must be positive");
        assert!(period > 0, "period T must be positive");
        let mut dims = base_dims.to_vec();
        dims.push(window);
        ContinuousWindow {
            tensor: SparseTensor::new(Shape::new(&dims)),
            period,
            window,
            queue: EventQueue::new(),
            now: 0,
            last_arrival: None,
            events_processed: 0,
        }
    }

    /// The current window tensor `D(t, W)`.
    #[inline]
    pub fn tensor(&self) -> &SparseTensor {
        &self.tensor
    }

    /// Current time (largest time the window has been advanced to).
    #[inline]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Period `T`.
    #[inline]
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Index of the time mode (the last mode).
    #[inline]
    pub fn time_mode(&self) -> usize {
        self.tensor.shape().order() - 1
    }

    /// Number of tuples still inside the window (= pending events).
    pub fn active_tuples(&self) -> usize {
        self.queue.len()
    }

    /// Total events processed so far (arrivals + shifts + expiries).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Advances the clock to `t`, draining all boundary events due at or
    /// before `t` and appending their deltas to `out`.
    pub fn advance_to(&mut self, t: u64, out: &mut Vec<Delta>) {
        debug_assert!(t >= self.now, "clock cannot run backwards");
        while let Some(ev) = self.queue.pop_due(t) {
            let w = ev.w;
            let time_mode = self.time_mode();
            let v = ev.tuple.value;
            let wsz = self.window as u32;
            // 0-based: subtract from index W−w, add to index W−w−1.
            let from = ev.tuple.coords.extended(wsz - w);
            let delta = if w < wsz {
                let to = ev.tuple.coords.extended(wsz - w - 1);
                self.tensor.add(&from, -v);
                self.tensor.add(&to, v);
                self.queue.schedule(ev.tuple.time + (w as u64 + 1) * self.period, w + 1, ev.tuple);
                Delta {
                    time: ev.due,
                    kind: DeltaKind::Shift,
                    w,
                    tuple: ev.tuple,
                    changes: Changes::two(from, -v, to, v),
                }
            } else {
                // w == W: the tuple leaves the window (index 0).
                debug_assert_eq!(from.get(time_mode), 0);
                self.tensor.add(&from, -v);
                Delta {
                    time: ev.due,
                    kind: DeltaKind::Expiry,
                    w,
                    tuple: ev.tuple,
                    changes: Changes::one(from, -v),
                }
            };
            self.events_processed += 1;
            out.push(delta);
        }
        self.now = self.now.max(t);
    }

    /// Ingests one tuple: first drains all boundary events due at or
    /// before `tuple.time`, then applies the arrival (S.1) and schedules
    /// its first boundary crossing. All deltas are appended to `out` in
    /// the order they were applied.
    ///
    /// # Errors
    /// Rejects tuples that break [`validate_tuple`].
    pub fn ingest(&mut self, tuple: StreamTuple, out: &mut Vec<Delta>) -> Result<()> {
        validate_tuple(&tuple, self.tensor.shape(), self.last_arrival)?;
        self.advance_to(tuple.time, out);
        self.last_arrival = Some(tuple.time);

        let coord = tuple.coords.extended(self.window as u32 - 1);
        self.tensor.add(&coord, tuple.value);
        self.queue.schedule(tuple.time + self.period, 1, tuple);
        self.events_processed += 1;
        out.push(Delta {
            time: tuple.time,
            kind: DeltaKind::Arrival,
            w: 0,
            tuple,
            changes: Changes::one(coord, tuple.value),
        });
        Ok(())
    }

    /// Captures the complete window state — tensor (with iteration
    /// orders), pending boundary events, and clock — for durable
    /// serialization. [`ContinuousWindow::from_state`] rebuilds a window
    /// that continues bitwise-identically.
    pub fn capture_state(&self) -> ContinuousWindowState {
        ContinuousWindowState {
            tensor: self.tensor.capture_state(),
            period: self.period,
            window: self.window,
            events: self.queue.events_in_order(),
            next_seq: self.queue.next_seq(),
            now: self.now,
            last_arrival: self.last_arrival,
            events_processed: self.events_processed,
        }
    }

    /// Rebuilds a window from captured state.
    ///
    /// # Errors
    /// Returns a description of the first inconsistency (decoded
    /// snapshots are validated, not trusted).
    pub fn from_state(state: ContinuousWindowState) -> std::result::Result<Self, String> {
        let ContinuousWindowState {
            tensor,
            period,
            window,
            events,
            next_seq,
            now,
            last_arrival,
            events_processed,
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
        for ev in &events {
            if ev.w == 0 || ev.w > window as u32 {
                return Err(format!("scheduled boundary w={} outside 1..={window}", ev.w));
            }
            if ev.seq >= next_seq {
                return Err(format!("event seq {} not below next_seq {next_seq}", ev.seq));
            }
            let coords = &ev.tuple.coords;
            if coords.order() != base_order {
                return Err(format!("event coord {coords:?} has wrong order"));
            }
            for m in 0..base_order {
                if coords.get(m) as usize >= tensor.shape().dim(m) {
                    return Err(format!("event coord {coords:?} out of bounds in mode {m}"));
                }
            }
        }
        Ok(ContinuousWindow {
            tensor,
            period,
            window,
            queue: EventQueue::from_events(events, next_seq),
            now,
            last_arrival,
            events_processed,
        })
    }
}

/// Captured raw state of a [`ContinuousWindow`] (see
/// [`ContinuousWindow::capture_state`]). Events are listed in `(due,
/// seq)` order — the queue's pop order — which makes the encoding
/// canonical.
#[derive(Debug, Clone, PartialEq)]
pub struct ContinuousWindowState {
    /// The window tensor with exact iteration orders.
    pub tensor: SparseTensorState,
    /// Period `T`.
    pub period: u64,
    /// Window length `W`.
    pub window: usize,
    /// Pending boundary events in pop order.
    pub events: Vec<ScheduledEvent>,
    /// The queue's FIFO tie-break counter.
    pub next_seq: u64,
    /// Current clock.
    pub now: u64,
    /// Latest accepted arrival timestamp.
    pub last_arrival: Option<u64>,
    /// Total events processed so far.
    pub events_processed: u64,
}

impl std::fmt::Debug for ContinuousWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ContinuousWindow(t={}, W={}, T={}, nnz={}, active={})",
            self.now,
            self.window,
            self.period,
            self.tensor.nnz(),
            self.active_tuples()
        )
    }
}

/// Brute-force reference: builds `D(t, W)` directly from Definitions 3–4,
/// i.e. tuple `n` contributes to unit `k = W−1−⌊(t−tₙ)/T⌋` iff
/// `tₙ ∈ (t − W·T, t]`. Used by tests to pin the event-driven
/// implementation to the declarative model.
pub fn window_from_log(
    base_dims: &[usize],
    window: usize,
    period: u64,
    tuples: &[StreamTuple],
    t: u64,
) -> SparseTensor {
    let mut dims = base_dims.to_vec();
    dims.push(window);
    let mut x = SparseTensor::new(Shape::new(&dims));
    for tu in tuples {
        if tu.time > t {
            continue;
        }
        let age = t - tu.time;
        let crossings = age / period;
        if crossings >= window as u64 {
            continue; // left the window
        }
        let k = window as u64 - 1 - crossings;
        let coord: Coord = tu.coords.extended(k as u32);
        x.add(&coord, tu.value);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnsError;

    fn tup(a: u32, b: u32, v: f64, t: u64) -> StreamTuple {
        StreamTuple::new([a, b], v, t)
    }

    fn full(c: &[u32]) -> Coord {
        Coord::new(c)
    }

    #[test]
    fn arrival_lands_in_newest_unit() {
        let mut w = ContinuousWindow::new(&[3, 3], 4, 10);
        let mut out = Vec::new();
        w.ingest(tup(1, 2, 5.0, 7), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DeltaKind::Arrival);
        assert_eq!(w.tensor().get(&full(&[1, 2, 3])), 5.0);
        assert_eq!(w.tensor().nnz(), 1);
        assert_eq!(w.active_tuples(), 1);
    }

    #[test]
    fn tuple_slides_through_all_units_and_expires() {
        let mut w = ContinuousWindow::new(&[2, 2], 3, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 1, 2.0, 0), &mut out).unwrap();
        // At t=9 (just before the boundary) nothing has moved.
        out.clear();
        w.advance_to(9, &mut out);
        assert!(out.is_empty());
        assert_eq!(w.tensor().get(&full(&[0, 1, 2])), 2.0);
        // At t=10 the first crossing fires: unit 2 → unit 1.
        w.advance_to(10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DeltaKind::Shift);
        assert_eq!(out[0].w, 1);
        assert_eq!(w.tensor().get(&full(&[0, 1, 2])), 0.0);
        assert_eq!(w.tensor().get(&full(&[0, 1, 1])), 2.0);
        // Second crossing at t=20: unit 1 → unit 0.
        out.clear();
        w.advance_to(25, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(w.tensor().get(&full(&[0, 1, 0])), 2.0);
        // Expiry at t=30.
        out.clear();
        w.advance_to(30, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DeltaKind::Expiry);
        assert_eq!(out[0].w, 3);
        assert_eq!(w.tensor().nnz(), 0);
        assert_eq!(w.active_tuples(), 0);
        // Total events: 1 arrival + 3 crossings (the last is the expiry).
        assert_eq!(w.events_processed(), 4);
    }

    #[test]
    fn shift_delta_reports_both_entries() {
        let mut w = ContinuousWindow::new(&[2, 2], 3, 5);
        let mut out = Vec::new();
        w.ingest(tup(1, 1, 4.0, 2), &mut out).unwrap();
        out.clear();
        w.advance_to(7, &mut out);
        let d = &out[0];
        assert_eq!(d.changes.len(), 2);
        let ch = d.changes.as_slice();
        assert_eq!(ch[0], (full(&[1, 1, 2]), -4.0));
        assert_eq!(ch[1], (full(&[1, 1, 1]), 4.0));
        let tidx: Vec<u32> = d.time_indices().collect();
        assert_eq!(tidx, vec![2, 1]);
    }

    #[test]
    fn ingest_drains_due_events_first() {
        let mut w = ContinuousWindow::new(&[2, 2], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 0, 1.0, 0), &mut out).unwrap();
        out.clear();
        // Second tuple at t=25: the first tuple's crossings at 10 and 20
        // must fire before the new arrival is applied.
        w.ingest(tup(1, 1, 1.0, 25), &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].kind, DeltaKind::Shift); // t=10
        assert_eq!(out[0].time, 10);
        assert_eq!(out[1].kind, DeltaKind::Expiry); // t=20
        assert_eq!(out[1].time, 20);
        assert_eq!(out[2].kind, DeltaKind::Arrival); // t=25
    }

    #[test]
    fn values_accumulate_within_a_unit() {
        let mut w = ContinuousWindow::new(&[2, 2], 3, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 0, 1.0, 0), &mut out).unwrap();
        w.ingest(tup(0, 0, 2.0, 3), &mut out).unwrap();
        assert_eq!(w.tensor().get(&full(&[0, 0, 2])), 3.0);
        // They separate once the first one crosses (different schedules).
        out.clear();
        w.advance_to(10, &mut out); // first tuple crosses at 10
        assert_eq!(w.tensor().get(&full(&[0, 0, 2])), 2.0);
        assert_eq!(w.tensor().get(&full(&[0, 0, 1])), 1.0);
        w.advance_to(13, &mut out); // second crosses at 13
        assert_eq!(w.tensor().get(&full(&[0, 0, 1])), 3.0);
    }

    #[test]
    fn rejects_out_of_order_and_bad_coords() {
        let mut w = ContinuousWindow::new(&[2, 2], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 0, 1.0, 10), &mut out).unwrap();
        assert!(matches!(w.ingest(tup(0, 0, 1.0, 9), &mut out), Err(SnsError::OutOfOrder { .. })));
        assert!(matches!(
            w.ingest(tup(5, 0, 1.0, 11), &mut out),
            Err(SnsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            w.ingest(StreamTuple::new([0u32], 1.0, 11), &mut out),
            Err(SnsError::OrderMismatch { .. })
        ));
        // Equal timestamps are fine (chronological, not strictly increasing).
        w.ingest(tup(1, 1, 1.0, 10), &mut out).unwrap();
    }

    #[test]
    fn matches_bruteforce_reference_on_random_stream() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut tuples = Vec::new();
        let mut t = 0u64;
        for _ in 0..300 {
            t += rng.gen_range(0..7);
            tuples.push(tup(rng.gen_range(0..4), rng.gen_range(0..3), 1.0, t));
        }
        let (window, period) = (5usize, 13u64);
        let mut w = ContinuousWindow::new(&[4, 3], window, period);
        let mut out = Vec::new();
        for (i, tu) in tuples.iter().enumerate() {
            w.ingest(*tu, &mut out).unwrap();
            if i % 37 == 0 {
                let reference = window_from_log(&[4, 3], window, period, &tuples[..=i], tu.time);
                assert_eq!(w.tensor().nnz(), reference.nnz(), "at tuple {i}");
                for (c, v) in reference.iter() {
                    assert_eq!(w.tensor().get(c), v, "at tuple {i}, coord {c:?}");
                }
                w.tensor().check_invariants().unwrap();
            }
        }
        // Also check at a few post-stream times.
        for extra in [1u64, period, 3 * period, window as u64 * period + 1] {
            let t_end = t + extra;
            w.advance_to(t_end, &mut out);
            let reference = window_from_log(&[4, 3], window, period, &tuples, t_end);
            assert_eq!(w.tensor().nnz(), reference.nnz(), "t_end={t_end}");
            for (c, v) in reference.iter() {
                assert_eq!(w.tensor().get(c), v);
            }
        }
        // After W·T with no arrivals the window must be empty.
        assert_eq!(w.tensor().nnz(), 0);
        assert_eq!(w.active_tuples(), 0);
    }

    #[test]
    fn deltas_apply_window_before_handing_out() {
        // The documented contract: when the consumer sees the delta, the
        // window already contains X + ΔX.
        let mut w = ContinuousWindow::new(&[2, 2], 2, 10);
        let mut out = Vec::new();
        w.ingest(tup(0, 0, 3.0, 0), &mut out).unwrap();
        let d = out[0];
        let (c, v) = d.changes.as_slice()[0];
        assert_eq!(w.tensor().get(&c), v);
    }

    #[test]
    #[should_panic(expected = "window size W")]
    fn zero_window_rejected() {
        let _ = ContinuousWindow::new(&[2], 0, 10);
    }

    #[test]
    #[should_panic(expected = "period T")]
    fn zero_period_rejected() {
        let _ = ContinuousWindow::new(&[2], 2, 0);
    }
}
