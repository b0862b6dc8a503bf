//! Stream tuples (Definition 1 of the paper).

use sns_error::SnsError;
use sns_tensor::{Coord, Shape};

/// One timestamped element of a multi-aspect data stream:
/// `(e = (i₁,…,i_{M−1}, v), t)`.
///
/// `coords` holds the `M−1` categorical indices (the time mode is *not*
/// part of the tuple — it is derived from `time` by the window model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTuple {
    /// Categorical indices `i₁,…,i_{M−1}`.
    pub coords: Coord,
    /// Numerical value `v` (e.g. a trip count or purchase quantity).
    pub value: f64,
    /// Timestamp `t` in stream ticks (e.g. seconds).
    pub time: u64,
}

impl StreamTuple {
    /// Creates a tuple.
    pub fn new(coords: impl Into<Coord>, value: f64, time: u64) -> Self {
        StreamTuple { coords: coords.into(), value, time }
    }
}

/// The input contract every window model enforces before it touches its
/// tensor: `tuple.coords` has one index per categorical mode of
/// `window_shape` (whose last mode is time), each in bounds; the value
/// is finite; and the tuple is not older than `last_arrival`.
///
/// # Errors
/// [`SnsError::OrderMismatch`], [`SnsError::OutOfBounds`],
/// [`SnsError::NonFiniteValue`] or [`SnsError::OutOfOrder`], checked in
/// that order.
pub fn validate_tuple(
    tuple: &StreamTuple,
    window_shape: &Shape,
    last_arrival: Option<u64>,
) -> Result<(), SnsError> {
    let base_order = window_shape.order() - 1;
    if tuple.coords.order() != base_order {
        return Err(SnsError::OrderMismatch { expected: base_order, got: tuple.coords.order() });
    }
    for m in 0..base_order {
        let len = window_shape.dim(m);
        if tuple.coords.get(m) as usize >= len {
            return Err(SnsError::OutOfBounds { mode: m, index: tuple.coords.get(m), len });
        }
    }
    if !tuple.value.is_finite() {
        return Err(SnsError::NonFiniteValue { time: tuple.time });
    }
    match last_arrival {
        Some(previous) if tuple.time < previous => {
            Err(SnsError::OutOfOrder { previous, got: tuple.time })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let t = StreamTuple::new([1u32, 2], 3.0, 99);
        assert_eq!(t.coords.as_slice(), &[1, 2]);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.time, 99);
    }

    #[test]
    fn validation_rejects_each_rule_in_order() {
        let shape = Shape::new(&[3, 2, 4]);
        let ok = StreamTuple::new([2u32, 1], 1.0, 5);
        assert_eq!(validate_tuple(&ok, &shape, Some(5)), Ok(()));
        let order = StreamTuple::new([2u32], f64::NAN, 1);
        assert!(matches!(
            validate_tuple(&order, &shape, Some(5)),
            Err(SnsError::OrderMismatch { expected: 2, got: 1 })
        ));
        let bounds = StreamTuple::new([3u32, 0], f64::NAN, 1);
        assert!(matches!(
            validate_tuple(&bounds, &shape, Some(5)),
            Err(SnsError::OutOfBounds { mode: 0, index: 3, len: 3 })
        ));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = StreamTuple::new([0u32, 0], v, 1);
            assert_eq!(
                validate_tuple(&bad, &shape, Some(5)),
                Err(SnsError::NonFiniteValue { time: 1 })
            );
        }
        let late = StreamTuple::new([0u32, 0], 1.0, 4);
        assert!(matches!(
            validate_tuple(&late, &shape, Some(5)),
            Err(SnsError::OutOfOrder { previous: 5, got: 4 })
        ));
    }

    #[test]
    fn tuple_is_copy_and_small() {
        // Processed millions of times; keep it register-friendly.
        assert!(std::mem::size_of::<StreamTuple>() <= 48);
        let t = StreamTuple::new([0u32], 1.0, 0);
        let u = t; // Copy
        assert_eq!(t, u);
    }
}
