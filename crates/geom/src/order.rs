//! NaN-safe total ordering for `f64`.
//!
//! The planners' invariants (energy feasibility, metric closure of the
//! auxiliary graph, data conservation) are maintained through dozens of
//! float sorts and argmin/argmax scans. A single NaN reaching a
//! `partial_cmp().unwrap()` comparator panics mid-tour; worse, a NaN
//! reaching a *non*-panicking comparator silently produces an
//! inconsistent order and corrupts the invariant it feeds. This module
//! is the one approved way to order floats in the workspace: the
//! `uavdc-lint` rule `float-ord` flags every comparator outside it.
//!
//! All helpers use [`f64::total_cmp`] (IEEE 754 `totalOrder`): NaN
//! sorts after `+inf` ascending (before `-inf` descending), so a NaN
//! produced by an upstream bug lands at the *pessimal* end of every
//! ordering — it is never selected as a best candidate and never
//! truncates a sort — instead of panicking or scrambling the order.

use std::cmp::Ordering;

/// Total-order comparison, ascending. Drop-in replacement for
/// `a.partial_cmp(&b).unwrap()` in `sort_by`/`min_by`/`max_by`.
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// Total-order comparison, descending ("largest first"), with NaN
/// pinned to the *end* of the order. A plain argument swap
/// (`b.total_cmp(&a)`) would rank NaN above `+inf` and hand it first
/// place in every best-candidate scan; instead NaN stays pessimal in
/// both directions.
#[inline]
pub fn cmp_f64_desc(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Order-preserving bijection from `f64` under [`f64::total_cmp`] to
/// `u64` under integer `<`: the sign-dependent XOR from `total_cmp`'s own
/// definition, shifted from `i64` into `u64` range. Exact for every bit
/// pattern (including NaNs, infinities and signed zeros), so comparing
/// two keys is bit-for-bit comparing the values under `total_cmp`.
#[inline]
pub fn total_key(v: f64) -> u64 {
    let b = v.to_bits() as i64;
    let m = b ^ (((b >> 63) as u64) >> 1) as i64;
    (m as u64) ^ (1u64 << 63)
}

/// Inverse of [`total_key`] (the XOR mask is sign-preserved, so the map
/// is an involution on the shifted integers). Bit-exact round trip.
#[inline]
pub fn from_total_key(u: u64) -> f64 {
    let m = (u ^ (1u64 << 63)) as i64;
    let b = m ^ (((m >> 63) as u64) >> 1) as i64;
    f64::from_bits(b as u64)
}

/// Integer sort key for [`cmp_f64_desc`]: ascending keys are the
/// descending values, and every NaN maps to `u64::MAX`, after every
/// number. Two keys are equal exactly when `cmp_f64_desc` says `Equal`,
/// so sorting `(desc_key(v), index)` pairs, even unstably, gives the
/// order a stable `cmp_f64_desc` sort of the indices would.
#[inline]
pub fn desc_key(v: f64) -> u64 {
    if v.is_nan() {
        u64::MAX
    } else {
        // Only a NaN has total key 0, so a number's key stays below MAX.
        !total_key(v)
    }
}

/// An `f64` wrapper that is `Ord`/`Eq` under the IEEE 754 total order,
/// for use as a sort key (`sort_by_key`), in `BinaryHeap`s, or inside
/// `Ord`-requiring containers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TotalF64(pub f64);

impl TotalF64 {
    /// The wrapped value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for TotalF64 {
    #[inline]
    fn from(v: f64) -> Self {
        TotalF64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_and_descending_agree_on_finite_values() {
        let mut v = vec![3.0, -1.0, 2.5, 0.0];
        v.sort_by(|a, b| cmp_f64(*a, *b));
        assert_eq!(v, vec![-1.0, 0.0, 2.5, 3.0]);
        v.sort_by(|a, b| cmp_f64_desc(*a, *b));
        assert_eq!(v, vec![3.0, 2.5, 0.0, -1.0]);
    }

    #[test]
    fn nan_sorts_to_the_pessimal_end_without_panicking() {
        let mut v = [1.0, f64::NAN, -2.0, f64::INFINITY];
        v.sort_by(|a, b| cmp_f64(*a, *b));
        assert_eq!(v[0], -2.0);
        assert!(v[3].is_nan(), "ascending: NaN lands last");
        v.sort_by(|a, b| cmp_f64_desc(*a, *b));
        assert!(v[3].is_nan(), "descending: NaN lands last");
        assert_eq!(v[0], f64::INFINITY);
    }

    /// The values `total_cmp` distinguishes, plus a pseudo-random sweep
    /// of bit patterns.
    fn edge_values() -> Vec<f64> {
        let mut vals = vec![
            f64::NEG_INFINITY,
            -1.5e300,
            -1.0,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            1.0 + f64::EPSILON,
            1.5e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut s = 0x2545f4914f6cdd1du64;
        for _ in 0..512 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            vals.push(f64::from_bits(s));
        }
        vals
    }

    #[test]
    fn total_key_is_an_order_isomorphism() {
        let vals = edge_values();
        for &a in &vals {
            assert_eq!(
                from_total_key(total_key(a)).to_bits(),
                a.to_bits(),
                "round trip broke {a:?}"
            );
            for &b in &vals {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "key order diverged from total_cmp on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn desc_key_orders_like_cmp_f64_desc() {
        let vals = edge_values();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    desc_key(a).cmp(&desc_key(b)),
                    cmp_f64_desc(a, b),
                    "desc key diverged from cmp_f64_desc on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn total_f64_is_a_lawful_ord_key() {
        let mut v = [TotalF64(2.0), TotalF64(f64::NAN), TotalF64(-1.0)];
        v.sort();
        assert_eq!(v[0].get(), -1.0);
        assert_eq!(v[1].get(), 2.0);
        assert!(v[2].get().is_nan());
        let min = v.iter().min().expect("non-empty");
        assert_eq!(min.get(), -1.0);
    }
}
