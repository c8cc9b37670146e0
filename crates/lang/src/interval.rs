//! Signed value-range (interval) lattice for the code generator's
//! AST-level range reasoning (proving loop bounds countable).
//!
//! Endpoints are `i64` so `i32` arithmetic can never overflow the
//! analysis itself; [`Interval::normalize`] degrades anything that may
//! wrap to [`Interval::TOP`], which keeps every rule sound under the
//! machine's wrapping arithmetic (a wrapped result is still an `i32`,
//! and `TOP` contains every `i32`).

/// A conservative signed range `[lo, hi]` for a 32-bit value
/// interpreted as `i32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The full `i32` range (⊤).
    pub const TOP: Interval = Interval {
        lo: i32::MIN as i64,
        hi: i32::MAX as i64,
    };

    /// The single-value interval `[v, v]`.
    pub fn point(v: i32) -> Interval {
        Interval {
            lo: i64::from(v),
            hi: i64::from(v),
        }
    }

    /// The value, when the interval pins exactly one.
    pub fn as_const(self) -> Option<i32> {
        (self.lo == self.hi).then_some(self.lo as i32)
    }

    /// The smallest interval containing both.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamps to `i32`; anything that may wrap degrades to
    /// [`Interval::TOP`].
    pub fn normalize(self) -> Interval {
        if self.lo < i64::from(i32::MIN) || self.hi > i64::from(i32::MAX) {
            Interval::TOP
        } else {
            self
        }
    }
}

/// Range addition (degrades to ⊤ on possible wrap).
impl std::ops::Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
        .normalize()
    }
}

/// Range subtraction (degrades to ⊤ on possible wrap).
impl std::ops::Sub for Interval {
    type Output = Interval;

    fn sub(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo - other.hi,
            hi: self.hi - other.lo,
        }
        .normalize()
    }
}

/// Range multiplication (degrades to ⊤ on possible wrap).
impl std::ops::Mul for Interval {
    type Output = Interval;

    fn mul(self, other: Interval) -> Interval {
        let corners = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        Interval {
            lo: corners.iter().copied().min().expect("nonempty"),
            hi: corners.iter().copied().max().expect("nonempty"),
        }
        .normalize()
    }
}

/// Range negation (degrades to ⊤ on possible wrap: `-i32::MIN`).
impl std::ops::Neg for Interval {
    type Output = Interval;

    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
        .normalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_the_hull_and_points_are_constants() {
        let a = Interval::point(3).join(Interval::point(8));
        assert_eq!(a, Interval { lo: 3, hi: 8 });
        assert_eq!(a.as_const(), None);
        assert_eq!(Interval::point(7).as_const(), Some(7));
    }

    #[test]
    fn interval_lattice_basics() {
        let iv = |lo, hi| Interval { lo, hi };
        assert_eq!(Interval::point(-3).as_const(), Some(-3));
        assert_eq!(iv(-1, 4).as_const(), None);
        assert_eq!(
            Interval::point(i32::MAX) + Interval::point(1),
            Interval::TOP,
            "wrap degrades to ⊤"
        );
        assert_eq!(-Interval::point(i32::MIN), Interval::TOP);
        assert_eq!(iv(-2, 3) * iv(4, 5), iv(-10, 15));
    }
}
