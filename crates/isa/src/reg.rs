//! General-purpose register names for the XR32 ISA.
//!
//! XR32 has 32 general-purpose registers. `r0` is hardwired to zero, as on
//! the XiRisc core the paper extends: writes to it are ignored and reads
//! always return 0.

use std::fmt;
use std::str::FromStr;

/// A general-purpose register index in `0..32`.
///
/// `Reg` is a validated newtype: it can only hold indices `0..=31`, so the
/// simulator's register file can index with it without bounds checks.
///
/// # Examples
///
/// ```
/// use zolc_isa::Reg;
/// let r = Reg::new(5).unwrap();
/// assert_eq!(r.index(), 5);
/// assert_eq!(r.to_string(), "r5");
/// assert_eq!("r5".parse::<Reg>().unwrap(), r);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// The error returned when constructing or parsing an invalid register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    what: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid register `{}` (expected r0..r31)", self.what)
    }
}

impl std::error::Error for ParseRegError {}

impl Reg {
    /// The zero register (`r0`): reads as 0, writes are discarded.
    pub const ZERO: Reg = Reg(0);
    /// Conventional return-address register (`r31`), written by `jal`.
    pub const RA: Reg = Reg(31);

    /// Creates a register from an index.
    ///
    /// Returns `None` if `index >= 32`.
    pub fn new(index: u8) -> Option<Reg> {
        if index < 32 {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// Creates a register from the low 5 bits of an encoded field.
    ///
    /// This cannot fail because the value is masked to 5 bits; it is meant
    /// for instruction decoding where the field is exactly 5 bits wide.
    pub fn from_field(bits: u32) -> Reg {
        Reg((bits & 0x1f) as u8)
    }

    /// The register index in `0..32`.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The register index as the raw 5-bit encoding field.
    pub fn field(self) -> u32 {
        u32::from(self.0)
    }

    /// Whether this is the hardwired-zero register `r0`.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterates over all 32 registers in index order.
    ///
    /// ```
    /// use zolc_isa::Reg;
    /// assert_eq!(Reg::all().count(), 32);
    /// ```
    pub fn all() -> impl Iterator<Item = Reg> {
        (0u8..32).map(Reg)
    }
}

impl Default for Reg {
    fn default() -> Self {
        Reg::ZERO
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRegError { what: s.to_owned() };
        let rest = s
            .strip_prefix('r')
            .or_else(|| s.strip_prefix('R'))
            .ok_or_else(err)?;
        let idx: u8 = rest.parse().map_err(|_| err())?;
        Reg::new(idx).ok_or_else(err)
    }
}

impl From<Reg> for usize {
    fn from(r: Reg) -> usize {
        r.index()
    }
}

/// Convenience constructor used pervasively in tests and kernels.
///
/// # Panics
///
/// Panics if `index >= 32`.
///
/// ```
/// use zolc_isa::{reg, Reg};
/// assert_eq!(reg(3), Reg::new(3).unwrap());
/// ```
pub fn reg(index: u8) -> Reg {
    Reg::new(index).expect("register index out of range (must be < 32)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_range() {
        assert!(Reg::new(0).is_some());
        assert!(Reg::new(31).is_some());
        assert!(Reg::new(32).is_none());
        assert!(Reg::new(255).is_none());
    }

    #[test]
    fn zero_register_properties() {
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::RA.is_zero());
        assert_eq!(Reg::ZERO.index(), 0);
        assert_eq!(Reg::RA.index(), 31);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for r in Reg::all() {
            let s = r.to_string();
            assert_eq!(s.parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("x5".parse::<Reg>().is_err());
        assert!("r32".parse::<Reg>().is_err());
        assert!("r-1".parse::<Reg>().is_err());
        assert!("".parse::<Reg>().is_err());
        assert!("r".parse::<Reg>().is_err());
    }

    #[test]
    fn from_field_masks() {
        assert_eq!(Reg::from_field(0x3f), Reg::new(31).unwrap());
        assert_eq!(Reg::from_field(5), Reg::new(5).unwrap());
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn reg_helper_panics_out_of_range() {
        let _ = reg(40);
    }
}
