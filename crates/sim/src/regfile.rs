//! The 32-entry general-purpose register file.

use zolc_isa::Reg;

/// General-purpose register file with hardwired-zero `r0`.
///
/// # Examples
///
/// ```
/// use zolc_sim::RegFile;
/// use zolc_isa::{reg, Reg};
/// let mut rf = RegFile::new();
/// rf.write(reg(5), 42);
/// assert_eq!(rf.read(reg(5)), 42);
/// rf.write(Reg::ZERO, 99);
/// assert_eq!(rf.read(Reg::ZERO), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// Creates a register file with all registers zero.
    pub fn new() -> RegFile {
        RegFile { regs: [0; 32] }
    }

    /// Reads a register (`r0` always reads 0).
    pub fn read(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register; writes to `r0` are discarded.
    pub fn write(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// A snapshot of all 32 registers, in index order.
    pub fn snapshot(&self) -> [u32; 32] {
        self.regs
    }

    /// Raw access for the nest executor's hot loop, which
    /// avoids the per-access `r0` branch by unconditionally re-zeroing
    /// slot 0 after every write. Callers must leave `regs[0] == 0`.
    pub(crate) fn raw_mut(&mut self) -> &mut [u32; 32] {
        &mut self.regs
    }
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::reg;

    #[test]
    fn r0_is_hardwired() {
        let mut rf = RegFile::new();
        rf.write(reg(0), 7);
        assert_eq!(rf.read(reg(0)), 0);
    }

    #[test]
    fn other_registers_hold_values() {
        let mut rf = RegFile::new();
        for i in 1..32 {
            rf.write(reg(i), u32::from(i) * 3);
        }
        for i in 1..32 {
            assert_eq!(rf.read(reg(i)), u32::from(i) * 3);
        }
        assert_eq!(rf.snapshot()[0], 0);
    }
}
