//! ZOLC hardware configurations.
//!
//! The paper evaluates three design points (§3):
//!
//! | config   | task entries | loops | entry/exit records per loop |
//! |----------|--------------|-------|-----------------------------|
//! | uZOLC    | — (implicit) | 1     | —                           |
//! | ZOLClite | 32           | 8     | —                           |
//! | ZOLCfull | 32           | 8     | 4 + 4                       |
//!
//! [`ZolcConfig`] captures these as parameter sets and also admits custom
//! points for design-space exploration (the area/storage model in
//! [`crate::area`] extrapolates over them).

use std::fmt;

/// Hardware maximum number of loops any configuration may declare.
pub const MAX_LOOPS: usize = 8;
/// Hardware maximum number of task-switching entries.
pub const MAX_TASKS: usize = 32;
/// Sentinel task id meaning "no task" (the controller idles until an entry
/// record or `zctl` names a task again).
pub const TASK_NONE: u8 = 0x1f;

/// The three design points of the paper, plus custom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZolcVariant {
    /// `uZOLC`: a standalone single-loop controller (classic DSP-style
    /// zero-overhead loop) holding full 32-bit values and no task LUT.
    Micro,
    /// `ZOLClite`: multiple loops and a task LUT, but no multiple-entry/exit
    /// records.
    Lite,
    /// `ZOLCfull`: adds 4 entry and 4 exit records per loop.
    Full,
    /// A custom design point (design-space exploration).
    Custom,
}

impl fmt::Display for ZolcVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ZolcVariant::Micro => "uZOLC",
            ZolcVariant::Lite => "ZOLClite",
            ZolcVariant::Full => "ZOLCfull",
            ZolcVariant::Custom => "ZOLCcustom",
        };
        f.write_str(s)
    }
}

/// Errors constructing an invalid configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    msg: String,
}

impl ConfigError {
    fn new(msg: impl Into<String>) -> ConfigError {
        ConfigError { msg: msg.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ZOLC configuration: {}", self.msg)
    }
}

impl std::error::Error for ConfigError {}

/// A ZOLC hardware design point.
///
/// # Examples
///
/// ```
/// use zolc_core::ZolcConfig;
/// let lite = ZolcConfig::lite();
/// assert_eq!(lite.loops(), 8);
/// assert_eq!(lite.tasks(), 32);
/// assert!(!lite.has_records());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZolcConfig {
    variant: ZolcVariant,
    loops: usize,
    tasks: usize,
    entry_slots: usize,
    exit_slots: usize,
    /// Standalone (uZOLC-style) storage: full 32-bit fields, no base
    /// compression, no task LUT.
    wide: bool,
}

impl ZolcConfig {
    /// The paper's `uZOLC` point: one loop, no task LUT, 32-bit fields.
    pub fn micro() -> ZolcConfig {
        ZolcConfig {
            variant: ZolcVariant::Micro,
            loops: 1,
            tasks: 0,
            entry_slots: 0,
            exit_slots: 0,
            wide: true,
        }
    }

    /// The paper's `ZOLClite` point: 8 loops, 32 task entries.
    pub fn lite() -> ZolcConfig {
        ZolcConfig {
            variant: ZolcVariant::Lite,
            loops: MAX_LOOPS,
            tasks: MAX_TASKS,
            entry_slots: 0,
            exit_slots: 0,
            wide: false,
        }
    }

    /// The paper's `ZOLCfull` point: `ZOLClite` plus 4 entry and 4 exit
    /// records per loop (multiple-entry/exit support).
    pub fn full() -> ZolcConfig {
        ZolcConfig {
            variant: ZolcVariant::Full,
            loops: MAX_LOOPS,
            tasks: MAX_TASKS,
            entry_slots: 4,
            exit_slots: 4,
            wide: false,
        }
    }

    /// A custom design point for exploration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `loops` is 0 or exceeds [`MAX_LOOPS`],
    /// `tasks` exceeds [`MAX_TASKS`], a multi-loop configuration declares
    /// no task entries, or record slots exceed 4 per loop.
    pub fn custom(
        loops: usize,
        tasks: usize,
        entry_slots: usize,
        exit_slots: usize,
    ) -> Result<ZolcConfig, ConfigError> {
        if loops == 0 || loops > MAX_LOOPS {
            return Err(ConfigError::new(format!(
                "loops must be in 1..={MAX_LOOPS}, got {loops}"
            )));
        }
        if tasks > MAX_TASKS {
            return Err(ConfigError::new(format!(
                "tasks must be at most {MAX_TASKS}, got {tasks}"
            )));
        }
        if loops > 1 && tasks == 0 {
            return Err(ConfigError::new(
                "multi-loop configurations need task entries (only uZOLC omits the LUT)",
            ));
        }
        if entry_slots > 4 || exit_slots > 4 {
            return Err(ConfigError::new("at most 4 entry/exit records per loop"));
        }
        Ok(ZolcConfig {
            variant: ZolcVariant::Custom,
            loops,
            tasks,
            entry_slots,
            exit_slots,
            wide: tasks == 0,
        })
    }

    /// Which named design point this is.
    pub fn variant(&self) -> ZolcVariant {
        self.variant
    }

    /// Number of loop parameter records.
    pub fn loops(&self) -> usize {
        self.loops
    }

    /// Number of task-switching LUT entries (0 for uZOLC).
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Entry records per loop (multiple-entry support).
    pub fn entry_slots(&self) -> usize {
        self.entry_slots
    }

    /// Exit records per loop (multiple-exit support).
    pub fn exit_slots(&self) -> usize {
        self.exit_slots
    }

    /// Whether any multiple-entry/exit records exist.
    pub fn has_records(&self) -> bool {
        self.entry_slots > 0 || self.exit_slots > 0
    }

    /// Whether this is a standalone wide-field (uZOLC-style) design.
    pub fn is_wide(&self) -> bool {
        self.wide
    }
}

impl Default for ZolcConfig {
    /// The default configuration is the paper's headline design, `ZOLCfull`.
    fn default() -> Self {
        ZolcConfig::full()
    }
}

impl fmt::Display for ZolcConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} loops, {} tasks, {}+{} records/loop)",
            self.variant, self.loops, self.tasks, self.entry_slots, self.exit_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_points() {
        let u = ZolcConfig::micro();
        assert_eq!((u.loops(), u.tasks()), (1, 0));
        assert!(u.is_wide());
        let l = ZolcConfig::lite();
        assert_eq!((l.loops(), l.tasks()), (8, 32));
        assert!(!l.has_records());
        let f = ZolcConfig::full();
        assert_eq!(f.entry_slots() + f.exit_slots(), 8);
        assert!(f.has_records());
    }

    #[test]
    fn custom_validation() {
        assert!(ZolcConfig::custom(0, 0, 0, 0).is_err());
        assert!(ZolcConfig::custom(9, 32, 0, 0).is_err());
        assert!(ZolcConfig::custom(2, 0, 0, 0).is_err());
        assert!(ZolcConfig::custom(8, 33, 0, 0).is_err());
        assert!(ZolcConfig::custom(8, 32, 5, 0).is_err());
        let c = ZolcConfig::custom(4, 16, 2, 2).unwrap();
        assert_eq!(c.variant(), ZolcVariant::Custom);
        assert_eq!(c.loops(), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(ZolcConfig::micro().variant().to_string(), "uZOLC");
        assert_eq!(ZolcConfig::lite().variant().to_string(), "ZOLClite");
        assert_eq!(ZolcConfig::full().variant().to_string(), "ZOLCfull");
        assert!(ZolcConfig::full().to_string().contains("8 loops"));
    }

    #[test]
    fn error_display() {
        let e = ZolcConfig::custom(0, 0, 0, 0).unwrap_err();
        assert!(e.to_string().contains("loops"));
    }
}
