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
use zolc_isa::{Instr, ZolcRegion};

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

    /// This configuration as a run of `text` can see it: two runs of
    /// one text and data whose views are equal retire the same
    /// instructions, with the same statistics, registers, memory,
    /// controller state and violations.
    ///
    /// * `None` when `text` holds no `zwr` and no `zctl`. The
    ///   controller then never leaves its reset state: it stays
    ///   inactive, its hook footprint stays empty and it records no
    ///   violation, so the run is the one with no controller at all.
    /// * This configuration without its entry and exit record slots
    ///   (`ZOLCfull` seen as `ZOLClite`) when `text` writes neither
    ///   region. Records are only written by `zwr`, whose region and
    ///   index are fixed in the instruction, and the controller acts
    ///   only on *valid* entry and exit records. Without such a write
    ///   every slot stays invalid, and the slot count is unobservable.
    /// * The whole configuration otherwise.
    ///
    /// # Examples
    ///
    /// ```
    /// use zolc_core::ZolcConfig;
    /// use zolc_isa::{reg, Instr, ZolcCtl, ZolcRegion};
    ///
    /// let on = Instr::Zctl { op: ZolcCtl::Activate { task: 0 } };
    /// let full = ZolcConfig::full();
    /// assert_eq!(full.seen_by(&[Instr::Halt]), None);
    /// assert_eq!(full.seen_by(&[on, Instr::Halt]), Some(ZolcConfig::lite()));
    /// let entry = Instr::Zwr { region: ZolcRegion::Entry, index: 0, field: 0, rs: reg(1) };
    /// assert_eq!(full.seen_by(&[entry, on, Instr::Halt]), Some(full));
    /// ```
    pub fn seen_by(&self, text: &[Instr]) -> Option<ZolcConfig> {
        let mut controller = false;
        for i in text {
            match i {
                Instr::Zwr {
                    region: ZolcRegion::Entry | ZolcRegion::Exit,
                    ..
                } => return Some(*self),
                Instr::Zwr { .. } | Instr::Zctl { .. } => controller = true,
                _ => {}
            }
        }
        controller.then_some(ZolcConfig {
            variant: match self.variant {
                ZolcVariant::Full => ZolcVariant::Lite,
                v => v,
            },
            entry_slots: 0,
            exit_slots: 0,
            ..*self
        })
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
    use zolc_isa::{reg, ZolcCtl};

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

    fn zwr(region: ZolcRegion) -> Instr {
        Instr::Zwr {
            region,
            index: 1,
            field: 0,
            rs: reg(3),
        }
    }

    /// Every configuration E7 sweeps, and a custom point with records.
    fn configs() -> [ZolcConfig; 5] {
        [
            ZolcConfig::micro(),
            ZolcConfig::lite(),
            ZolcConfig::full(),
            ZolcConfig::custom(2, 8, 0, 0).unwrap(),
            ZolcConfig::custom(4, 16, 2, 1).unwrap(),
        ]
    }

    #[test]
    fn an_inert_text_sees_no_controller() {
        let text = [
            Instr::Addi {
                rt: reg(1),
                rs: reg(0),
                imm: 3,
            },
            Instr::Dbnz {
                rs: reg(1),
                off: -1,
            },
            Instr::Halt,
        ];
        for c in configs() {
            assert_eq!(c.seen_by(&text), None, "{c}");
            assert_eq!(c.seen_by(&[]), None, "{c}");
        }
    }

    #[test]
    fn lite_and_full_look_alike_without_entry_or_exit_writes() {
        let on = Instr::Zctl {
            op: ZolcCtl::Activate { task: 0 },
        };
        let texts = [
            vec![on, Instr::Halt],
            vec![zwr(ZolcRegion::Loop), Instr::Halt],
            vec![
                zwr(ZolcRegion::Loop),
                zwr(ZolcRegion::Task),
                zwr(ZolcRegion::Global),
                on,
                Instr::Zctl { op: ZolcCtl::Reset },
                Instr::Halt,
            ],
        ];
        let (lite, full) = (ZolcConfig::lite(), ZolcConfig::full());
        for text in &texts {
            assert_eq!(lite.seen_by(text), Some(lite), "{text:?}");
            assert_eq!(full.seen_by(text), Some(lite), "{text:?}");
            let records = ZolcConfig::custom(4, 16, 2, 1).unwrap();
            let seen = records.seen_by(text).unwrap();
            assert_eq!(seen, ZolcConfig::custom(4, 16, 0, 0).unwrap(), "{text:?}");
        }
    }

    #[test]
    fn one_entry_or_exit_write_shows_the_whole_configuration() {
        for region in [ZolcRegion::Entry, ZolcRegion::Exit] {
            // the write alone, with no `zctl`, still counts: on a
            // configuration without the region it is a violation
            for text in [vec![zwr(region)], vec![zwr(ZolcRegion::Loop), zwr(region)]] {
                for c in configs() {
                    assert_eq!(c.seen_by(&text), Some(c), "{c} {text:?}");
                }
                assert_ne!(
                    ZolcConfig::lite().seen_by(&text),
                    ZolcConfig::full().seen_by(&text)
                );
            }
        }
    }

    #[test]
    fn micro_and_the_custom_point_stay_distinct() {
        let text = [zwr(ZolcRegion::Loop), Instr::Halt];
        let seen: Vec<Option<ZolcConfig>> = configs().iter().map(|c| c.seen_by(&text)).collect();
        assert_eq!(seen[0], Some(ZolcConfig::micro()));
        assert_eq!(seen[3], Some(ZolcConfig::custom(2, 8, 0, 0).unwrap()));
        // uZOLC, ZOLClite (= ZOLCfull here) and custom 2L/8T: three views
        for (a, b) in [(0, 1), (0, 3), (1, 3), (0, 2), (2, 3)] {
            assert_ne!(seen[a], seen[b], "{} vs {}", configs()[a], configs()[b]);
        }
        assert_eq!(seen[1], seen[2]);
    }

    #[test]
    fn error_display() {
        let e = ZolcConfig::custom(0, 0, 0, 0).unwrap_err();
        assert!(e.to_string().contains("loops"));
    }
}
