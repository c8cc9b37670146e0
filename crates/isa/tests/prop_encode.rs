//! Property tests for the XR32 binary encoding.

use proptest::prelude::*;
use zolc_isa::{decode, encode, Instr, Reg, ZolcCtl, ZolcRegion};

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

fn any_region() -> impl Strategy<Value = ZolcRegion> {
    prop_oneof![
        Just(ZolcRegion::Loop),
        Just(ZolcRegion::Task),
        Just(ZolcRegion::Entry),
        Just(ZolcRegion::Exit),
        Just(ZolcRegion::Global),
    ]
}

/// Generates an arbitrary *canonical* instruction: one whose encoding
/// decodes back to exactly the same value. (The only aliasing in the ISA is
/// `sll r0, r0, 0` == `nop` == the all-zero word, excluded here.)
fn any_instr() -> impl Strategy<Value = Instr> {
    use Instr::*;
    fn rrr() -> impl Strategy<Value = (Reg, Reg, Reg)> {
        (any_reg(), any_reg(), any_reg())
    }
    fn simm() -> impl Strategy<Value = (Reg, Reg, i16)> {
        (any_reg(), any_reg(), any::<i16>())
    }
    fn uimm() -> impl Strategy<Value = (Reg, Reg, u16)> {
        (any_reg(), any_reg(), any::<u16>())
    }
    prop_oneof![
        rrr().prop_map(|(rd, rs, rt)| Add { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Sub { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| And { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Or { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Xor { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Nor { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Slt { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Sltu { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Mul { rd, rs, rt }),
        rrr().prop_map(|(rd, rs, rt)| Mulh { rd, rs, rt }),
        rrr().prop_map(|(rd, rt, rs)| Sllv { rd, rt, rs }),
        rrr().prop_map(|(rd, rt, rs)| Srlv { rd, rt, rs }),
        rrr().prop_map(|(rd, rt, rs)| Srav { rd, rt, rs }),
        (any_reg(), any_reg(), 1u8..32).prop_map(|(rd, rt, sh)| Sll { rd, rt, sh }),
        (any_reg(), any_reg(), 0u8..32).prop_map(|(rd, rt, sh)| Srl { rd, rt, sh }),
        (any_reg(), any_reg(), 0u8..32).prop_map(|(rd, rt, sh)| Sra { rd, rt, sh }),
        simm().prop_map(|(rt, rs, imm)| Addi { rt, rs, imm }),
        simm().prop_map(|(rt, rs, imm)| Slti { rt, rs, imm }),
        simm().prop_map(|(rt, rs, imm)| Sltiu { rt, rs, imm }),
        uimm().prop_map(|(rt, rs, imm)| Andi { rt, rs, imm }),
        uimm().prop_map(|(rt, rs, imm)| Ori { rt, rs, imm }),
        uimm().prop_map(|(rt, rs, imm)| Xori { rt, rs, imm }),
        (any_reg(), any::<u16>()).prop_map(|(rt, imm)| Lui { rt, imm }),
        simm().prop_map(|(rt, rs, off)| Lb { rt, rs, off }),
        simm().prop_map(|(rt, rs, off)| Lbu { rt, rs, off }),
        simm().prop_map(|(rt, rs, off)| Lh { rt, rs, off }),
        simm().prop_map(|(rt, rs, off)| Lhu { rt, rs, off }),
        simm().prop_map(|(rt, rs, off)| Lw { rt, rs, off }),
        simm().prop_map(|(rt, rs, off)| Sb { rt, rs, off }),
        simm().prop_map(|(rt, rs, off)| Sh { rt, rs, off }),
        simm().prop_map(|(rt, rs, off)| Sw { rt, rs, off }),
        simm().prop_map(|(rs, rt, off)| Beq { rs, rt, off }),
        simm().prop_map(|(rs, rt, off)| Bne { rs, rt, off }),
        (any_reg(), any::<i16>()).prop_map(|(rs, off)| Blez { rs, off }),
        (any_reg(), any::<i16>()).prop_map(|(rs, off)| Bgtz { rs, off }),
        (any_reg(), any::<i16>()).prop_map(|(rs, off)| Bltz { rs, off }),
        (any_reg(), any::<i16>()).prop_map(|(rs, off)| Bgez { rs, off }),
        (any_reg(), any::<i16>()).prop_map(|(rs, off)| Dbnz { rs, off }),
        (0u32..(1 << 26)).prop_map(|target| J { target }),
        (0u32..(1 << 26)).prop_map(|target| Jal { target }),
        any_reg().prop_map(|rs| Jr { rs }),
        (any_region(), any::<u8>(), 0u8..32, any_reg()).prop_map(|(region, index, field, rs)| {
            Zwr {
                region,
                index,
                field,
                rs,
            }
        }),
        any::<u8>().prop_map(|task| Zctl {
            op: ZolcCtl::Activate { task }
        }),
        Just(Zctl {
            op: ZolcCtl::Deactivate
        }),
        Just(Zctl { op: ZolcCtl::Reset }),
        Just(Nop),
        Just(Halt),
    ]
}

proptest! {
    /// decode is a left inverse of encode for canonical instructions.
    #[test]
    fn decode_inverts_encode(i in any_instr()) {
        let w = encode(&i);
        let back = decode(w).expect("encoded instruction must decode");
        prop_assert_eq!(back, i);
    }

    /// Decoding normalizes: re-encoding a decoded word and decoding again
    /// yields the same instruction (encode∘decode is idempotent modulo
    /// don't-care bits in non-canonical encodings).
    #[test]
    fn encode_decode_normalizes(w in any::<u32>()) {
        if let Ok(i) = decode(w) {
            let again = encode(&i);
            prop_assert_eq!(decode(again), Ok(i));
        }
    }

    /// Register-usage helpers never report the zero register.
    #[test]
    fn usage_helpers_filter_r0(i in any_instr()) {
        if let Some(d) = i.dst() {
            prop_assert!(!d.is_zero());
        }
        for s in i.srcs().into_iter().flatten() {
            prop_assert!(!s.is_zero());
        }
    }

    /// `def_use` is `dst` with the `srcs` as a mask.
    #[test]
    fn def_use_agrees_with_dst_and_srcs(i in any_instr()) {
        let mask = i.srcs().into_iter().flatten().fold(0u32, |m, r| m | 1 << r.index());
        prop_assert_eq!(i.def_use(), (i.dst(), mask));
    }

    /// Display output is parseable-looking, non-empty ASCII.
    #[test]
    fn display_nonempty(i in any_instr()) {
        let s = i.to_string();
        prop_assert!(!s.is_empty());
        prop_assert!(s.is_ascii());
    }
}
