use crate::{lint_program, LintKind};
use zolc_core::{ImageError, LimitSrc, LoopSpec, TaskSpec, ZolcConfig, ZolcImage, TASK_NONE};
use zolc_ir::{lower_into, IndexSpec, LoopIr, LoopNode, Node, Target, Trips};
use zolc_isa::{reg, Asm, Instr, Program, TEXT_BASE};

fn lowered_single_loop() -> (Program, ZolcImage) {
    let ir = LoopIr {
        name: "t".into(),
        nodes: vec![Node::Loop(LoopNode {
            trips: Trips::Const(4),
            index: Some(IndexSpec {
                reg: reg(20),
                init: 0,
                step: 1,
            }),
            counter: reg(11),
            body: vec![Node::code([
                Instr::Add {
                    rd: reg(2),
                    rs: reg(2),
                    rt: reg(20),
                },
                Instr::Nop,
            ])],
        })],
    };
    let mut asm = Asm::new();
    let info = lower_into(&mut asm, &ir, &Target::Zolc(ZolcConfig::lite())).unwrap();
    asm.emit(Instr::Halt);
    (asm.finish().unwrap(), info.image.unwrap())
}

#[test]
fn lowered_image_verifies_clean() {
    let (p, image) = lowered_single_loop();
    let report = lint_program(&p, Some(&image));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn bad_addresses_reported_with_kind_and_addr() {
    let (p, mut image) = lowered_single_loop();
    image.loops[0].end = 0xdead00.into();
    let report = lint_program(&p, Some(&image));
    let l = report
        .lints
        .iter()
        .find(|l| l.kind == LintKind::BadRecordAddr)
        .expect("bad-record-addr lint");
    assert_eq!(l.addr, 0xdead00);
    assert!(
        l.to_string().contains("outside text"),
        "Display keeps prose"
    );
}

#[test]
fn index_register_body_write_reported() {
    let (p, mut image) = lowered_single_loop();
    // claim r2 (which the body writes) is the hardware index
    image.loops[0].index_reg = Some(reg(2));
    let report = lint_program(&p, Some(&image));
    let l = report
        .lints
        .iter()
        .find(|l| l.kind == LintKind::IndexRegWrite)
        .expect("index-reg-write lint");
    assert_eq!(
        p.instr_at(l.addr).and_then(Instr::dst),
        Some(reg(2)),
        "anchored at the offending instruction"
    );
}

#[test]
fn invalid_task_references_reported() {
    let (p, mut image) = lowered_single_loop();
    let sound = lint_program(&p, Some(&image));
    image.tasks.push(TaskSpec {
        end: image.tasks[0].end,
        loop_id: 7,
        next_iter: 0,
        next_fallthru: TASK_NONE,
    });
    assert!(matches!(
        image.validate(&ZolcConfig::lite()),
        Err(ImageError::BadReference(_))
    ));
    // bad references are `validate`'s to report: lint skips the record
    assert_eq!(lint_program(&p, Some(&image)), sound);
}

#[test]
fn unresolved_labels_reported() {
    let p = zolc_isa::assemble("nop\nhalt\n").unwrap();
    let mut asm = Asm::new();
    let dangling = asm.new_label();
    let image = ZolcImage {
        loops: vec![LoopSpec {
            init: 0,
            step: 0,
            limit: LimitSrc::Const(1),
            index_reg: None,
            start: dangling.into(),
            end: dangling.into(),
        }],
        tasks: vec![],
        entries: vec![],
        exits: vec![],
        initial_task: TASK_NONE,
    };
    let report = lint_program(&p, Some(&image));
    let l = report
        .lints
        .iter()
        .find(|l| l.kind == LintKind::BadRecordAddr)
        .expect("bad-record-addr lint");
    assert_eq!(
        l.addr, TEXT_BASE,
        "an unresolved address anchors at the text base"
    );
    assert!(l.message.contains("loop 0: unresolved"), "{l}");
}
