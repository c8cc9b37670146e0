//! Prints the measured corpus table — loop shape, retarget handledness,
//! oracle coverage (with refusal reasons) — for blessing new values
//! into `src/corpus.rs` when programs are added or the stack changes.
//!
//! ```text
//! cargo run -p zolc-lang --example measure_corpus
//! ```

fn main() {
    println!(
        "{:<12} {:>7} {:>6} {:>7} {:>9}  oracle",
        "name", "counted", "while", "handled", "unhandled"
    );
    for e in zolc_lang::corpus() {
        let unit = zolc_lang::compile(e.name, e.source).expect("corpus compiles");
        let built = unit
            .build(&zolc_ir::Target::Baseline)
            .expect("corpus lowers");
        let oracle = match zolc_oracle::summarize(built.program.source(), 0x8_0000) {
            Ok(_) => "ok".to_string(),
            Err(refusal) => format!("{refusal}"),
        };
        let auto = built
            .retarget(zolc_core::ZolcConfig::lite())
            .expect("corpus retargets");
        println!(
            "{:<12} {:>7} {:>6} {:>7} {:>9}  {}",
            e.name,
            unit.counted_loops(),
            unit.while_loops(),
            auto.stats.hw_loops,
            auto.stats.unhandled,
            oracle
        );
    }
}
