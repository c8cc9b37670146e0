//! Regenerates the artifact for experiment `e7_design_space` (run via
//! `cargo bench --bench design_space`; `explore --programs N` sweeps
//! other sizes).

fn main() {
    println!("{}", zolc_bench::e7_design_space());
}
