//! Regenerates the paper's Figure 2 (also available as
//! `cargo bench --bench fig2_cycles`; this example is the same artifact
//! through the public API).
//!
//! The 48 (kernel, target) cells, the figure's three configurations
//! plus the `ZOLCauto` column, are measured batch-parallel through
//! `zolc::bench::JobMatrix`; results are deterministic regardless of
//! thread count because every cell builds its own program and simulator.
//!
//! Run with `cargo run --release --example figure2`.

fn main() {
    println!("{}", zolc::bench::e1_fig2());
}
