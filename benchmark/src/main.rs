//! Runs one workload of the repository benchmark and prints its result
//! line last:
//!
//! ```text
//! zolc-repo-bench --workload <e7_sweep|kernels_warm|daemon_jobs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! zolc-repo-bench --record-pins      # prints the pin lines for pins.txt
//! ```

use zolc_repo_bench::{daemon, e7, kernels, report, Args, DEV_SEED, HELD_OUT_SEED};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--record-pins") {
        let seeds = [DEV_SEED, HELD_OUT_SEED];
        println!("# pinned digests and simulated results; regenerate with --record-pins");
        for line in e7::record_pins(&seeds)
            .into_iter()
            .chain(kernels::record_pins(&seeds))
        {
            println!("{line}");
        }
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: zolc-repo-bench --workload <e7_sweep|kernels_warm|daemon_jobs> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "e7_sweep" => e7::run(&args),
        "kernels_warm" => kernels::run(&args),
        _ => daemon::run(&args),
    };
    println!("{}", report::result_line(&out));
}
