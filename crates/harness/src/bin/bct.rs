//! Runs the BCT benchmark (Figures 2–8) and prints each figure's table.
//!
//! ```text
//! cargo run --release -p ssbench-harness --bin bct -- [--scale F] [--trials N]
//!     [--paper-protocol] [--quick] [--seed N] [--out DIR] [--trace DIR]
//!     [--charts] [fig2 fig3 …]
//! ```

use ssbench_harness::{bct, report, run_selected, CliArgs};

fn main() {
    let cli = CliArgs::parse_or_exit("BCT benchmark");
    cli.check_selectors(&bct::EXPERIMENTS.map(|(id, _)| id));
    let results = run_selected(&cli.cfg, &bct::EXPERIMENTS, |id| cli.wants(id));
    for r in &results {
        println!("{}", report::render(r));
        if cli.charts {
            println!("{}", ssbench_harness::chart::render_chart(r));
        }
    }
    match report::write_outputs(&cli.cfg, &results) {
        Ok(0) => {}
        Ok(n) => eprintln!("wrote {n} result files"),
        Err(e) => eprintln!("failed writing outputs: {e}"),
    }
    if let Some(dir) = &cli.trace_dir {
        match report::write_trace(dir, &results, cli.cfg.protocol) {
            Ok(summary) => eprintln!("{summary}"),
            Err(e) => {
                eprintln!("trace validation failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
