//! Runs the OOT benchmark (Figures 9–14) and prints each figure's table.
//!
//! ```text
//! cargo run --release -p ssbench-harness --bin oot -- [--scale F] [--trials N]
//!     [--paper-protocol] [--quick] [--seed N] [--out DIR] [--trace DIR]
//!     [--charts] [fig9 fig10 …]
//! ```

use ssbench_harness::{config, oot, report, run_selected, CliArgs};

fn main() {
    let cli = CliArgs::parse_or_exit("OOT benchmark");
    if cli.cfg.stop_after_violation.is_some() {
        // Every OOT figure sweeps its whole grid; none reads the flag.
        config::usage_error("--stop-after-violation: no OOT experiment stops a sweep early");
    }
    cli.check_selectors(&oot::EXPERIMENTS.map(|(id, _)| id));
    let results = run_selected(&cli.cfg, &oot::EXPERIMENTS, |id| cli.wants(id));
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
