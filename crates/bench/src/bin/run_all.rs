//! Runs the paper's experiments in paper order and prints the combined
//! report: every experiment by default, or only the ones named on the
//! command line (`run_all actions phi`).
fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let cfg = bb_bench::ExpConfig::from_env();
    match bb_bench::experiments::run_all(&cfg, &names) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("run_all: {e}");
            std::process::exit(2);
        }
    }
}
