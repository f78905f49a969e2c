//! `repro` — regenerate the paper's tables and figures.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(rsc_bench::cli::run(&args));
}
