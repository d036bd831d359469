//! The `doall` command-line tool: simulate Do-All executions, sweep delay
//! bounds, and inspect contention and closed-form bounds.
//!
//! ```text
//! cargo run --release --bin doall -- simulate --algo padet -p 64 -t 256 -d 16
//! cargo run --release --bin doall -- sweep --grid 'algos=da:3 shapes=27x729 ds=1,2,4,8,16,32,64,128,256,512'
//! cargo run --release --bin doall -- contention -p 16 -n 64
//! cargo run --release --bin doall -- bounds -p 64 -t 256 -d 16
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

use doall::cli;
use std::io::{self, Write as _};

#[allow(
    clippy::disallowed_methods,
    reason = "D003: the binary's entry point is the one reader of the command line"
)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    match cli::execute(&command) {
        Ok(cli::Outcome::Clean) => {}
        // diff-style exit codes: 1 = baseline drift, 2 = trouble.
        Ok(cli::Outcome::Drift) => std::process::exit(1),
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
            std::process::exit(2);
        }
    }
}
