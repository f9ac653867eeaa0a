//! `bench <name> [flags]` runs one experiment; `bench list` names them.

use std::process::ExitCode;

use bench::cli::{Args, USAGE};
use bench::experiments;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if name == "list" {
        for e in experiments::ALL {
            println!("{:<20} {:<16} {}", e.name, e.knobs, e.about);
        }
        return ExitCode::SUCCESS;
    }
    let Some(experiment) = experiments::find(&name) else {
        eprintln!("bench: no experiment named {name} (see `bench list`)\n{USAGE}");
        return ExitCode::from(2);
    };
    match Args::parse(argv) {
        Ok(args) => {
            (experiment.run)(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
