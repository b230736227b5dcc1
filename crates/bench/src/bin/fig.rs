//! The tables of [`wisedb_bench::figures`] in one process: `fig --list`
//! names the ids (Figs 9–22, then `ablation`, `streaming`,
//! `streaming_rates`, `streaming_overload`, `multitenant`, `strategies`
//! and `train_warm`), `fig 9 13 strategies` runs those, `fig` runs them
//! all, training each distinct model once. `strategies` and `train_warm`
//! panic when their gate fails, so the run exits non-zero.
//! `WISEDB_SCALE` picks the scale; `--strategy` / `WISEDB_STRATEGY` and
//! `WISEDB_NODE_LIMIT` configure the oracle
//! ([`wisedb_bench::oracle_config`]).

use wisedb_bench::figures::{self, Context, FIGURES};
use wisedb_bench::Scale;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut ids = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for fig in FIGURES {
                    println!("{:<18}  {}", fig.id, fig.title);
                }
                return;
            }
            // Read by `oracle_config`.
            "--strategy" => drop(args.next()),
            _ if arg.starts_with("--strategy=") => {}
            _ => ids.push(arg),
        }
    }
    let selected = figures::select(&ids).unwrap_or_else(|e| {
        eprintln!("fig: {e}");
        std::process::exit(2);
    });
    let mut ctx = Context::new(Scale::from_env(), true);
    for fig in selected {
        eprintln!("fig {}...", fig.id);
        let title = format!("fig {}: {}", fig.id, fig.title);
        (fig.run)(&mut ctx).titled(title).print();
    }
    println!("(*) the oracle hit its node budget: the gap is to a best-found upper bound");
    let n = ctx.trainings();
    eprintln!("fig: {n} trainings, one per distinct (spec, goal, training config)");
}
