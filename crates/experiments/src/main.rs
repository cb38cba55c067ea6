//! Command-line entry point that regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p dejavu-experiments --release -- all
//! cargo run -p dejavu-experiments --release -- fig6 fig8 --seed 7
//! cargo run -p dejavu-experiments --release -- fleet --tenants 40 --snapshot-out fleet.snap
//! cargo run -p dejavu-experiments --release -- fleet --tenants 8 --snapshot-in fleet.snap --churn
//! cargo run -p dejavu-experiments --release -- fleet --transport steal --threads 4 --staleness 1
//! cargo run -p dejavu-experiments --release -- fleet --obs --obs-out fleet-obs.json
//! cargo run -p dejavu-experiments --release -- fleet --transport steal --faults 42 --checkpoint-every 8
//! cargo run -p dejavu-experiments --release -- fleet --transport steal --checkpoint-dir fleet-ckpt/
//! cargo run -p dejavu-experiments --release -- fleet --repo remote:127.0.0.1:7117
//! ```

use dejavu_fleet::{FaultSpec, TransportConfig};
use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut seed = 1u64;
    let mut fleet_opts = dejavu_experiments::fleet::FleetOptions {
        seed: 1,
        tenants: 40,
        days: 3,
        baselines: true,
        ..Default::default()
    };
    // `--transport steal` defaults to 1 epoch of staleness;
    // `--staleness` overrides it (0 bit-matches the BSP barrier) and
    // `--threads` caps the work-stealing pool. The name itself goes through
    // the typed `TransportConfig::parse`, so an unknown backend is a clear
    // error listing the valid choices.
    let mut transport_name: Option<String> = None;
    let mut staleness = 1usize;
    let mut threads = 4usize;
    // `--faults SEED[:kind,...]` goes through the typed `FaultSpec::parse`
    // and is checked against the resolved transport: malformed specs and
    // fault injection on the BSP barrier are clear errors, not panics.
    let mut fault_spec: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--seed" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed needs a non-negative integer");
                    std::process::exit(2);
                }
            }
        } else if arg == "--tenants" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => fleet_opts.tenants = n,
                _ => {
                    eprintln!("--tenants needs a positive tenant count");
                    std::process::exit(2);
                }
            }
        } else if arg == "--days" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => fleet_opts.days = n,
                _ => {
                    eprintln!("--days needs a positive day count");
                    std::process::exit(2);
                }
            }
        } else if arg == "--transport" {
            match it.next() {
                Some(v) => transport_name = Some(v.clone()),
                None => {
                    eprintln!("--transport needs a backend name ('bsp' or 'steal')");
                    std::process::exit(2);
                }
            }
        } else if arg == "--staleness" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => staleness = k,
                None => {
                    eprintln!("--staleness needs an epoch count");
                    std::process::exit(2);
                }
            }
        } else if arg == "--threads" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => {
                    eprintln!("--threads needs a positive worker count");
                    std::process::exit(2);
                }
            }
        } else if arg == "--faults" {
            match it.next() {
                Some(v) if !v.starts_with("--") => fault_spec = Some(v.clone()),
                _ => {
                    eprintln!(
                        "--faults needs a schedule spec: \"SEED\" or \"SEED:kind,...\" \
                         with kinds like 'crash', 'drop', 'shard-loss'"
                    );
                    std::process::exit(2);
                }
            }
        } else if arg == "--checkpoint-every" {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => fleet_opts.checkpoint_every = n,
                None => {
                    eprintln!("--checkpoint-every needs a commit count (0 keeps every delta)");
                    std::process::exit(2);
                }
            }
        } else if arg == "--checkpoint-dir" {
            match it.next() {
                Some(v) if !v.starts_with("--") => fleet_opts.checkpoint_dir = Some(v.clone()),
                _ => {
                    eprintln!("--checkpoint-dir needs a directory path");
                    std::process::exit(2);
                }
            }
        } else if arg == "--snapshot-compact" {
            fleet_opts.snapshot_compact = true;
        } else if arg == "--snapshot-in" || arg == "--snapshot-out" {
            // A missing path must not silently no-op (or swallow the next
            // flag as a file name): demand a non-flag value.
            let path = match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => {
                    eprintln!("{arg} needs a file path");
                    std::process::exit(2);
                }
            };
            if arg == "--snapshot-in" {
                fleet_opts.snapshot_in = Some(path);
            } else {
                fleet_opts.snapshot_out = Some(path);
            }
        } else if arg == "--repo" {
            // `--repo local` (the default), `--repo remote` (the daemon's
            // default port) or `--repo remote:HOST:PORT`.
            match it.next().map(String::as_str) {
                Some("local") => fleet_opts.repo_remote = None,
                Some("remote") => fleet_opts.repo_remote = Some("127.0.0.1:7117".to_string()),
                Some(v) if v.starts_with("remote:") => {
                    fleet_opts.repo_remote = Some(v["remote:".len()..].to_string());
                }
                _ => {
                    eprintln!("--repo needs 'local', 'remote' or 'remote:HOST:PORT'");
                    std::process::exit(2);
                }
            }
        } else if arg == "--churn" {
            fleet_opts.churn = true;
        } else if arg == "--obs" {
            fleet_opts.obs = true;
        } else if arg == "--obs-out" {
            let path = match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => {
                    eprintln!("--obs-out needs a file path");
                    std::process::exit(2);
                }
            };
            fleet_opts.obs = true;
            fleet_opts.obs_out = Some(path);
        } else {
            targets.push(arg.clone());
        }
    }
    fleet_opts.seed = seed;
    if let Some(name) = &transport_name {
        match TransportConfig::parse(name, threads, staleness) {
            Ok(transport) => fleet_opts.transport = transport,
            Err(message) => {
                eprintln!("--transport: {message}");
                std::process::exit(2);
            }
        }
    }
    if let Some(spec) = &fault_spec {
        let spec = match FaultSpec::parse(spec) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("--faults: {e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = fleet_opts.transport.check_faults(&spec) {
            eprintln!("--faults: {e}");
            std::process::exit(2);
        }
        fleet_opts.faults = Some(spec);
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = vec![
            "fig1", "fig4", "fig5", "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "overhead", "savings", "ablation",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }
    for target in targets {
        let text = match target.as_str() {
            "fig1" => dejavu_experiments::fig1::run(seed).report().into_text(),
            "fig4" => dejavu_experiments::fig4::run(seed).report().into_text(),
            "fig5" => dejavu_experiments::fig5::run(seed).report().into_text(),
            "table1" => dejavu_experiments::table1::run(seed).report().into_text(),
            "fig6" => dejavu_experiments::fig6::run(seed)
                .report("Figure 6: scaling out Cassandra (Messenger trace)")
                .into_text(),
            "fig7" => dejavu_experiments::fig7::run(seed)
                .report("Figure 7: scaling out Cassandra (HotMail trace)")
                .into_text(),
            "fig8" => dejavu_experiments::fig8::run(seed).report().into_text(),
            "fig9" => dejavu_experiments::fig9::run(seed)
                .report("Figure 9: scaling up SPECweb (HotMail trace)")
                .into_text(),
            "fig10" => dejavu_experiments::fig10::run(seed)
                .report("Figure 10: scaling up SPECweb (Messenger trace)")
                .into_text(),
            "fig11" => dejavu_experiments::fig11::run(seed).report().into_text(),
            "overhead" => dejavu_experiments::overhead::run(seed).report().into_text(),
            "savings" => dejavu_experiments::savings::run(seed).report().into_text(),
            "ablation" => dejavu_experiments::ablation::run(seed).report().into_text(),
            "fleet" => match dejavu_experiments::fleet::run_opts(&fleet_opts) {
                Ok(figure) => figure.report().into_text(),
                Err(e) => {
                    eprintln!("fleet experiment failed: {e}");
                    std::process::exit(1);
                }
            },
            other => format!("unknown experiment '{other}'\n"),
        };
        println!("{text}");
    }
}
