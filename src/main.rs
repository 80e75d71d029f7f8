//! The `histmerge` command-line tool: run paper scenarios and simulations
//! from the shell.
//!
//! ```text
//! histmerge example1                 reproduce Example 1 / Figure 1
//! histmerge merge [SEED]             merge one generated scenario, show the outcome
//! histmerge simulate [OPTIONS]       run the two-tier simulator
//! histmerge help                     this message
//! ```

use std::process::ExitCode;

use histmerge::core::merge::{MergeConfig, Merger};
use histmerge::history::fixtures::example1;
use histmerge::history::{run_to_final, PrecedenceGraph};
use histmerge::replication::{Protocol, SimConfig, Simulation, SyncStrategy};
use histmerge::workload::generator::{generate, ScenarioParams};

const HELP: &str = "\
histmerge — history merging for two-tier replicated mobile data (ICDCS 1999)

USAGE:
    histmerge example1             reproduce Example 1 / Figure 1 of the paper
    histmerge merge [SEED]         merge one generated scenario (default seed 42)
    histmerge simulate [KEY=VAL]*  run the two-tier simulator, e.g.
                                   histmerge simulate mobiles=8 ticks=600 \\
                                       protocol=merging window=200 seed=7
    histmerge help                 show this message

SIMULATE KEYS (defaults in parentheses):
    mobiles   number of mobile nodes (4)
    ticks     simulation length (400)
    protocol  merging | reprocessing (merging)
    window    strategy-2 window ticks, or 'snapshot' for strategy 1 (100)
    connect   mean ticks between reconnects (50)
    seed      workload seed (42)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example1") => cmd_example1(),
        Some("merge") => cmd_merge(args.get(1).map(String::as_str)),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("help") | None => {
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_example1() -> ExitCode {
    let ex = example1();
    let graph = PrecedenceGraph::build(&ex.arena, &ex.hm, &ex.hb);
    println!("H_m = {}", ex.hm);
    println!("H_b = {}\n", ex.hb);
    println!("precedence graph (Figure 1):");
    for (from, to, kind) in graph.edges() {
        println!("  {} -> {}  [{kind}]", ex.arena.get(*from).name(), ex.arena.get(*to).name());
    }
    match Merger::new(MergeConfig::default()).merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0) {
        Ok(outcome) => {
            let names = |ids: &[histmerge::txn::TxnId]| {
                ids.iter().map(|i| ex.arena.get(*i).name()).collect::<Vec<_>>().join(" ")
            };
            println!("\nB         = {}", names(&outcome.bad.iter().copied().collect::<Vec<_>>()));
            println!(
                "affected  = {}",
                names(&outcome.affected.iter().copied().collect::<Vec<_>>())
            );
            println!("saved     = {}", names(&outcome.saved));
            println!("backed out= {}", names(&outcome.backed_out));
            match run_to_final(&ex.arena, &ex.hb, &ex.s0) {
                Ok(hb_final) => println!("new master= {}", outcome.new_master(&hb_final)),
                Err(e) => eprintln!("base history failed: {e}"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_merge(seed: Option<&str>) -> ExitCode {
    let seed: u64 = match seed.unwrap_or("42").parse() {
        Ok(s) => s,
        Err(_) => {
            eprintln!("SEED must be an integer");
            return ExitCode::FAILURE;
        }
    };
    let sc = generate(&ScenarioParams {
        n_vars: 32,
        n_tentative: 12,
        n_base: 8,
        hot_fraction: 0.15,
        hot_prob: 0.5,
        seed,
        ..ScenarioParams::default()
    });
    match Merger::new(MergeConfig::default()).merge(&sc.arena, &sc.hm, &sc.hb, &sc.s0) {
        Ok(outcome) => {
            println!("scenario seed {seed}: |Hm| = {}, |Hb| = {}", sc.hm.len(), sc.hb.len());
            println!("B = {:?}", outcome.bad.iter().map(|t| t.to_string()).collect::<Vec<_>>());
            println!(
                "saved {} / {} tentative transactions; {} backed out and re-executed",
                outcome.saved.len(),
                sc.hm.len(),
                outcome.backed_out.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_simulate(kvs: &[String]) -> ExitCode {
    let mut mobiles = 4usize;
    let mut ticks = 400u64;
    let mut protocol = Protocol::merging_default();
    let mut window: Option<u64> = Some(100);
    let mut connect = 50u64;
    let mut seed = 42u64;

    for kv in kvs {
        let Some((k, v)) = kv.split_once('=') else {
            eprintln!("expected KEY=VAL, got `{kv}`");
            return ExitCode::FAILURE;
        };
        let ok = match k {
            "mobiles" => v.parse().map(|x| mobiles = x).is_ok(),
            "ticks" => v.parse().map(|x| ticks = x).is_ok(),
            "connect" => v.parse().map(|x| connect = x).is_ok(),
            "seed" => v.parse().map(|x| seed = x).is_ok(),
            "window" => {
                if v == "snapshot" {
                    window = None;
                    true
                } else {
                    v.parse().map(|x| window = Some(x)).is_ok()
                }
            }
            "protocol" => match v {
                "merging" => {
                    protocol = Protocol::merging_default();
                    true
                }
                "reprocessing" => {
                    protocol = Protocol::Reprocessing;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad option `{kv}`\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    }

    let strategy = match window {
        Some(w) => SyncStrategy::WindowStart { window: w },
        None => SyncStrategy::PerDisconnectSnapshot,
    };
    let config = SimConfig {
        n_mobiles: mobiles,
        duration: ticks,
        connect_every: connect,
        protocol,
        strategy,
        workload: ScenarioParams { seed, ..ScenarioParams::default() },
        ..SimConfig::default()
    };
    let report = Simulation::new(config).expect("valid sim config").run();
    let m = &report.metrics;
    println!("protocol            : {}", protocol.name());
    println!("strategy            : {}", strategy.name());
    println!("tentative generated : {}", m.tentative_generated);
    println!("saved by merging    : {}", m.saved);
    println!("backed out          : {}", m.backed_out);
    println!("reprocessed         : {}", m.reprocessed);
    println!("merge failures      : {}", m.merge_failures);
    println!("window misses       : {}", m.window_misses);
    println!("save ratio          : {:.1}%", 100.0 * m.save_ratio());
    println!(
        "cost                : comm={:.0} baseCPU={:.0} baseIO={:.0} mobileCPU={:.0} total={:.0}",
        m.cost.comm,
        m.cost.base_cpu,
        m.cost.base_io,
        m.cost.mobile_cpu,
        m.cost.total()
    );
    println!("peak base backlog   : {:.0}", m.peak_backlog);
    ExitCode::SUCCESS
}
