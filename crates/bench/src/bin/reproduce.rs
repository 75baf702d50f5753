//! Regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [--quick] [--json[=DIR]]
//!           [all|table1|fig3a|fig3b|uc1scale|fig4a|fig4b|fig5|fig6|fig7|fig8|fig9|fig10|fig11|presolve|matrix|executor|storage|obs|summary]...
//! ```
//!
//! With no selector, everything runs. `--quick` shrinks workloads to
//! CI-friendly sizes. `--json` additionally writes each artifact as a
//! machine-readable `BENCH_<ID>.json` file (into DIR when given, the
//! current directory otherwise).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bench::figures::{self, Config, Figure};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_dir: Option<PathBuf> = args.iter().find_map(|a| {
        if a == "--json" {
            Some(PathBuf::from("."))
        } else {
            a.strip_prefix("--json=").map(PathBuf::from)
        }
    });
    let cfg = if quick { Config::quick() } else { Config::full() };
    let mut wanted: Vec<String> = args.iter().filter(|a| !a.starts_with("--")).cloned().collect();
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = vec![
            "table1", "fig3a", "fig3b", "uc1scale", "fig4a", "fig4b", "fig5", "fig6", "fig7",
            "fig8", "fig9", "fig10", "fig11", "presolve", "matrix", "executor", "storage", "obs",
            "summary",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }

    println!(
        "SolveDB+ reproduction — regenerating {} artifact(s){}",
        wanted.len(),
        if quick { " (quick sizes)" } else { "" }
    );
    println!();

    for w in &wanted {
        let fig: Figure = match w.as_str() {
            "table1" => figures::table1(cfg),
            "fig3a" => figures::fig3a(cfg),
            "fig3b" => figures::fig3b(cfg),
            "uc1scale" => figures::uc1_scale(cfg),
            "fig4a" => figures::fig4a(cfg),
            "fig4b" => figures::fig4b(cfg),
            "fig5" => figures::fig5(cfg),
            "fig6" => figures::fig6(cfg),
            "fig7" => figures::fig7(cfg),
            "fig8" => figures::fig8(cfg),
            "fig9" => figures::fig9(cfg),
            "fig10" => figures::fig10(cfg),
            "fig11" => figures::fig11(cfg),
            "presolve" => figures::presolve(cfg),
            "matrix" => figures::matrix(cfg),
            "executor" => figures::executor(cfg),
            "storage" => figures::storage_fig(cfg),
            "obs" => figures::obs_fig(cfg),
            "summary" => figures::summary(cfg),
            other => {
                eprintln!("unknown artifact '{other}' — skipping");
                continue;
            }
        };
        println!("{}", fig.render());
        if let Some(dir) = &json_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(fig.json_filename());
            match std::fs::write(&path, fig.to_json()) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
            println!();
        }
    }
}
