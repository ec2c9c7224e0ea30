//! Standalone daemon binary — thin wrapper over [`dagsfc_serve::cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "dagsfc-serve: long-lived DAG-SFC embedding daemon\n\n\
             usage: dagsfc-serve [--addr 127.0.0.1:4600] [--queue 64]\n\
             \x20                 [--shards 1] [--reclaim-on-disconnect]\n\
             \x20                 [--algo bbe|mbbe|mbbe-st|ranv|minv|grasp|exact]\n\
             \x20                 [--network FILE | --nodes N --seed S --capacity C\n\
             \x20                  --degree D --kinds K --sfc-size L]\n\n\
             The daemon prints `dagsfc-serve listening on ADDR`, serves the\n\
             JSON-lines protocol until a client sends `shutdown`, then prints\n\
             its final stats report as one JSON object. A flag it does not\n\
             read is an error naming it."
        );
        return;
    }
    if let Err(e) = dagsfc_serve::cli::daemon_main(&args) {
        eprintln!("dagsfc-serve: {e}");
        std::process::exit(1);
    }
}
