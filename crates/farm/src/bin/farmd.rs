//! `farmd` — the sweep-farm coordinator. Binds a TCP listener, prints
//! `farmd: listening on <addr>` (scrape that when binding port 0), and
//! serves jobs until killed.

use std::net::TcpListener;
use std::process::exit;

const USAGE: &str = "\
usage: farmd [options]

options:
  --listen ADDR   bind address (default 127.0.0.1:0; port 0 picks a
                  free port, printed on stderr)
  --help          show this help
";

fn usage_err(msg: &str) -> ! {
    eprintln!("farmd: {msg}");
    eprint!("{USAGE}");
    exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:0".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            "--listen" => {
                listen = argv
                    .next()
                    .unwrap_or_else(|| usage_err("--listen needs a value"))
            }
            other => usage_err(&format!("unknown argument '{other}'")),
        }
    }
    let listener = TcpListener::bind(&listen).unwrap_or_else(|err| {
        eprintln!("farmd: cannot bind {listen}: {err}");
        exit(1);
    });
    if let Err(err) = dvm_farm::serve(listener) {
        eprintln!("farmd: {err}");
        exit(1);
    }
}
