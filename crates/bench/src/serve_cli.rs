//! The `repro serve` subcommand: run the fault-tolerant multi-tenant
//! controller daemon in the foreground.
//!
//! The process listens on TCP (`--addr`) or a Unix socket (`--unix`),
//! demultiplexes length-prefixed event frames by tenant id, and applies
//! each tenant's stream to its own controller with per-tenant
//! quotas, backpressure, and coldest-first eviction to the checkpoint
//! directory (see the `rsc-serve` crate docs and DESIGN.md §14).
//!
//! Shutdown is always a graceful drain: `SIGTERM`/`SIGINT`, or a `Drain`
//! frame from any client (`repro load --drain`), stops the accept loop
//! and flushes every live tenant to disk. The exit status encodes the
//! outcome for supervisors:
//!
//! * `0` — drained; every tenant's state reached disk;
//! * `1` — some tenant could not be checkpointed (its state was lost
//!   with the process), or the listener failed;
//! * `2` — usage error.

use crate::cli::Args;
use rsc_serve::{ChaosConfig, QuotaConfig, Server, ServerConfig};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The daemon configuration the flags ask for.
///
/// # Errors
///
/// Returns a usage error for an unknown `--chaos` profile or an
/// out-of-range flag value.
fn server_config(args: &Args) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::new(args.text("--checkpoint-dir"));
    cfg.quota = QuotaConfig {
        max_events: args.int("--quota-events")?,
        max_bytes: args.int("--quota-bytes")?,
    };
    cfg.queue_depth = args.int("--queue-depth")?;
    cfg.max_live_tenants = args.int("--max-live")?;
    cfg.chaos = ChaosConfig::profile(args.text("--chaos"), args.int("--chaos-seed")?)?;
    Ok(cfg)
}

/// Set by the signal handler; polled by the shutdown watcher thread.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Routes `SIGTERM` and `SIGINT` to the [`TERM`] flag. Raw libc
/// `signal(2)` because this workspace links no signal crate; storing to
/// an atomic is async-signal-safe.
fn install_term_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

/// Writes the bound address to `path` atomically (write + rename), so a
/// supervisor polling for the file never reads a partial address.
fn write_port_file(path: &Path, addr: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr)?;
    std::fs::rename(&tmp, path)
}

/// Runs the parsed subcommand. Blocks until drain; returns the process
/// exit code.
///
/// # Errors
///
/// Returns a usage error for `--addr` together with `--unix`, or an
/// unknown `--chaos` profile.
pub(crate) fn run(args: &Args) -> Result<i32, String> {
    if args.given("--addr") && args.given("--unix") {
        return Err("--addr and --unix are mutually exclusive".to_string());
    }
    let config = server_config(args)?;
    let unix = args.text_opt("--unix").map(Path::new);
    let port_file = args.text_opt("--port-file").map(Path::new);
    let server = match Server::new(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot open checkpoint dir: {e}");
            return Ok(1);
        }
    };
    install_term_handler();
    let stop = Arc::new(AtomicBool::new(false));
    // The accept loops poll `stop`; this watcher trips it on SIGTERM/
    // SIGINT or once a client-requested drain has run, so a `repro load
    // --drain` storm shuts the daemon down without a supervisor.
    let watcher = {
        let stop = Arc::clone(&stop);
        let server = server.clone();
        std::thread::spawn(move || loop {
            if TERM.load(Ordering::SeqCst) || server.draining() || stop.load(Ordering::SeqCst) {
                stop.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        })
    };

    let served = match unix {
        Some(path) => {
            // A previous unclean exit leaves the socket file behind;
            // binding over it needs the unlink first.
            let _ = std::fs::remove_file(path);
            match UnixListener::bind(path) {
                Ok(listener) => {
                    eprintln!("serve: listening on {}", path.display());
                    if let Some(pf) = port_file {
                        if let Err(e) = write_port_file(pf, &path.display().to_string()) {
                            eprintln!("serve: cannot write {}: {e}", pf.display());
                        }
                    }
                    server.serve_unix(listener, Arc::clone(&stop))
                }
                Err(e) => Err(e),
            }
        }
        None => match TcpListener::bind(args.text("--addr")) {
            Ok(listener) => {
                let bound = listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| args.text("--addr").to_string());
                eprintln!("serve: listening on {bound}");
                if let Some(pf) = port_file {
                    if let Err(e) = write_port_file(pf, &bound) {
                        eprintln!("serve: cannot write {}: {e}", pf.display());
                    }
                }
                server.serve_tcp(listener, Arc::clone(&stop))
            }
            Err(e) => Err(e),
        },
    };
    stop.store(true, Ordering::SeqCst);
    let _ = watcher.join();
    if let Err(e) = served {
        eprintln!("serve: listener failed: {e}");
        return Ok(1);
    }

    // Reached on SIGTERM/SIGINT or after a client-requested drain; the
    // re-drain is idempotent and catches tenants touched in between.
    let report = server.drain();
    let counters = server.counters();
    eprintln!(
        "serve: drained {} tenant(s), {} failed; {} connection(s), {} frame(s) \
         ({} accepted, {} rejected, {} torn), shed {}, restored {}",
        report.flushed,
        report.failed,
        counters.connections,
        counters.frames,
        counters.accepted_frames,
        counters.rejected_frames,
        counters.torn_frames,
        counters.shed_tenants,
        counters.restores,
    );
    if let Some(path) = unix {
        let _ = std::fs::remove_file(path);
    }
    Ok(if report.failed == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{parse_as, run_as};

    #[test]
    fn parse_defaults_match_server_config() {
        let p = parse_as("serve", &[]).unwrap();
        assert_eq!(p.text("--addr"), "127.0.0.1:7433");
        assert_eq!(p.text_opt("--unix"), None);
        let cfg = server_config(&p).unwrap();
        let base = ServerConfig::new("serve-state");
        assert_eq!(cfg.checkpoint_dir, base.checkpoint_dir);
        assert_eq!(cfg.quota, QuotaConfig::unlimited());
        assert_eq!(cfg.queue_depth, base.queue_depth);
        assert_eq!(cfg.max_live_tenants, base.max_live_tenants);
        assert!(!cfg.chaos.enabled());
    }

    #[test]
    fn parse_all_flags_together() {
        let p = parse_as(
            "serve",
            &[
                "--addr",
                "0.0.0.0:9000",
                "--checkpoint-dir",
                "state",
                "--quota-events",
                "1000",
                "--quota-bytes",
                "4096",
                "--queue-depth",
                "3",
                "--max-live",
                "5",
                "--chaos",
                "light",
                "--chaos-seed",
                "9",
                "--port-file",
                "port.txt",
            ],
        )
        .unwrap();
        assert_eq!(p.text("--addr"), "0.0.0.0:9000");
        let cfg = server_config(&p).unwrap();
        assert_eq!(cfg.quota.max_events, 1000);
        assert_eq!(cfg.quota.max_bytes, 4096);
        assert_eq!(cfg.queue_depth, 3);
        assert_eq!(cfg.max_live_tenants, 5);
        assert!(cfg.chaos.enabled());
        assert_eq!(cfg.chaos.seed, 9);
        assert_eq!(p.text_opt("--port-file"), Some("port.txt"));
    }

    #[test]
    fn parse_diagnoses_bad_input_without_panicking() {
        assert_eq!(
            parse_as("serve", &["--queue-depth", "0"]).unwrap_err(),
            "--queue-depth must be at least 1"
        );
        assert_eq!(
            parse_as("serve", &["--max-live", "none"]).unwrap_err(),
            "--max-live needs an integer, got \"none\""
        );
        assert_eq!(
            parse_as("serve", &["--addr"]).unwrap_err(),
            "--addr needs a value"
        );
        assert_eq!(
            parse_as("serve", &["--bogus"]).unwrap_err(),
            "unknown serve option: --bogus"
        );
        let both = parse_as("serve", &["--addr", "a:1", "--unix", "s.sock"]).unwrap();
        assert_eq!(
            run(&both).unwrap_err(),
            "--addr and --unix are mutually exclusive"
        );
        let chaos = parse_as("serve", &["--chaos", "apocalyptic"]).unwrap();
        assert!(server_config(&chaos).is_err());
    }

    #[test]
    fn usage_error_exits_two() {
        assert_eq!(run_as("serve", &["--bogus"]), 2);
        assert_eq!(run_as("serve", &["--queue-depth", "0"]), 2);
    }
}
