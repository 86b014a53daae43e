//! Prints a WAL directory as JSON lines, one per record: segment,
//! offset, payload length and the record itself, with the router's
//! journal payloads (`router-config`, `router-ops`) decoded. The log is
//! binary (CBOR behind a length and a CRC); this is how a person or a
//! script reads one. Then it verifies the log ([`verify_wal`]): every
//! campaign replayed through its spec's own optimizer, so a logged
//! suggestion the optimizer would not have made is refused here even
//! where `open` takes it as logged. Nothing is written or truncated.
//!
//! ```text
//! cargo run -p autotune-serve --example wal_dump -- <dir>
//! ```
//!
//! Exit code 1 on the first record that is torn, fails its CRC or does
//! not decode (the lines before it are printed) and on a log that does
//! not verify (every line is printed), 2 on a usage error.
//!
//! [`verify_wal`]: autotune_serve::verify_wal

use autotune_serve::ServeError;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args_os().skip(1);
    let (Some(dir), None) = (args.next(), args.next()) else {
        eprintln!("usage: wal_dump <dir>");
        return ExitCode::from(2);
    };
    let dir: &Path = dir.as_ref();
    let mut out = std::io::stdout().lock();
    let storage = |e: &dyn std::fmt::Display| ServeError::Storage(e.to_string());
    let dumped = autotune_serve::dump_wal(dir, |line| {
        let json = serde_json::to_string(line).map_err(|e| storage(&e))?;
        writeln!(out, "{json}").map_err(|e| storage(&e))
    });
    let checked = dumped.and_then(|records| {
        eprintln!("wal_dump: {records} records");
        autotune_serve::verify_wal(dir)
    });
    match checked {
        Ok(report) => {
            eprintln!("wal_dump: {} campaigns verified", report.campaigns);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wal_dump: {e}");
            ExitCode::FAILURE
        }
    }
}
