//! Table 1: the functions and implementations of the PADs, cross-checked
//! against the actually-built artifacts.

use fractal_core::server::AdaptiveContentMode;
use fractal_core::testbed::Testbed;
use fractal_pads::catalog::{table1, Table1Row};

use crate::report::render_table;

/// A Table-1 row augmented with the built artifact's vitals.
#[derive(Clone, Debug)]
pub struct BuiltRow {
    /// The descriptive row.
    pub row: Table1Row,
    /// Artifact wire size in bytes (0 when the protocol is not in the
    /// case-study catalog).
    pub artifact_bytes: usize,
    /// Artifact digest prefix.
    pub digest_short: String,
}

/// Produces the table with live artifact data.
pub fn run() -> Vec<BuiltRow> {
    let tb =
        Testbed::with_protocols(&fractal_protocols::ProtocolId::ALL, AdaptiveContentMode::Reactive);
    let signer = &tb.signer;
    table1()
        .into_iter()
        .map(|row| {
            // Rebuild the artifact for the row's protocol to read vitals.
            let protocol = match row.name {
                "Direct" => fractal_protocols::ProtocolId::Direct,
                "Gzip" => fractal_protocols::ProtocolId::Gzip,
                "Vary-sized blocking" => fractal_protocols::ProtocolId::VaryBlock,
                "Bitmap" => fractal_protocols::ProtocolId::Bitmap,
                _ => fractal_protocols::ProtocolId::FixedBlock,
            };
            let artifact = fractal_pads::build_pad(protocol, signer);
            BuiltRow {
                row,
                artifact_bytes: artifact.wire_len(),
                digest_short: artifact.digest().short(),
            }
        })
        .collect()
}

/// Prints Table 1 with live artifact vitals.
pub fn print(_n_pages: u32) {
    println!("Table 1: functions and implementations of the PADs\n");
    let rows: Vec<Vec<String>> = run()
        .into_iter()
        .map(|r| {
            vec![
                r.row.name.to_string(),
                r.row.function.to_string(),
                r.row.implementation.to_string(),
                r.artifact_bytes.to_string(),
                r.digest_short,
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["PAD name", "Function", "Implementation", "bytes", "digest"], &rows)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_live_artifacts() {
        let rows = run();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.artifact_bytes > 50, "{} artifact too small", r.row.name);
            assert_eq!(r.digest_short.len(), 8);
        }
    }
}
