//! Plain-text table rendering for the figure binaries, plus the textual
//! JSON splicer that lets late-running benches add their section to an
//! already-written `BENCH_*.json` without clobbering it.

/// Renders an aligned table: header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Milliseconds with 2 decimals.
pub fn ms(d: fractal_net::time::SimDuration) -> String {
    format!("{:.2}", d.as_millis_f64())
}

/// Seconds with 3 decimals.
pub fn secs(d: fractal_net::time::SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Kilobytes with 1 decimal.
pub fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Prints the p50/p99/count of every INP phase histogram in `snap`
/// (normally a snapshot diff covering exactly one pass), under a heading
/// naming where it was measured ("2 thread(s)", "4 shard(s) …").
pub fn print_phase_latencies(at: &str, snap: &fractal_telemetry::Snapshot) {
    println!("  INP phase latency at {at}:");
    for name in fractal_core::reactor::PHASE_METRICS {
        if let Some(h) = snap.histograms.get(name) {
            println!(
                "    {name:<36} p50 {:>12} ns   p99 {:>12} ns   n={}",
                h.quantile(0.50),
                h.quantile(0.99),
                h.count
            );
        }
    }
}

/// Splices `"key": value` into the top level of the JSON object `doc`,
/// replacing the member if one with that key already exists, appending it
/// otherwise. An empty `doc` yields a fresh one-member object.
///
/// Purely textual on purpose — the bench crate has no JSON parser and the
/// `BENCH_*.json` writers emit by hand. The scanner is string-aware
/// (metric names carry `{shard="0"}` labels, braces and quotes inside
/// string literals must not confuse it) and depth-aware, so members of
/// any nesting survive round trips. Multi-line members keep their
/// interior formatting; only the two-space top-level indent is
/// normalized.
pub fn upsert_top_level(doc: &str, key: &str, value: &str) -> String {
    let mut members = top_level_members(doc, "upsert_top_level");
    let needle = format!("\"{key}\"");
    let entry = format!("{needle}: {}", value.trim());
    match members.iter_mut().find(|m| m.starts_with(&needle)) {
        Some(m) => *m = entry,
        None => members.push(entry),
    }
    let body: Vec<String> = members.iter().map(|m| format!("  {m}")).collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Reads the value text of the top-level member `key` of the JSON object
/// `doc`, or `None` when the document is empty or has no such member.
/// The same string-aware depth-0 scanner as [`upsert_top_level`], so a
/// value read back can be edited (e.g. its own members upserted) and
/// re-spliced without a JSON parser — how the scenario driver nests
/// per-scenario rows under one `"scenarios"` section.
pub fn get_top_level(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    top_level_members(doc, "get_top_level").into_iter().find(|m| m.starts_with(&needle)).map(|m| {
        let colon = m.find(':').expect("member has a colon");
        m[colon + 1..].trim().to_string()
    })
}

/// Splits the body of JSON object `doc` at depth-0 commas outside string
/// literals, returning the trimmed `"key": value` member texts.
fn top_level_members(doc: &str, caller: &str) -> Vec<String> {
    let trimmed = doc.trim();
    let inner = if trimmed.is_empty() {
        ""
    } else {
        assert!(
            trimmed.starts_with('{') && trimmed.ends_with('}'),
            "{caller}: doc is not a JSON object"
        );
        &trimmed[1..trimmed.len() - 1]
    };
    let mut members: Vec<String> = Vec::new();
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    let mut start = 0usize;
    for (i, c) in inner.char_indices() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                members.push(inner[start..i].trim().to_string());
                start = i + 1;
            }
            _ => {}
        }
    }
    let tail = inner[start..].trim();
    if !tail.is_empty() {
        members.push(tail.to_string());
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractal_net::time::SimDuration;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(SimDuration::micros(1500)), "1.50");
        assert_eq!(secs(SimDuration::millis(2500)), "2.500");
        assert_eq!(kb(2048), "2.0");
    }

    #[test]
    fn upsert_creates_a_fresh_object_from_nothing() {
        let doc = upsert_top_level("", "c100k", "{\"sessions\": 5}");
        assert_eq!(doc, "{\n  \"c100k\": {\"sessions\": 5}\n}\n");
    }

    #[test]
    fn upsert_appends_without_disturbing_existing_members() {
        let base = "{\n  \"bench\": \"throughput\",\n  \"rows\": [\n    {\"threads\": 1},\n    \
                    {\"threads\": 2}\n  ]\n}\n";
        let doc = upsert_top_level(base, "c100k", "{\"sessions\": 5000}");
        assert!(doc.contains("\"bench\": \"throughput\""));
        assert!(doc.contains("{\"threads\": 1},\n    {\"threads\": 2}"), "{doc}");
        assert!(doc.ends_with("  \"c100k\": {\"sessions\": 5000}\n}\n"), "{doc}");
    }

    #[test]
    fn upsert_replaces_an_existing_member_in_place() {
        let v1 = upsert_top_level(
            "{\n  \"a\": 1,\n  \"c100k\": {\"old\": true},\n  \"z\": 2\n}",
            "c100k",
            "{\"new\": 7}",
        );
        assert!(!v1.contains("old"));
        // Replacement happens in member order, not at the end.
        let c = v1.find("c100k").unwrap();
        assert!(c < v1.find("\"z\"").unwrap(), "{v1}");
        assert!(v1.contains("\"c100k\": {\"new\": 7}"), "{v1}");
    }

    #[test]
    fn upsert_survives_braces_and_quotes_inside_strings() {
        // Labeled metric names look like `name{shard="0"}` — the scanner
        // must not treat their braces or quotes as structure.
        let base = "{\n  \"telemetry\": {\"counters\": {\"x_total{shard=\\\"0\\\"}\": 3}}\n}";
        let doc = upsert_top_level(base, "c100k", "{}");
        assert!(doc.contains("x_total{shard=\\\"0\\\"}"));
        assert_eq!(doc.matches("\"c100k\"").count(), 1);
        let again = upsert_top_level(&doc, "c100k", "{\"v\": 2}");
        assert_eq!(again.matches("\"c100k\"").count(), 1);
        assert!(again.contains("\"c100k\": {\"v\": 2}"));
    }

    #[test]
    fn get_reads_back_what_upsert_wrote() {
        assert_eq!(get_top_level("", "x"), None);
        let doc = upsert_top_level("", "c100k", "{\"sessions\": 5}");
        assert_eq!(get_top_level(&doc, "c100k").as_deref(), Some("{\"sessions\": 5}"));
        assert_eq!(get_top_level(&doc, "missing"), None);
    }

    #[test]
    fn get_then_upsert_nests_members_one_level_down() {
        // The scenario driver's round trip: read the "scenarios" section,
        // upsert one scenario's row inside it, splice it back.
        let mut doc = String::new();
        for (name, row) in [("lossy_link", "{\"completed\": 7}"), ("handoff", "{\"completed\": 3}")]
        {
            let section = get_top_level(&doc, "scenarios").unwrap_or_default();
            let section = upsert_top_level(&section, name, row);
            doc = upsert_top_level(&doc, "scenarios", &section);
        }
        assert!(doc.contains("\"lossy_link\": {\"completed\": 7}"), "{doc}");
        assert!(doc.contains("\"handoff\": {\"completed\": 3}"), "{doc}");
        // Updating one member leaves the sibling untouched.
        let section = get_top_level(&doc, "scenarios").unwrap();
        let section = upsert_top_level(&section, "lossy_link", "{\"completed\": 9}");
        let doc = upsert_top_level(&doc, "scenarios", &section);
        assert!(doc.contains("\"lossy_link\": {\"completed\": 9}"), "{doc}");
        assert!(doc.contains("\"handoff\": {\"completed\": 3}"), "{doc}");
        assert_eq!(doc.matches("\"scenarios\"").count(), 1);
    }
}
