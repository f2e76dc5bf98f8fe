//! Plain-text table rendering for the figure binaries.

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
}
