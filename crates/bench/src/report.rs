//! Plain-text table rendering for experiment binaries.

/// Print a titled, column-aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Format a count scaled to paper size in millions of tuples.
pub fn paper_millions(tuples: u64, factor: f64) -> String {
    format!("{:.0} million", tuples as f64 * factor / 1.0e6)
}

/// Seconds with no decimals (the figures' y-axis granularity).
pub fn secs(s: f64) -> String {
    format!("{s:.0}s")
}

/// A one-line verdict marker for expected-shape checks.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "OK matches paper"
    } else {
        "!! DIVERGES from paper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(paper_millions(591, 1_000_000.0), "591 million");
        assert_eq!(secs(123.4), "123s");
        assert!(verdict(true).contains("matches"));
        assert!(verdict(false).contains("DIVERGES"));
    }

    #[test]
    fn table_prints_without_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
