//! Plain-text table printing for experiment output.

/// Prints a titled rule.
pub fn title(text: &str) {
    println!("\n=== {text} ===");
}

/// Prints a header row followed by a rule.
pub fn header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Prints one data row (already formatted cells).
pub fn row(cells: &[String]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", row.join(" "));
}

/// A verdict cell: `pass` when `ok`, else `fail`.
pub fn verdict(ok: bool, pass: &str, fail: &str) -> String {
    if ok { pass } else { fail }.to_string()
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Formats `mean ± std` percentages.
pub fn pct_pm(mean: f64, std: f64) -> String {
    format!("{:.1}±{:.1}%", mean * 100.0, std * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.941), "94.1%");
        assert_eq!(pct_pm(0.5, 0.012), "50.0±1.2%");
    }
}
