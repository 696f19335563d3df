//! `bolted-bench` — harnesses that regenerate every table and figure of
//! the paper's evaluation (§7). Each `fig*`/`tab*` binary prints the
//! series the corresponding figure plots; `cargo bench` additionally
//! measures the real performance of the implementation itself.

#![forbid(unsafe_code)]

pub mod determinism;
pub mod hotpath;
pub mod phases;

/// Prints a figure banner with the paper reference.
pub fn banner(title: &str, paper_ref: &str) {
    print!("{}", banner_text(title, paper_ref));
}

/// The banner [`banner`] prints.
pub fn banner_text(title: &str, paper_ref: &str) -> String {
    let rule = "=".repeat(62);
    format!("{rule}\n{title}\n(reproduces {paper_ref})\n{rule}\n")
}

/// Prints an aligned table: headers + rows of strings.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(headers, rows));
}

/// The table [`print_table`] prints, ending in a blank line.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
    out.push('\n');
    out
}

/// Formats a float with fixed precision.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}
