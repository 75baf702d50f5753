//! Effective Lines of Code (eLOC) — the implementation-size metric of
//! the paper's evaluation (Morozoff \[24\]): lines that carry program
//! logic, excluding blanks, comments and lone block delimiters.

/// Count effective lines in a source string. Handles SQL (`--`),
/// Matlab (`%`), Python/R (`#`) and C-style comments.
pub fn eloc(source: &str) -> usize {
    let mut in_block_comment = false;
    let mut count = 0;
    for raw in source.lines() {
        let mut line = raw.trim().to_string();
        if line.is_empty() {
            continue;
        }
        // Block comments (SQL/C style).
        loop {
            if in_block_comment {
                match line.find("*/") {
                    Some(end) => {
                        line = line[end + 2..].trim().to_string();
                        in_block_comment = false;
                    }
                    None => {
                        line.clear();
                        break;
                    }
                }
            } else {
                match line.find("/*") {
                    Some(start) => {
                        let rest = line[start + 2..].to_string();
                        line = line[..start].trim_end().to_string();
                        in_block_comment = true;
                        // Re-check the remainder for the closing marker.
                        if let Some(end) = rest.find("*/") {
                            line.push_str(rest[end + 2..].trim());
                            in_block_comment = false;
                        }
                        if in_block_comment {
                            break;
                        }
                    }
                    None => break,
                }
            }
        }
        // Line comments.
        for marker in ["--", "%", "#", "//"] {
            if let Some(pos) = line.find(marker) {
                // Don't cut '%' inside format strings etc. — good enough
                // for the measured scripts, which put comments on their
                // own lines or at end of line.
                line = line[..pos].trim_end().to_string();
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Lone delimiters don't count as effective lines.
        if matches!(line, "{" | "}" | "(" | ")" | ");" | "};" | "end" | "end;" | "begin") {
            continue;
        }
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sql() {
        let s = "
-- a comment
SELECT a,           -- trailing comment
       b
FROM t;             /* block
comment spanning lines */
WHERE x = 1;
";
        assert_eq!(eloc(s), 4);
    }

    #[test]
    fn skips_blanks_and_delimiters() {
        let s = "
function y = f(x)
  y = x + 1;
end
";
        assert_eq!(eloc(s), 2);
    }

    #[test]
    fn python_comments() {
        let s = "
# setup
import numpy as np
x = 1  # inline
";
        assert_eq!(eloc(s), 2);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(eloc(""), 0);
        assert_eq!(eloc("\n\n-- only comments\n"), 0);
    }
}
