//! Timestamp and interval support.
//!
//! Timestamps are microseconds since the Unix epoch (no time zone, like
//! PostgreSQL's `timestamp without time zone`); intervals are a plain
//! microsecond count. Civil-date conversions use Howard Hinnant's
//! `days_from_civil` algorithm, valid far beyond any date a workload here
//! produces.

use crate::error::{Error, Result};

pub const MICROS_PER_SEC: i64 = 1_000_000;
pub const MICROS_PER_MIN: i64 = 60 * MICROS_PER_SEC;
pub const MICROS_PER_HOUR: i64 = 60 * MICROS_PER_MIN;
pub const MICROS_PER_DAY: i64 = 24 * MICROS_PER_HOUR;

/// Days since 1970-01-01 for a civil date (proleptic Gregorian).
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`days_from_civil`].
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Broken-down civil time extracted from a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Civil {
    pub year: i64,
    pub month: u32,
    pub day: u32,
    pub hour: u32,
    pub minute: u32,
    pub second: u32,
    pub micros: u32,
}

/// Decompose a timestamp (micros since epoch) into civil fields.
pub fn decompose(ts: i64) -> Civil {
    let days = ts.div_euclid(MICROS_PER_DAY);
    let mut rem = ts.rem_euclid(MICROS_PER_DAY);
    let (year, month, day) = civil_from_days(days);
    let hour = (rem / MICROS_PER_HOUR) as u32;
    rem %= MICROS_PER_HOUR;
    let minute = (rem / MICROS_PER_MIN) as u32;
    rem %= MICROS_PER_MIN;
    let second = (rem / MICROS_PER_SEC) as u32;
    let micros = (rem % MICROS_PER_SEC) as u32;
    Civil { year, month, day, hour, minute, second, micros }
}

/// Compose a timestamp from civil fields.
pub fn compose(c: Civil) -> i64 {
    days_from_civil(c.year, c.month, c.day) * MICROS_PER_DAY
        + c.hour as i64 * MICROS_PER_HOUR
        + c.minute as i64 * MICROS_PER_MIN
        + c.second as i64 * MICROS_PER_SEC
        + c.micros as i64
}

/// Parse a timestamp literal. Accepts `YYYY-MM-DD[ HH:MM[:SS[.ffffff]]]`
/// and the paper's `YYYY/MM/DD HH:MM` style.
pub fn parse_timestamp(s: &str) -> Result<i64> {
    let s = s.trim();
    let bad = || Error::eval(format!("invalid timestamp literal: '{s}'"));
    let (date_part, time_part) = match s.split_once(|c| c == ' ' || c == 'T') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let sep = if date_part.contains('/') { '/' } else { '-' };
    let mut it = date_part.split(sep);
    let year: i64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let month: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let day: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if it.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(bad());
    }
    let (mut hour, mut minute, mut second, mut micros) = (0u32, 0u32, 0u32, 0u32);
    if let Some(t) = time_part {
        let mut parts = t.split(':');
        hour = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        minute = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if let Some(sec) = parts.next() {
            let (sec_s, frac) = match sec.split_once('.') {
                Some((a, b)) => (a, Some(b)),
                None => (sec, None),
            };
            second = sec_s.parse().map_err(|_| bad())?;
            if let Some(frac) = frac {
                let mut f = frac.to_string();
                while f.len() < 6 {
                    f.push('0');
                }
                micros = f[..6].parse().map_err(|_| bad())?;
            }
        }
        if parts.next().is_some() || hour > 23 || minute > 59 || second > 60 {
            return Err(bad());
        }
    }
    Ok(compose(Civil { year, month, day, hour, minute, second, micros }))
}

/// Render a timestamp as `YYYY-MM-DD HH:MM:SS[.ffffff]`.
pub fn format_timestamp(ts: i64) -> String {
    let c = decompose(ts);
    if c.micros == 0 {
        format!(
            "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
            c.year, c.month, c.day, c.hour, c.minute, c.second
        )
    } else {
        format!(
            "{:04}-{:02}-{:02} {:02}:{:02}:{:02}.{:06}",
            c.year, c.month, c.day, c.hour, c.minute, c.second, c.micros
        )
    }
}

/// Parse an interval literal body, e.g. `1 hour`, `30 minutes`, `2 days`,
/// `1 hour 30 minutes`, `00:30:00`.
pub fn parse_interval(s: &str) -> Result<i64> {
    let s = s.trim();
    let bad = || Error::eval(format!("invalid interval literal: '{s}'"));
    if s.contains(':') && !s.chars().any(|c| c.is_alphabetic()) {
        // HH:MM[:SS]
        let neg = s.starts_with('-');
        let body = s.trim_start_matches('-');
        let mut parts = body.split(':');
        let h: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let m: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let sec: f64 = match parts.next() {
            Some(x) => x.parse().map_err(|_| bad())?,
            None => 0.0,
        };
        let total = h * MICROS_PER_HOUR + m * MICROS_PER_MIN + (sec * 1e6) as i64;
        return Ok(if neg { -total } else { total });
    }
    let mut total: i64 = 0;
    let mut toks = s.split_whitespace().peekable();
    let mut matched_any = false;
    while let Some(numtok) = toks.next() {
        let qty: f64 = numtok.parse().map_err(|_| bad())?;
        let unit = toks.next().ok_or_else(bad)?.to_ascii_lowercase();
        let unit = unit.trim_end_matches('s');
        let scale = match unit {
            "microsecond" | "us" => 1.0,
            "millisecond" | "ms" => 1e3,
            "second" | "sec" => 1e6,
            "minute" | "min" => 60e6,
            "hour" | "hr" | "h" => 3600e6,
            "day" | "d" => 86400e6,
            "week" | "w" => 7.0 * 86400e6,
            _ => return Err(bad()),
        };
        total += (qty * scale) as i64;
        matched_any = true;
    }
    if !matched_any {
        return Err(bad());
    }
    Ok(total)
}

/// Render an interval as a compact unit string.
pub fn format_interval(us: i64) -> String {
    let neg = us < 0;
    // Unsigned: `i64::MIN` has no positive counterpart.
    let mut rem = us.unsigned_abs();
    let unit = |u: i64| u as u64;
    let days = rem / unit(MICROS_PER_DAY);
    rem %= unit(MICROS_PER_DAY);
    let hours = rem / unit(MICROS_PER_HOUR);
    rem %= unit(MICROS_PER_HOUR);
    let mins = rem / unit(MICROS_PER_MIN);
    rem %= unit(MICROS_PER_MIN);
    let secs = rem as f64 / 1e6;
    let mut out = String::new();
    if neg {
        out.push('-');
    }
    let mut push = |s: String| {
        if !out.is_empty() && !out.ends_with('-') {
            out.push(' ');
        }
        out.push_str(&s);
    };
    if days != 0 {
        push(format!("{days} days"));
    }
    if hours != 0 {
        push(format!("{hours} hours"));
    }
    if mins != 0 {
        push(format!("{mins} minutes"));
    }
    if secs != 0.0 || (days == 0 && hours == 0 && mins == 0) {
        if secs.fract() == 0.0 {
            push(format!("{} seconds", secs as u64));
        } else {
            push(format!("{secs} seconds"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip_known_dates() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(2017, 7, 2), 17349);
        assert_eq!(civil_from_days(17349), (2017, 7, 2));
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn civil_roundtrip_sweep() {
        for z in (-800_000..800_000).step_by(137) {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
    }

    #[test]
    fn parse_paper_style_timestamp() {
        let ts = parse_timestamp("2017/07/02 07:00").unwrap();
        let c = decompose(ts);
        assert_eq!((c.year, c.month, c.day, c.hour, c.minute), (2017, 7, 2, 7, 0));
        assert_eq!(format_timestamp(ts), "2017-07-02 07:00:00");
    }

    #[test]
    fn parse_iso_timestamp_with_fraction() {
        let ts = parse_timestamp("2021-03-23 12:34:56.5").unwrap();
        let c = decompose(ts);
        assert_eq!(c.second, 56);
        assert_eq!(c.micros, 500_000);
        assert!(format_timestamp(ts).ends_with(".500000"));
    }

    #[test]
    fn parse_date_only() {
        let ts = parse_timestamp("2020-02-29").unwrap();
        assert_eq!(decompose(ts).day, 29);
    }

    #[test]
    fn reject_bad_timestamps() {
        assert!(parse_timestamp("not a date").is_err());
        assert!(parse_timestamp("2020-13-01").is_err());
        assert!(parse_timestamp("2020-01-01 25:00").is_err());
    }

    #[test]
    fn interval_units() {
        assert_eq!(parse_interval("1 hour").unwrap(), MICROS_PER_HOUR);
        assert_eq!(parse_interval("2 days").unwrap(), 2 * MICROS_PER_DAY);
        assert_eq!(
            parse_interval("1 hour 30 minutes").unwrap(),
            MICROS_PER_HOUR + 30 * MICROS_PER_MIN
        );
        assert_eq!(parse_interval("00:30:00").unwrap(), 30 * MICROS_PER_MIN);
        assert_eq!(parse_interval("-01:00").unwrap(), -MICROS_PER_HOUR);
        assert!(parse_interval("banana").is_err());
    }

    #[test]
    fn interval_formatting() {
        assert_eq!(format_interval(MICROS_PER_HOUR), "1 hours");
        assert_eq!(format_interval(0), "0 seconds");
        assert_eq!(format_interval(MICROS_PER_DAY + 2 * MICROS_PER_HOUR), "1 days 2 hours");
    }

    #[test]
    fn timestamp_arithmetic_via_micros() {
        let t0 = parse_timestamp("2017/07/02 07:00").unwrap();
        let t1 = parse_timestamp("2017/07/02 08:00").unwrap();
        assert_eq!(t1 - t0, MICROS_PER_HOUR);
    }
}
