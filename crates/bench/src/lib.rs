//! Shared helpers for the figure/table reproduction harnesses.
//!
//! Every `benches/figNN_*.rs` / `benches/tableN_*.rs` target regenerates
//! one table or figure of the KV-Direct paper and prints the measured
//! series next to the paper's reference values (where the paper states
//! them). Run them all with `cargo bench -p kvd-bench`, or one with
//! `cargo bench -p kvd-bench --bench fig16_ycsb_throughput`.

pub use kvd_sim::report::{fmt_bytes, fmt_f, fmt_mops, Table};

/// Prints the harness banner: which paper artifact this regenerates and
/// what shape to expect.
pub fn banner(figure: &str, claim: &str) {
    println!("{}", "=".repeat(72));
    println!("KV-Direct reproduction — {figure}");
    println!("paper claim: {claim}");
    println!("{}", "=".repeat(72));
    println!();
}

/// Prints a closing shape-check line: PASS/FAIL on the qualitative claim.
pub fn shape_check(name: &str, ok: bool, detail: &str) {
    let status = if ok { "PASS" } else { "FAIL" };
    println!("[shape {status}] {name}: {detail}");
}

/// Extracts one top-level `"name": { ... }` section (braces included)
/// from a flat benchmark-report JSON document. The reports emit no
/// braces inside string values, so plain depth counting is exact.
pub fn json_section(text: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\"");
    let at = text.find(&key)?;
    let rest = &text[at + key.len()..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Reads the number stored under `"key"` inside the top-level `"section"`
/// of a benchmark-report JSON document, e.g. a committed gate value.
pub fn json_section_number(text: &str, section: &str, key: &str) -> Option<f64> {
    let body = json_section(text, section)?;
    let k = format!("\"{key}\"");
    let rest = &body[body.find(&k)? + k.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Returns `text` with its top-level `"name"` section replaced by
/// `body` (an object literal including braces), or appended before the
/// closing brace when absent. Lets independent harnesses each own one
/// section of a shared report file without clobbering the others.
pub fn with_json_section(text: &str, name: &str, body: &str) -> String {
    let key = format!("\"{name}\"");
    if let (Some(at), Some(existing)) = (text.find(&key), json_section(text, name)) {
        let open = text[at..].find('{').expect("section has a body") + at;
        let mut out = String::with_capacity(text.len() + body.len());
        out.push_str(&text[..open]);
        out.push_str(body);
        out.push_str(&text[open + existing.len()..]);
        return out;
    }
    let close = text.rfind('}').expect("document is an object");
    let head = text[..close].trim_end();
    let mut out = String::with_capacity(text.len() + body.len() + name.len() + 8);
    out.push_str(head);
    out.push_str(",\n  ");
    out.push_str(&key);
    out.push_str(": ");
    out.push_str(body);
    out.push_str("\n}\n");
    out
}

/// Standard scaled memory size used by the functional experiments
/// (stands in for the paper's 64 GiB with all ratios preserved).
pub const SCALED_MEMORY: u64 = 1 << 20;

/// Larger scale for experiments that need corpus ≫ NIC DRAM.
pub const SCALED_MEMORY_BIG: u64 = 8 << 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_accept_paper_ratio_nic_dram() {
        // Both scales must admit a host/16 NIC DRAM under the ECC
        // metadata constraint (ratio 16, 4-way: 4 + 2 tag bits + dirty
        // + valid ≤ 8); constructing the cache enforces it.
        for host in [SCALED_MEMORY, SCALED_MEMORY_BIG] {
            let cfg = kvd_mem::NicDramConfig {
                capacity: host / 16,
                bandwidth: kvd_sim::Bandwidth::from_gbytes_per_sec(12.8),
            };
            let _ = kvd_mem::NicDram::new(cfg, host);
        }
    }

    #[test]
    fn json_sections_replace_and_append() {
        let doc = "{\n  \"after\": {\"x\": 1.0},\n  \"cluster\": {\"rf2\": {\"g\": 2}}\n}\n";
        assert_eq!(
            json_section(doc, "cluster").as_deref(),
            Some("{\"rf2\": {\"g\": 2}}")
        );
        assert_eq!(json_section(doc, "missing"), None);
        // Numbers are read from inside the named section only.
        assert_eq!(json_section_number(doc, "after", "x"), Some(1.0));
        assert_eq!(json_section_number(doc, "cluster", "g"), Some(2.0));
        assert_eq!(json_section_number(doc, "cluster", "x"), None);
        assert_eq!(json_section_number(doc, "missing", "x"), None);
        assert_eq!(
            json_section_number(
                "{\"after\": {\"rps\": 343942, \"m\": -1.5e3}}",
                "after",
                "m"
            ),
            Some(-1.5e3)
        );
        // Replace keeps the rest of the document intact.
        let replaced = with_json_section(doc, "cluster", "{\"rf3\": {\"g\": 3}}");
        assert_eq!(
            json_section(&replaced, "cluster").as_deref(),
            Some("{\"rf3\": {\"g\": 3}}")
        );
        assert_eq!(
            json_section(&replaced, "after").as_deref(),
            Some("{\"x\": 1.0}")
        );
        // Append adds a new section before the closing brace.
        let appended =
            with_json_section("{\n  \"after\": {\"x\": 1.0}\n}\n", "cluster", "{\"g\": 9}");
        assert_eq!(
            json_section(&appended, "cluster").as_deref(),
            Some("{\"g\": 9}")
        );
        assert_eq!(
            json_section(&appended, "after").as_deref(),
            Some("{\"x\": 1.0}")
        );
    }

    #[test]
    fn banner_and_shape_check_do_not_panic() {
        banner("smoke", "claim");
        shape_check("smoke", true, "detail");
        shape_check("smoke", false, "detail");
    }
}
