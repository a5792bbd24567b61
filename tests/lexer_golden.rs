//! Pins the token stream of every source the front end is measured on.
//!
//! For each testbed source (buggy and fixed) and the 400-tile SoC that
//! the `soc_cold` benchmark workload builds at seed 1, each line of
//! `fixtures/lexer_golden.txt` holds the token count and an FNV-1a digest
//! of every token's kind, text and byte span. A change to how the lexer
//! dispatches, or to where a token starts or ends, shows up here.

use hwdbg::rtl::token::{lex, Tok};
use hwdbg::testbed::{metadata, BugId};

/// The benchmark's SoC generator, compiled in as-is so the golden lexes
/// exactly the text the benchmark parses.
#[allow(dead_code)]
#[path = "../benchmark/src/scaled.rs"]
mod scaled;

const GOLDEN: &str = include_str!("fixtures/lexer_golden.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `name tokens=N fnv=H` for one source.
fn line(name: &str, source: &str) -> String {
    let toks = lex(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut h = FNV_OFFSET;
    for t in &toks {
        let (kind, text): (u8, &str) = match &t.tok {
            Tok::Ident(s) => (0, s),
            Tok::SysName(s) => (1, s),
            Tok::Number(s) => (2, s),
            Tok::Str(s) => (3, s),
            Tok::Keyword(k) => (4, k.as_str()),
            Tok::Punct(p) => (5, p),
            Tok::Eof => (6, ""),
        };
        h = fnv(h, &[kind]);
        h = fnv(h, text.as_bytes());
        h = fnv(h, &[0]);
        h = fnv(h, &(t.span.start as u64).to_le_bytes());
        h = fnv(h, &(t.span.end as u64).to_le_bytes());
    }
    format!("{name} tokens={} fnv={h:016x}", toks.len())
}

#[test]
fn token_streams_match_golden() {
    let mut got = Vec::new();
    for id in BugId::ALL {
        let meta = metadata(id);
        got.push(line(&format!("{id}-buggy"), meta.source));
        got.push(line(&format!("{id}-fixed"), &meta.fixed_source()));
    }
    let soc = scaled::generate(400, 1).unwrap_or_else(|e| panic!("soc: {e}"));
    got.push(line("soc-400-seed1", &soc));
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(got, want, "token streams drifted:\n{}", got.join("\n"));
}
