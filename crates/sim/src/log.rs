//! The `$display` log: records stored as values, rendered when read.
//!
//! A record is its site (the `$display` statement, numbered by
//! [`Design::sites`](hwdbg_dataflow::Design::sites)), the step and cycle it
//! ran in, and its argument values. Headers and argument words live in two
//! flat vectors, so recording a `$display` copies words and allocates
//! nothing once the vectors have grown. Text exists only when something
//! asks a [`LogRecord`] for its [`message`](LogRecord::message), through
//! the one renderer, [`render_signed`](crate::format::render_signed).
//!
//! SignalCat rebuilds a deployed run's log as the same [`Log`], so a
//! simulated log and a reconstructed one compare as values.

use crate::format::render_signed;
use hwdbg_bits::Bits;
use hwdbg_dataflow::Site;
use hwdbg_rtl::DisplayTag;
use std::fmt;
use std::sync::Arc;

/// Where one record's arguments start, and when it ran.
#[derive(Debug, Clone, Copy)]
struct Head {
    site: u32,
    time: u64,
    cycle: u64,
    /// Offset of its first argument word, counted from the first word
    /// ever recorded.
    at: usize,
}

/// A bounded `$display` log. Once `capacity` records are kept, each new one
/// evicts the oldest; the evicted prefix is compacted away once it reaches
/// `capacity` records, so eviction costs O(1) amortized.
#[derive(Clone)]
pub struct Log {
    sites: Arc<[Site]>,
    heads: Vec<Head>,
    words: Vec<u64>,
    /// The first kept record in `heads`.
    start: usize,
    /// Words compacted away: `words[0]` is word `base` of the log.
    base: usize,
    capacity: usize,
    dropped: u64,
}

/// The words one argument of `width` bits takes.
fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64).max(1)
}

impl Log {
    /// An empty log of records from `sites` that keeps at most `capacity`.
    pub fn new(sites: Arc<[Site]>, capacity: usize) -> Log {
        Log {
            sites,
            heads: Vec::new(),
            words: Vec::new(),
            start: 0,
            base: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record of `site`, evicting the oldest kept record when
    /// the log is full. `args` gives each argument's little-endian words,
    /// in the order of the site's types; each is cut or zero-filled to the
    /// words its type takes.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not a site of the log's design.
    pub fn push<'w>(
        &mut self,
        site: u32,
        time: u64,
        cycle: u64,
        args: impl IntoIterator<Item = &'w [u64]>,
    ) {
        if self.len() >= self.capacity {
            self.dropped += 1;
            if self.capacity == 0 {
                return;
            }
            self.start += 1;
            if self.start >= self.capacity {
                let end = self.base + self.words.len();
                let first = self.heads.get(self.start).map_or(end, |h| h.at);
                self.words.drain(..first - self.base);
                self.base = first;
                self.heads.drain(..self.start);
                self.start = 0;
            }
        }
        let at = self.base + self.words.len();
        self.heads.push(Head { site, time, cycle, at });
        for (arg, ty) in args.into_iter().zip(self.sites[site as usize].tys.iter()) {
            let n = words_for(ty.width);
            let have = n.min(arg.len());
            self.words.extend_from_slice(&arg[..have]);
            self.words.resize(self.words.len() + n - have, 0);
        }
    }

    /// Kept records.
    pub fn len(&self) -> usize {
        self.heads.len() - self.start
    }

    /// Whether no record is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The `i`-th kept record, oldest first.
    pub fn get(&self, i: usize) -> Option<LogRecord<'_>> {
        let k = self.start + i;
        let head = self.heads.get(k)?;
        let end = self.heads.get(k + 1).map_or(self.base + self.words.len(), |h| h.at);
        Some(LogRecord {
            site: head.site,
            time: head.time,
            cycle: head.cycle,
            info: &self.sites[head.site as usize],
            words: &self.words[head.at - self.base..end - self.base],
        })
    }

    /// The kept records, oldest first.
    pub fn iter(&self) -> Iter<'_> {
        Iter { log: self, next: 0 }
    }

    /// Rewinds to the log as it stood after `total` records had been
    /// pushed: later records go, and earlier ones evicted since stay
    /// counted as dropped.
    pub(crate) fn rewind(&mut self, total: u64) {
        let kept = total.saturating_sub(self.dropped) as usize;
        let end = self.start + kept.min(self.len());
        if let Some(h) = self.heads.get(end) {
            self.words.truncate(h.at - self.base);
        }
        self.heads.truncate(end);
        self.dropped = self.dropped.min(total);
    }

    /// Empties the log and sets a new capacity, keeping its storage.
    pub(crate) fn clear(&mut self, capacity: usize) {
        self.heads.clear();
        self.words.clear();
        self.start = 0;
        self.base = 0;
        self.capacity = capacity;
        self.dropped = 0;
    }
}

/// The kept records of a [`Log`], oldest first.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    log: &'a Log,
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = LogRecord<'a>;

    fn next(&mut self) -> Option<LogRecord<'a>> {
        let rec = self.log.get(self.next)?;
        self.next += 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.log.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Log {
    type Item = LogRecord<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Two logs are equal when they keep the same records.
impl PartialEq for Log {
    fn eq(&self, other: &Log) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One kept `$display` record, borrowed from its [`Log`].
#[derive(Clone, Copy)]
pub struct LogRecord<'a> {
    /// The `$display` statement's site number.
    pub site: u32,
    /// Global step counter when the record was produced.
    pub time: u64,
    /// Cycle number of the clock whose edge produced it.
    pub cycle: u64,
    info: &'a Site,
    words: &'a [u64],
}

impl<'a> LogRecord<'a> {
    /// The argument values, in order, at their types' widths.
    pub fn args(&self) -> impl Iterator<Item = Bits> + 'a {
        let (info, words): (&'a Site, &'a [u64]) = (self.info, self.words);
        let mut at = 0;
        info.tys.iter().map(move |ty| {
            let n = words_for(ty.width);
            at += n;
            Bits::from_limbs(ty.width.max(1), &words[at - n..at])
        })
    }

    /// The tag of the tool that added the `$display`, if one did.
    pub fn tag(&self) -> Option<&'a DisplayTag> {
        self.info.tag.as_ref()
    }

    /// The text the `$display` prints.
    pub fn message(&self) -> String {
        let args: Vec<Bits> = self.args().collect();
        let signs: Vec<bool> = self.info.tys.iter().map(|t| t.signed).collect();
        render_signed(&self.info.format, &args, &signs)
    }
}

/// Records are equal when their site, time, cycle and argument values are.
impl PartialEq for LogRecord<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.site, self.time, self.cycle, self.words)
            == (other.site, other.time, other.cycle, other.words)
    }
}

impl fmt::Debug for LogRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogRecord")
            .field("site", &self.site)
            .field("time", &self.time)
            .field("cycle", &self.cycle)
            .field("message", &self.message())
            .finish()
    }
}

impl fmt::Display for LogRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>6}] {}", self.cycle, self.message())
    }
}
