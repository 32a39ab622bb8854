//! Benchmark-side spans: recorded around the public calls the
//! benchmark makes into each layer, kept in memory, and written out as
//! JSON lines when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Unique within the run: the recording log's id in the high 24
    /// bits, a per-log counter below.
    pub id: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: u64,
    /// The op (KV op index, fan-out round, probe iteration) it serves.
    pub op: u64,
    /// Nanoseconds since the process's trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wire form: name length, name, then five little-endian words.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.name.len() as u8);
        out.extend_from_slice(self.name.as_bytes());
        for w in [self.id, self.parent, self.op, self.start_ns, self.end_ns] {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An open span.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

/// One thread's span log. Disabled logs record nothing and cost one
/// branch per call.
pub struct SpanLog {
    on: bool,
    log_id: u64,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log; `log_id` must be unique among the logs of one run.
    pub fn new(on: bool, log_id: u64) -> SpanLog {
        epoch();
        SpanLog {
            on,
            log_id: log_id << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Open a span: its id is allocated now, so children opened inside
    /// it can name it as their parent. Disabled logs return id 0.
    pub fn begin(&mut self) -> Open {
        if !self.on {
            return Open { id: 0, start_ns: 0 };
        }
        self.next += 1;
        Open {
            id: self.log_id | self.next,
            start_ns: now_ns(),
        }
    }

    /// Close a span opened with [`SpanLog::begin`].
    pub fn end(&mut self, name: &'static str, parent: u64, op: u64, open: Open) {
        if self.on {
            self.spans.push(Span {
                name,
                id: open.id,
                parent,
                op,
                start_ns: open.start_ns,
                end_ns: now_ns(),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serialise the recorded spans (for shipping across a join).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.spans.len() * 48);
        for s in &self.spans {
            s.encode_into(&mut out);
        }
        out
    }
}

/// Inverse of [`SpanLog::encode`]. Names are interned against `names`
/// (every span name the benchmark uses), so spans stay `'static`.
pub fn decode(mut body: &[u8], names: &[&'static str]) -> Option<Vec<Span>> {
    let mut out = Vec::new();
    while let Some((&len, rest)) = body.split_first() {
        let len = usize::from(len);
        if rest.len() < len + 40 {
            return None;
        }
        let name = names.iter().find(|n| n.as_bytes() == &rest[..len])?;
        let w = |i: usize| {
            u64::from_le_bytes(
                rest[len + i * 8..len + i * 8 + 8]
                    .try_into()
                    .expect("8 bytes"),
            )
        };
        out.push(Span {
            name,
            id: w(0),
            parent: w(1),
            op: w(2),
            start_ns: w(3),
            end_ns: w(4),
        });
        body = &rest[len + 40..];
    }
    Some(out)
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Write spans as JSON lines under `dir/file`.
pub fn write_jsonl(dir: &Path, file: &str, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(dir.join(file))?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 1);
        let t = log.begin();
        assert_eq!(t.id, 0);
        log.end("kv.get", 0, 7, t);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_roundtrip() {
        let mut log = SpanLog::new(true, 3);
        let round = log.begin();
        let publish = log.begin();
        log.end("publish", round.id, 1, publish);
        log.end("round", 0, 1, round);
        assert_eq!(log.spans().len(), 2);
        assert_eq!(round.id >> 40, 3);
        assert_eq!(log.spans()[0].parent, round.id);
        let back = decode(&log.encode(), &["round", "publish"]).expect("decode");
        assert_eq!(back, log.spans());
        assert!(back[1].start_ns <= back[0].start_ns && back[0].end_ns <= back[1].end_ns);
        assert_eq!(durations(&back, "publish").len(), 1);
        assert!(decode(&log.encode()[..10], &["round", "publish"]).is_none());
    }
}
