//! Spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files (the program has no
//! tracing yet), kept in memory and written out when the run ends. A
//! disabled tracer records nothing, so untraced passes pay nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

/// One recorded span. `parent` is the index of the span that caused it in
/// the same file (line number, 0-based); spans of one case share `pass`,
/// `protocol` and `seed`.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// What was called: `pass`, `case`, `build`, `run`, `check_run`, `audit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Measured pass number.
    pub pass: u32,
    /// Registry name of the protocol (empty on pass-level spans).
    pub protocol: &'static str,
    /// Scenario seed (the run's seed on pass-level spans).
    pub seed: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    /// Whether `open` records anything.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Tracer::close`] and for
    /// children's `parent`. `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        pass: u32,
        protocol: &'static str,
        seed: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            pass,
            protocol,
            seed,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration in nanoseconds of all spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Write one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = serde_json::to_string(span).expect("spans serialize");
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
