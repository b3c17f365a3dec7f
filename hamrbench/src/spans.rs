//! The benchmark's own spans around its calls into the program, kept
//! in memory and written out when the run ends.

use hamr_trace::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record a span around `f`.
    pub fn around<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, usize) {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        (out, self.add(name, None, start_us, end_us))
    }

    /// Record a span whose bounds were measured elsewhere.
    pub fn add(&mut self, name: &str, parent: Option<usize>, start_us: u64, end_us: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us,
            end_us: end_us.max(start_us),
        });
        self.spans.len() - 1
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_us(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_us;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_us - s.start_us) - covered
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\
                 \"end_us\":{},\"self_us\":{}}}",
                escape(&s.name),
                s.start_us,
                s.end_us,
                self.self_us(i)
            );
        }
        out.push(']');
        out
    }

    /// One line per span, children indented under their parent.
    pub fn table(&self) -> Vec<String> {
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let mut lines = vec![format!(
            "# {:<30} {:>12} {:>12} {:>12}",
            "span", "start_ms", "total_ms", "self_ms"
        )];
        for (i, s) in self.spans.iter().enumerate() {
            let name = format!("{}{}", "  ".repeat(depth(i)), s.name);
            lines.push(format!(
                "# {:<30} {:>12.3} {:>12.3} {:>12.3}",
                name,
                s.start_us as f64 / 1e3,
                (s.end_us - s.start_us) as f64 / 1e3,
                self.self_us(i) as f64 / 1e3
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        let root = spans.add("root", None, 0, 100);
        spans.add("a", Some(root), 10, 40);
        spans.add("b", Some(root), 30, 50); // overlaps a
        spans.add("c", Some(root), 90, 130); // runs past the parent
        assert_eq!(spans.self_us(root), 100 - 40 - 10);
        assert_eq!(spans.self_us(1), 30);
    }
}
