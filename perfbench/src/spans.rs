//! In-memory spans of the traced run and their self-time arithmetic.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The job the span belongs to; every span of one job shares it.
    pub job: u64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl SpanLog {
    /// Records a span and returns its index, the id children name as parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            job,
        });
        self.children.push(Vec::new());
        if let Some(parent) = parent {
            self.children[parent].push(index);
        }
        index
    }

    /// The span's duration minus the part of its interval that its children
    /// cover (overlapping children count once; parts outside the parent
    /// count not at all). For a tree's root this is its `other`: the time
    /// no child accounts for.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let (lo, hi) = (span.start_ns, span.end_ns);
        let mut children: Vec<(u64, u64)> = self.children[index]
            .iter()
            .map(|&c| (self.spans[c].start_ns.max(lo), self.spans[c].end_ns.min(hi)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut cursor = lo;
        for (a, b) in children {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        hi - lo - covered
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.job
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let job = log.push("job", 0, 100, None, 7);
        log.push("submit", 0, 10, Some(job), 7);
        let busy = log.push("busy", 40, 100, Some(job), 7);
        // Overlapping children of `busy` cover 50..90 once.
        log.push("engine", 50, 80, Some(busy), 7);
        log.push("engine", 60, 90, Some(busy), 7);
        // A child running past its parent only counts inside it.
        log.push("late", 95, 130, Some(busy), 7);
        assert_eq!(log.self_ns(job), 30);
        assert_eq!(log.self_ns(busy), 60 - 40 - 5);
        assert!(log.spans.iter().all(|s| s.job == 7));
    }

    /// Children that tile part of a span leave the rest as its `other`, and
    /// every span's self time adds up to the root's duration.
    #[test]
    fn other_is_the_remainder_and_self_times_add_up() {
        let mut log = SpanLog::default();
        let job = log.push("job", 5, 105, None, 1);
        log.push("submit", 5, 15, Some(job), 1);
        log.push("queue_wait", 15, 40, Some(job), 1);
        let busy = log.push("busy", 40, 95, Some(job), 1);
        log.push("phase", 40, 70, Some(busy), 1);
        assert_eq!(log.self_ns(job), 10); // 95..105
        assert_eq!(log.self_ns(busy), 25);
        let total: u64 = (0..log.spans.len()).map(|i| log.self_ns(i)).sum();
        assert_eq!(total, 100);
        let leaf = log.push("leaf", 5, 9, None, 2);
        assert_eq!(log.self_ns(leaf), 4);
        assert!(log.to_json().contains("\"name\":\"job\""));
    }
}
