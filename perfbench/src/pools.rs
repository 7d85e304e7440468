//! Workload inputs: pools of ordered within-adgroup creative pairs in their
//! wire form, and the expected score of every pair.

use std::collections::HashSet;

use microbrowse_core::serve::{Fidelity, Scorer, ServingBundle};
use microbrowse_core::ScoringEngine;
use microbrowse_core::{AdCorpus, Placement};
use microbrowse_synth::{generate, GeneratorConfig};
use microbrowse_text::Snippet;

use crate::stats::Rng;

/// Pairs each oracle bundle scores before it is replaced.
const ORACLE_CHUNK: usize = 8192;

/// Pairs in the hot working set (`hot-score`, `conn-churn`, `hot-batch`).
pub const HOT_SET: usize = 1024;

/// Ordered creative pairs over a table of distinct snippets.
#[derive(Clone)]
pub struct Pool {
    /// Distinct creatives in wire form (`line1|line2|line3`).
    pub wires: Vec<String>,
    /// Each creative as the server parses it from the wire.
    pub snippets: Vec<Snippet>,
    /// Ordered pairs `(r, s)` as indexes into `wires`.
    pub pairs: Vec<(u32, u32)>,
    /// Expected score of each pair, filled by [`Pool::fill_expected`].
    pub expected: Vec<f64>,
}

/// A creative's wire form: its lines joined with `|`.
pub fn wire_of(snippet: &Snippet) -> String {
    let lines: Vec<&str> = snippet.lines().iter().map(|l| l.text.as_str()).collect();
    lines.join("|")
}

/// A wire creative parsed the way the server parses it.
pub fn parse_wire(wire: &str) -> Snippet {
    Snippet::from_lines(wire.split('|').map(str::trim))
}

impl Pool {
    /// Every distinct ordered pair of distinct creatives within an adgroup,
    /// shuffled by `rng`.
    pub fn from_corpus(corpus: &AdCorpus, rng: &mut Rng) -> Self {
        let mut index = std::collections::HashMap::<String, u32>::new();
        let mut wires = Vec::new();
        let mut id = |w: String, wires: &mut Vec<String>| -> u32 {
            *index.entry(w.clone()).or_insert_with(|| {
                wires.push(w);
                (wires.len() - 1) as u32
            })
        };
        let mut seen = HashSet::new();
        let mut pairs = Vec::new();
        for group in &corpus.adgroups {
            let ids: Vec<u32> = group
                .creatives
                .iter()
                .map(|c| id(wire_of(&c.snippet), &mut wires))
                .collect();
            for &r in &ids {
                for &s in &ids {
                    if r != s && seen.insert((r, s)) {
                        pairs.push((r, s));
                    }
                }
            }
        }
        rng.shuffle(&mut pairs);
        let snippets = wires.iter().map(|w| parse_wire(w)).collect();
        Self {
            wires,
            snippets,
            pairs,
            expected: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The pair's wire strings.
    pub fn wire_pair(&self, i: usize) -> (&str, &str) {
        let (r, s) = self.pairs[i];
        (&self.wires[r as usize], &self.wires[s as usize])
    }

    /// The pair as the server parses it.
    pub fn snippet_pair(&self, i: usize) -> (&Snippet, &Snippet) {
        let (r, s) = self.pairs[i];
        (&self.snippets[r as usize], &self.snippets[s as usize])
    }

    /// Expected scores from an in-process scorer over the served bundle's
    /// model and statistics, with an engine of its own: its alignment cache
    /// is not the server's, so computing the expectations cannot warm the
    /// server. Pairs are scored grouped by creative, so each scratch
    /// tokenizes a creative once (scores do not depend on the order they
    /// are computed in). A fresh engine per [`ORACLE_CHUNK`] pairs keeps its
    /// cache small; pools larger than one chunk use `threads` threads.
    pub fn fill_expected(&mut self, served: &ServingBundle, threads: usize) -> Result<(), String> {
        let threads = if self.len() > ORACLE_CHUNK {
            threads.max(1)
        } else {
            1
        };
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.pairs[i]);
        let mut scored: Vec<f64> = vec![0.0; self.len()];
        for (order, out) in order
            .chunks(ORACLE_CHUNK)
            .zip(scored.chunks_mut(ORACLE_CHUNK))
        {
            let engine = ScoringEngine::compile(served.stats()).map_err(|e| e.to_string())?;
            let scorer =
                Scorer::with_engine(served.model(), served.stats(), Fidelity::Full, &engine);
            let per_thread = order.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (idx, part) in order.chunks(per_thread).zip(out.chunks_mut(per_thread)) {
                    let (scorer, pool) = (&scorer, &*self);
                    scope.spawn(move || {
                        let mut scratch = scorer.scratch();
                        for (&i, slot) in idx.iter().zip(part) {
                            let (r, s) = pool.snippet_pair(i);
                            *slot = scorer.score_pair(r, s, &mut scratch);
                        }
                    });
                }
            });
        }
        self.expected = vec![0.0; self.len()];
        for (i, score) in order.into_iter().zip(scored) {
            self.expected[i] = score;
        }
        Ok(())
    }
}

/// A held-out corpus of `adgroups` adgroups, generated from `seed` with the
/// training corpus's settings.
pub fn held_out(adgroups: usize, seed: u64) -> AdCorpus {
    generate(&GeneratorConfig {
        num_adgroups: adgroups,
        placement: Placement::Top,
        seed,
        ..Default::default()
    })
    .corpus
}
