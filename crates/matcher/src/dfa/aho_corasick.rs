//! Goto/fail construction of the Aho–Corasick automaton: the build step
//! [`super::AcDfa`] tabulates.
//!
//! States are stored in a flat `Vec` with sorted sparse edges; failure links
//! are computed breadth-first and each state's output list absorbs the
//! outputs of its failure state. Patterns arrive already normalized
//! (lowercased), and [`Nfa::step`] takes normalized bytes: case folding
//! lives in the DFA's byte-class table, not here.

struct State {
    /// Sorted (byte, next-state) edges.
    edges: Vec<(u8, u32)>,
    /// Failure link.
    fail: u32,
    /// Patterns ending at this state (indexes into the pattern list): the
    /// state's own patterns first, then those inherited over the failure
    /// link, so the longest pattern ending here comes first.
    out: Vec<u32>,
}

impl State {
    fn new() -> Self {
        State {
            edges: Vec::new(),
            fail: 0,
            out: Vec::new(),
        }
    }

    fn get(&self, b: u8) -> Option<u32> {
        self.edges
            .binary_search_by_key(&b, |e| e.0)
            .ok()
            .map(|i| self.edges[i].1)
    }

    fn set(&mut self, b: u8, next: u32) {
        match self.edges.binary_search_by_key(&b, |e| e.0) {
            Ok(i) => self.edges[i].1 = next,
            Err(i) => self.edges.insert(i, (b, next)),
        }
    }
}

/// The sparse automaton (see module docs).
pub(super) struct Nfa {
    states: Vec<State>,
}

impl Nfa {
    /// Build from normalized `patterns`. Empty patterns are ignored (an
    /// empty needle would match everywhere and is never a meaningful
    /// blacklist entry); output indexes refer to positions in the
    /// *original* list.
    pub(super) fn build(patterns: impl IntoIterator<Item = Vec<u8>>) -> Nfa {
        let mut states = vec![State::new()];
        for (idx, pat) in patterns.into_iter().enumerate() {
            if pat.is_empty() {
                continue;
            }
            let mut cur = 0u32;
            for b in pat {
                cur = match states[cur as usize].get(b) {
                    Some(next) => next,
                    None => {
                        let next = states.len() as u32;
                        states.push(State::new());
                        states[cur as usize].set(b, next);
                        next
                    }
                };
            }
            states[cur as usize].out.push(idx as u32);
        }

        // BFS to compute failure links and merge output sets.
        let mut queue = std::collections::VecDeque::new();
        for &(_, next) in &states[0].edges {
            queue.push_back(next);
        }
        while let Some(s) = queue.pop_front() {
            let edges = states[s as usize].edges.clone();
            for (b, next) in edges {
                queue.push_back(next);
                // Walk failure links of the parent to find the longest proper
                // suffix state that has a `b` edge.
                let mut f = states[s as usize].fail;
                let fail_next = loop {
                    if let Some(t) = states[f as usize].get(b) {
                        if t != next {
                            break t;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = states[f as usize].fail;
                };
                states[next as usize].fail = fail_next;
                let inherited = states[fail_next as usize].out.clone();
                states[next as usize].out.extend(inherited);
            }
        }
        Nfa { states }
    }

    /// Automaton size, root included.
    pub(super) fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Patterns ending at (or fail-propagated into) state `s`.
    pub(super) fn state_outputs(&self, s: u32) -> &[u32] {
        &self.states[s as usize].out
    }

    /// The bytes with an outgoing edge anywhere in the automaton: the
    /// alphabet the DFA builds byte classes from.
    pub(super) fn used_bytes(&self) -> [bool; 256] {
        let mut used = [false; 256];
        for s in &self.states {
            for &(b, _) in &s.edges {
                used[b as usize] = true;
            }
        }
        used
    }

    /// The state reached from `state` on normalized byte `b`.
    pub(super) fn step(&self, mut state: u32, b: u8) -> u32 {
        loop {
            if let Some(next) = self.states[state as usize].get(b) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.states[state as usize].fail;
        }
    }
}
