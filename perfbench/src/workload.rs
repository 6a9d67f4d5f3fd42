//! Seeded op lists for the benchmark's three workloads.
//!
//! A workload is a *priming* list (run during set-up, untimed) and a
//! *body* list (one timed pass). Every pass of a run replays the same body
//! on a fresh `icdbd`, so each pass does identical work and each reply is
//! byte-identical across passes. The seed only picks orders and
//! combinations; the set of keys a pass touches is fixed per workload, so
//! two seeds cost the same up to the order of the work.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["warm_mix", "cold_generate", "explore_sweep"];

/// The one design every pass keeps its component lists in.
pub const DESIGN: &str = "bench";

/// splitmix64: small, seedable and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_1cdb_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Deals `0..n` in seeded shuffled rounds, so over whole rounds every
/// index comes up equally often.
struct Deck {
    n: usize,
    cards: Vec<usize>,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            n,
            cards: Vec::new(),
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.cards.is_empty() {
            self.cards = (0..self.n).collect();
            rng.shuffle(&mut self.cards);
        }
        self.cards.pop().expect("a fresh round is never empty")
    }
}

/// One generation request's canonical identity: implementation, extra
/// attributes, width (`size`) and sizing strategy.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key {
    pub implementation: &'static str,
    pub attrs: &'static [(&'static str, i64)],
    pub width: i64,
    pub fastest: bool,
}

impl Key {
    fn cheapest(implementation: &'static str, width: i64) -> Key {
        Key {
            implementation,
            attrs: &[],
            width,
            fastest: false,
        }
    }

    /// The request's attributes, in the order the CQL line sends them.
    pub fn attributes(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .attrs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        out.push(("size".into(), self.width.to_string()));
        out
    }

    pub fn strategy(&self) -> &'static str {
        if self.fastest {
            "fastest"
        } else {
            "cheapest"
        }
    }
}

/// Which end-to-end latency a wire op counts towards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `request_component`.
    Request,
    /// `instance_query` and catalog reads.
    Query,
    /// Design-list commits.
    Commit,
    /// `explore`.
    Sweep,
}

/// What an op does, in the structured form the traced replay and the
/// output checks need.
#[derive(Clone, Debug)]
pub enum Action {
    Request {
        key: Key,
        name: String,
        layout: bool,
    },
    Query {
        key: Key,
        outputs: &'static [&'static str],
    },
    Catalog,
    StartDesign,
    StartTransaction,
    Put {
        name: String,
    },
    EndTransaction,
    Sweep {
        implementations: &'static [&'static str],
        attrs: &'static [(&'static str, i64)],
        widths: Vec<i64>,
        strategies: &'static [&'static str],
    },
}

/// One wire op: the CQL line `icdbd` receives and what it means.
#[derive(Clone, Debug)]
pub struct Op {
    pub class: Class,
    pub line: String,
    pub action: Action,
    /// Index of the priming op whose reply this op's reply must equal.
    pub expect: Option<usize>,
}

/// A generated workload.
pub struct Workload {
    pub name: &'static str,
    pub priming: Vec<Op>,
    pub body: Vec<Op>,
}

impl Workload {
    /// Ops of one pass that count towards `ops_per_s`: every body op,
    /// except on `explore_sweep`, where an op is one sweep.
    pub fn counted_ops(&self) -> usize {
        self.body
            .iter()
            .filter(|op| self.name != "explore_sweep" || op.class == Class::Sweep)
            .count()
    }
}

/// Builds a workload's op lists from a seed.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let (name, priming, body) = match name {
        "warm_mix" => {
            let (p, b) = warm_mix(&mut rng);
            ("warm_mix", p, b)
        }
        "cold_generate" => {
            let (p, b) = cold_generate(&mut rng);
            ("cold_generate", p, b)
        }
        "explore_sweep" => {
            let (p, b) = explore_sweep(&mut rng);
            ("explore_sweep", p, b)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        priming,
        body,
    })
}

/// Keys primed by `warm_mix`: 16 (implementation, width) pairs, far below
/// the 256-entry cache, so every timed request is a result-cache hit.
const WARM_KEYS: [(&str, i64); 16] = [
    ("COUNTER", 5),
    ("COUNTER", 8),
    ("JOHNSON_COUNTER", 6),
    ("ADDER", 4),
    ("ADDER", 8),
    ("ADDSUB", 6),
    ("INCREMENTER", 8),
    ("REGISTER", 8),
    ("REGISTER", 16),
    ("SHIFT_REGISTER", 8),
    ("MUX", 4),
    ("COMPARATOR", 6),
    ("LOGIC_UNIT", 4),
    ("PARITY", 5),
    ("ALU", 4),
    ("REGISTER_FILE", 4),
];

/// Design transactions in one `warm_mix` pass.
const WARM_TRANSACTIONS: usize = 256;

/// Implementations with a `size` parameter: `cold_generate` requests each
/// at 16 widths, 320 keys in all — 1.25× the 256-entry LRU of each cache
/// layer, so replaying one permutation in a fixed order misses every
/// layer on every request.
const COLD_IMPLEMENTATIONS: [&str; 20] = [
    "COUNTER",
    "RIPPLE_COUNTER",
    "JOHNSON_COUNTER",
    "ADDER",
    "ADDSUB",
    "REGISTER",
    "INCREMENTER",
    "COMPARATOR",
    "SHL0",
    "MUX",
    "LOGIC_UNIT",
    "ALU",
    "SHIFT_REGISTER",
    "TRISTATE_DRIVER",
    "PARITY",
    "AND_GATE",
    "OR_GATE",
    "CSEL_ADDER",
    "BARREL_ROTATOR",
    "REGISTER_FILE",
];

/// Widths per implementation in `cold_generate`.
const COLD_WIDTHS: i64 = 16;

/// Catalog reads, answered from the knowledge base alone.
const CATALOG: [&str; 4] = [
    "command:component_query; component:Counter; implementations:?s[]",
    "command:component_query; implementation:ALU; functions:?s[]",
    "command:function_query; function:(INC); implementation:?s[]",
    "command:function_query; function:(ADD); component:?s[]",
];

/// One `explore_sweep` lane: a candidate set whose sliding window of three
/// widths advances by one width per sweep, from `first` up to a window
/// starting at `last`. Bounds keep every sweep under about 0.5 s, since
/// `fastest` sizing grows superlinearly with width.
struct Lane {
    implementations: &'static [&'static str],
    attrs: &'static [(&'static str, i64)],
    first: i64,
    last: i64,
}

const LANES: [Lane; 7] = [
    Lane {
        implementations: &["COUNTER", "RIPPLE_COUNTER", "JOHNSON_COUNTER"],
        attrs: &[],
        first: 2,
        last: 9,
    },
    Lane {
        implementations: &["REGISTER", "SHIFT_REGISTER"],
        attrs: &[],
        first: 2,
        last: 17,
    },
    Lane {
        implementations: &["LOGIC_UNIT", "PARITY", "AND_GATE", "OR_GATE"],
        attrs: &[],
        first: 2,
        last: 13,
    },
    Lane {
        implementations: &["COUNTER"],
        attrs: &[("type", 1)],
        first: 2,
        last: 8,
    },
    Lane {
        implementations: &["COUNTER"],
        attrs: &[("enable", 1)],
        first: 2,
        last: 9,
    },
    Lane {
        implementations: &["INCREMENTER"],
        attrs: &[],
        first: 2,
        last: 10,
    },
    Lane {
        implementations: &["REGISTER_FILE"],
        attrs: &[],
        first: 2,
        last: 12,
    },
];

pub fn request(key: &Key, name: &str, layout: bool) -> Op {
    let attrs: Vec<String> = key
        .attributes()
        .iter()
        .map(|(k, v)| format!("{k}:{v}"))
        .collect();
    let target = if layout { "; target:layout" } else { "" };
    Op {
        class: Class::Request,
        line: format!(
            "command:request_component; implementation:{}; attribute:({}); strategy:{}{target}; naming:{name}; generated_component:?s",
            key.implementation,
            attrs.join(","),
            key.strategy(),
        ),
        action: Action::Request {
            key: key.clone(),
            name: name.to_string(),
            layout,
        },
        expect: None,
    }
}

fn query(key: &Key, name: &str, outputs: &'static [&'static str], expect: Option<usize>) -> Op {
    let wanted: Vec<String> = outputs.iter().map(|o| format!("; {o}:?s")).collect();
    Op {
        class: Class::Query,
        line: format!("command:instance_query; instance:{name}{}", wanted.concat()),
        action: Action::Query {
            key: key.clone(),
            outputs,
        },
        expect,
    }
}

fn catalog(rng: &mut Rng, deck: &mut Deck) -> Op {
    Op {
        class: Class::Query,
        line: CATALOG[deck.deal(rng)].to_string(),
        action: Action::Catalog,
        expect: None,
    }
}

fn commit(action: Action) -> Op {
    let line = match &action {
        Action::StartDesign => format!("command:start_a_design; design:{DESIGN}"),
        Action::StartTransaction => format!("command:start_a_transaction; design:{DESIGN}"),
        Action::Put { name } => {
            format!("command:put_in_component_list; design:{DESIGN}; instance:{name}")
        }
        Action::EndTransaction => format!("command:end_a_transaction; design:{DESIGN}"),
        other => unreachable!("{other:?} is not a commit"),
    };
    Op {
        class: Class::Commit,
        line,
        action,
        expect: None,
    }
}

fn sweep(
    implementations: &'static [&'static str],
    attrs: &'static [(&'static str, i64)],
    widths: [i64; 3],
    width_count: usize,
    strategies: &'static [&'static str],
) -> Op {
    let widths_text: Vec<String> = widths[..width_count]
        .iter()
        .map(|w| w.to_string())
        .collect();
    let attr_text = if attrs.is_empty() {
        String::new()
    } else {
        let a: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        format!("; attribute:({})", a.join(","))
    };
    Op {
        class: Class::Sweep,
        line: format!(
            "command:explore; implementation:({}){attr_text}; widths:({}); strategies:({}); workers:2; winner:?s; front:?s[]; table:?s; points:?d; evaluated:?d",
            implementations.join(","),
            widths_text.join(","),
            strategies.join(","),
        ),
        action: Action::Sweep {
            implementations,
            attrs,
            widths: widths[..width_count].to_vec(),
            strategies,
        },
        expect: None,
    }
}

/// A one-point warm sweep over a key the cache already holds.
fn point_sweep(key: &Key) -> Op {
    let implementations: &'static [&'static str] = match COLD_IMPLEMENTATIONS
        .iter()
        .position(|i| *i == key.implementation)
    {
        Some(i) => std::slice::from_ref(&COLD_IMPLEMENTATIONS[i]),
        None => unreachable!("warm and cold keys use cold implementations"),
    };
    sweep(implementations, &[], [key.width, 0, 0], 1, &["cheapest"])
}

fn warm_mix(rng: &mut Rng) -> (Vec<Op>, Vec<Op>) {
    let keys: Vec<Key> = WARM_KEYS
        .iter()
        .map(|(imp, w)| Key::cheapest(imp, *w))
        .collect();
    let mut priming = vec![commit(Action::StartDesign)];
    let mut recorded = Vec::new();
    for (k, key) in keys.iter().enumerate() {
        let name = format!("p{k}");
        priming.push(request(key, &name, k % 4 == 0));
        recorded.push(priming.len());
        priming.push(query(
            key,
            &name,
            &["delay", "shape_function", "connect"],
            None,
        ));
    }
    // One sweep per key fills the corpus, so the timed sweeps all hit it.
    for key in &keys {
        priming.push(point_sweep(key));
    }
    let mut body = Vec::new();
    let mut deck = Deck::new(keys.len());
    let mut catalogs = Deck::new(CATALOG.len());
    for t in 0..WARM_TRANSACTIONS {
        body.push(commit(Action::StartTransaction));
        // Four transactions deal one round of the 16 keys, so the four
        // keys of a transaction are distinct and every key is requested
        // equally often.
        let picks: Vec<usize> = (0..4).map(|_| deck.deal(rng)).collect();
        for (j, &k) in picks.iter().enumerate() {
            body.push(request(&keys[k], &format!("t{t}_{j}"), false));
        }
        for (j, &k) in picks.iter().enumerate() {
            body.push(query(
                &keys[k],
                &format!("t{t}_{j}"),
                &["delay", "shape_function", "connect"],
                Some(recorded[k]),
            ));
        }
        body.push(catalog(rng, &mut catalogs));
        body.push(catalog(rng, &mut catalogs));
        body.push(commit(Action::Put {
            name: format!("t{t}_{}", rng.below(4)),
        }));
        body.push(commit(Action::EndTransaction));
        if t % 8 == 7 {
            body.push(point_sweep(&keys[(t / 8) % keys.len()]));
        }
    }
    (priming, body)
}

/// The 320 `cold_generate` keys in canonical order.
pub fn cold_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for imp in COLD_IMPLEMENTATIONS {
        // The barrel rotator needs at least 4 bits. The 3-bit comparator's
        // shape estimate depends on hash-map iteration order (it sums
        // floats over `GateNetlist::fanouts`), so it is not the same in
        // every server process and would fail the cross-pass check.
        let first = match imp {
            "BARREL_ROTATOR" | "COMPARATOR" => 4,
            _ => 2,
        };
        for w in first..first + COLD_WIDTHS {
            keys.push(Key::cheapest(imp, w));
        }
    }
    keys
}

fn cold_generate(rng: &mut Rng) -> (Vec<Op>, Vec<Op>) {
    // Every fourth key in canonical order is requested down to layout, so
    // each seed places the same layouts.
    let mut keys: Vec<(Key, bool)> = cold_keys()
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i % 4 == 3))
        .collect();
    rng.shuffle(&mut keys);
    let priming = vec![commit(Action::StartDesign)];
    let mut body = Vec::new();
    let mut catalogs = Deck::new(CATALOG.len());
    for (c, group) in keys.chunks(4).enumerate() {
        body.push(commit(Action::StartTransaction));
        for (j, (key, layout)) in group.iter().enumerate() {
            let name = format!("c{}", c * 4 + j);
            body.push(request(key, &name, *layout));
            body.push(query(key, &name, &["delay", "shape_function"], None));
        }
        body.push(catalog(rng, &mut catalogs));
        body.push(commit(Action::Put {
            name: format!("c{}", c * 4 + rng.below(group.len())),
        }));
        body.push(commit(Action::EndTransaction));
        if c % 2 == 1 {
            body.push(point_sweep(&group[group.len() - 1].0));
        }
    }
    (priming, body)
}

fn explore_sweep(rng: &mut Rng) -> (Vec<Op>, Vec<Op>) {
    let priming = vec![commit(Action::StartDesign)];
    // A seeded merge of the lanes: each lane's windows stay in ascending
    // order (so each sweep overlaps the previous one of its lane by two
    // thirds), the lanes interleave.
    let mut next: Vec<i64> = LANES.iter().map(|l| l.first).collect();
    let mut body = Vec::new();
    let mut catalogs = Deck::new(CATALOG.len());
    let mut n = 0;
    loop {
        let open: Vec<usize> = (0..LANES.len())
            .filter(|&l| next[l] <= LANES[l].last)
            .collect();
        if open.is_empty() {
            break;
        }
        let l = open[rng.below(open.len())];
        let lane = &LANES[l];
        let s = next[l];
        next[l] += 1;
        body.push(sweep(
            lane.implementations,
            lane.attrs,
            [s, s + 1, s + 2],
            3,
            &["cheapest", "fastest"],
        ));
        // The tool then takes the window's widest cheapest point of the
        // first candidate down to layout, inside a design transaction.
        let key = Key {
            implementation: lane.implementations[0],
            attrs: lane.attrs,
            width: s + 2,
            fastest: false,
        };
        let name = format!("x{n}");
        body.push(commit(Action::StartTransaction));
        body.push(request(&key, &name, true));
        body.push(query(&key, &name, &["delay", "shape_function"], None));
        body.push(catalog(rng, &mut catalogs));
        body.push(commit(Action::Put { name }));
        body.push(commit(Action::EndTransaction));
        n += 1;
    }
    (priming, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_op_list() {
        for name in WORKLOADS {
            let a = render(&generate(name, 42).expect("known workload"));
            let b = render(&generate(name, 42).expect("known workload"));
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn another_seed_gives_another_order_of_the_same_work() {
        for name in WORKLOADS {
            let a = generate(name, 1).expect("known workload");
            let b = generate(name, 2).expect("known workload");
            assert_ne!(render(&a), render(&b), "{name}");
            assert_eq!(a.body.len(), b.body.len(), "{name}");
            assert_eq!(work(&a), work(&b), "{name}: one pass covers the same work");
        }
    }

    /// The op list as the text `icdbd` receives, one line per op.
    fn render(w: &Workload) -> String {
        let mut out = String::new();
        for op in w.priming.iter().chain(&w.body) {
            out.push_str(&op.line);
            out.push('\n');
        }
        out
    }

    /// The sorted keys a pass requests and sweeps, without names.
    fn work(w: &Workload) -> Vec<String> {
        let mut out: Vec<String> = w
            .body
            .iter()
            .filter_map(|op| match &op.action {
                Action::Request { key, .. } if w.name != "explore_sweep" => {
                    Some(format!("{key:?}"))
                }
                Action::Sweep { .. } if w.name == "explore_sweep" => Some(op.line.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn cold_keys_overflow_every_cache_layer() {
        let keys = cold_keys();
        let mut unique = keys.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), keys.len());
        assert!(
            keys.len() * 4 >= 256 * 5,
            "at least 1.25x the 256-entry LRU"
        );
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(generate("nope", 1).is_none());
    }
}
