//! The generated inputs: the dataset every deployment is loaded with,
//! and the deterministic op stream a workload sends.
//!
//! The dataset is a function of its spec and seed; the op stream of the
//! dataset, the spec and the run's seed. The dataset is a
//! Barabási–Albert OSN from `socialreach_workload::GraphSpec::ba_osn`
//! plus posts whose owners are Zipf-skewed and whose rules come from a
//! small template family (shared trie prefixes) with some one-off
//! rules. The op stream draws viewers and posts from the dataset's Zipf
//! popularity, so `(resource, viewer)` pairs repeat. The mix and the
//! skew are stated assumptions: no production trace exists offline.

use crate::rng::{Rng, Zipf};
use socialreach_graph::AttrValue;
use socialreach_workload::GraphSpec;
use std::collections::BTreeSet;

/// Zipf exponent of viewer, post and owner popularity.
pub const ZIPF_S: f64 = 0.8;
/// Posts per feed read.
pub const FEED_POSTS: usize = 20;
/// Most recent posts of one owner per audience bundle.
pub const AUDIENCE_POSTS: usize = 8;

/// Rule templates: `(classic, MATCH)` spellings of one policy. The
/// shared `friend` prefixes are what the bundle plan compiler folds.
pub const TEMPLATES: [(&str, &str); 6] = [
    ("friend*[1]", "MATCH (owner)-[:friend]-(v)"),
    ("friend*[1,2]", "MATCH (owner)-[:friend*1..2]-(v)"),
    (
        "friend*[1]/colleague*[1]",
        "MATCH (owner)-[:friend]-()-[:colleague]-(v)",
    ),
    (
        "friend*[1,2]{age>=18}",
        "MATCH (owner)-[:friend*1..2]-(v {age >= 18})",
    ),
    (
        "friend*[1]/parent+[1]",
        "MATCH (owner)-[:friend]-()-[:parent]->(v)",
    ),
    ("colleague*[1,2]", "MATCH (owner)-[:colleague*1..2]-(v)"),
];

const LABELS: [&str; 3] = ["friend", "colleague", "parent"];
const CITIES: [&str; 8] = [
    "paris", "berlin", "tunis", "london", "madrid", "rome", "vienna", "oslo",
];

/// One mutation, in the vocabulary of `MutateService`. Member and
/// resource ids are the sequential ids every backend assigns.
#[derive(Clone, Debug, PartialEq)]
pub enum Write {
    /// `add_user`.
    User { name: String },
    /// `set_user_attr`.
    Attr {
        user: u32,
        key: &'static str,
        value: AttrValue,
    },
    /// `add_relationship` (dataset ties, directed).
    Rel { src: u32, label: String, dst: u32 },
    /// `add_mutual_relationship(a, "friend", b)`.
    Befriend { a: u32, b: u32 },
    /// `add_resource(owner)` then `add_rule` per rule text.
    Post { owner: u32, rules: Vec<String> },
}

/// Which post a check names. Posts written during the run get ids
/// only when applied, so recent posts are named by recency and
/// resolved against the live post count when the op is sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostRef {
    /// A post of the dataset, by resource id.
    Fixed(u64),
    /// The `k`-th most recent post at send time (0 = newest).
    Recent(u32),
}

/// One request of the stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `check(resource, viewer)`.
    Check { post: PostRef, viewer: u32 },
    /// `check_batch` of one viewer over posts near them.
    Feed { viewer: u32, posts: Vec<u64> },
    /// `audience_batch` over one owner's recent posts.
    Audience { posts: Vec<u64> },
    /// A mutation.
    Write(Write),
}

/// Op classes, in metric order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Check,
    Feed,
    Audience,
    Write,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Check, Class::Feed, Class::Audience, Class::Write];

    pub fn name(self) -> &'static str {
        match self {
            Class::Check => "check",
            Class::Feed => "feed",
            Class::Audience => "audience",
            Class::Write => "write",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Check { .. } => Class::Check,
            Op::Feed { .. } => Class::Feed,
            Op::Audience { .. } => Class::Audience,
            Op::Write(_) => Class::Write,
        }
    }
}

/// The knobs of one workload's inputs.
#[derive(Clone, Debug)]
pub struct InputSpec {
    /// Members of the BA dataset.
    pub members: usize,
    /// Dataset posts per member.
    pub posts_per_member: f64,
    /// Op mix weights: check, feed, audience, write.
    pub mix: [f64; 4],
    /// Share of checks that name a recently written post.
    pub recent_checks: f64,
    /// Write mix weights: befriend, new post, set attribute, new user.
    pub write_mix: [f64; 4],
}

/// The loaded-before-serving state, as the writes that build it.
pub struct Dataset {
    /// Setup writes in application order.
    pub setup: Vec<Write>,
    /// Members after setup.
    pub members: u32,
    /// Dataset posts (resource ids `0..posts`).
    pub posts: u64,
    /// Owner of each dataset post.
    pub post_owner: Vec<u32>,
    /// Dataset posts of each member, oldest first.
    pub posts_of: Vec<Vec<u64>>,
    /// Undirected neighbours of each member (any label).
    pub adj: Vec<Vec<u32>>,
    /// Popularity of members as viewers and of dataset posts. It is a
    /// property of the dataset; the op stream only samples from it.
    pub viewers: Zipf,
    pub popular_posts: Zipf,
}

/// Counts rules handed out so far, to alternate the two syntaxes.
struct RuleMaker {
    issued: u64,
}

impl RuleMaker {
    fn next(&mut self, rng: &mut Rng) -> String {
        self.issued += 1;
        let match_syntax = self.issued.is_multiple_of(2);
        if rng.chance(0.15) {
            return one_off_rule(rng, match_syntax);
        }
        let (classic, cypher) = TEMPLATES[rng.below(TEMPLATES.len())];
        if match_syntax { cypher } else { classic }.to_owned()
    }
}

/// A one-off rule: 1–3 random steps, optionally attribute-gated.
fn one_off_rule(rng: &mut Rng, match_syntax: bool) -> String {
    let steps = 1 + rng.below(3);
    let mut classic = String::new();
    let mut cypher = String::from("MATCH (owner)");
    for i in 0..steps {
        let label = LABELS[rng.below(LABELS.len())];
        let dir = rng.below(3);
        let two = rng.chance(0.3);
        let gate = i + 1 == steps && rng.chance(0.3);
        let city = CITIES[rng.below(CITIES.len())];
        if i > 0 {
            classic.push('/');
        }
        classic.push_str(label);
        classic.push(['+', '-', '*'][dir]);
        classic.push_str(if two { "[1,2]" } else { "[1]" });
        if gate {
            classic.push_str(&format!("{{city={city}}}"));
        }
        let hops = if two { "*1..2" } else { "" };
        let node = if gate {
            format!("(v {{city: {city}}})")
        } else if i + 1 == steps {
            "(v)".to_owned()
        } else {
            "()".to_owned()
        };
        let rel = match dir {
            0 => format!("-[:{label}{hops}]->"),
            1 => format!("<-[:{label}{hops}]-"),
            _ => format!("-[:{label}{hops}]-"),
        };
        cypher.push_str(&rel);
        cypher.push_str(&node);
    }
    if match_syntax {
        cypher
    } else {
        classic
    }
}

impl Dataset {
    /// Builds the dataset of `spec` under `seed`.
    pub fn generate(spec: &InputSpec, seed: u64) -> Dataset {
        let g = GraphSpec::ba_osn(spec.members, seed).build();
        let mut rng = Rng::new(seed ^ 0xDA7A);
        let n = g.num_nodes();
        let mut setup = Vec::new();
        for v in g.nodes() {
            setup.push(Write::User {
                name: g.node_name(v).to_owned(),
            });
        }
        for v in g.nodes() {
            for key in ["age", "gender", "city"] {
                if let Some(value) = g.node_attr_by_name(v, key) {
                    setup.push(Write::Attr {
                        user: v.0,
                        key,
                        value: value.clone(),
                    });
                }
            }
        }
        let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for (_, e) in g.edges() {
            setup.push(Write::Rel {
                src: e.src.0,
                label: g.vocab().label_name(e.label).to_owned(),
                dst: e.dst.0,
            });
            if e.src != e.dst {
                adj[e.src.index()].insert(e.dst.0);
                adj[e.dst.index()].insert(e.src.0);
            }
        }

        let owners = Zipf::new(n, ZIPF_S, &mut rng);
        let posts = ((n as f64) * spec.posts_per_member).round().max(1.0) as u64;
        let mut post_owner = Vec::with_capacity(posts as usize);
        let mut posts_of = vec![Vec::new(); n];
        let mut maker = RuleMaker { issued: 0 };
        for rid in 0..posts {
            let owner = if rng.chance(0.5) {
                owners.sample(&mut rng)
            } else {
                rng.below(n) as u32
            };
            let rules: Vec<String> = (0..1 + usize::from(rng.chance(0.2)))
                .map(|_| maker.next(&mut rng))
                .collect();
            post_owner.push(owner);
            posts_of[owner as usize].push(rid);
            setup.push(Write::Post { owner, rules });
        }
        let viewers = Zipf::new(n, ZIPF_S, &mut rng);
        let popular_posts = Zipf::new(posts as usize, ZIPF_S, &mut rng);
        Dataset {
            setup,
            members: n as u32,
            posts,
            viewers,
            popular_posts,
            post_owner,
            posts_of,
            adj: adj.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// Dataset posts owned by members within 1–2 hops of `viewer`,
    /// nearest owners first, at most `FEED_POSTS`.
    fn feed_candidates(&self, viewer: u32, rng: &mut Rng) -> Vec<u64> {
        let mut out = Vec::new();
        let first = &self.adj[viewer as usize];
        let mut owners: Vec<u32> = first.clone();
        for &f in first.iter().take(16) {
            let second = &self.adj[f as usize];
            for _ in 0..second.len().min(8) {
                owners.push(second[rng.below(second.len())]);
            }
        }
        for o in owners {
            for &p in self.posts_of[o as usize].iter().rev().take(3) {
                if !out.contains(&p) {
                    out.push(p);
                }
                if out.len() == FEED_POSTS {
                    return out;
                }
            }
        }
        out
    }
}

/// Generates `len` ops of the stream for `spec` under `seed`.
pub fn op_stream(data: &Dataset, spec: &InputSpec, seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x0975_7EA3);
    let (viewers, posts) = (&data.viewers, &data.popular_posts);
    let recency = Zipf::new(256, 1.2, &mut rng);
    let total: f64 = spec.mix.iter().sum();
    let mut maker = RuleMaker { issued: 1 };
    let mut new_users = 0u64;
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let mut pick = rng.unit() * total;
        let mut class = Class::Write;
        for c in Class::ALL {
            if pick < spec.mix[c.index()] {
                class = c;
                break;
            }
            pick -= spec.mix[c.index()];
        }
        let op = match class {
            Class::Check => {
                let post = if rng.chance(spec.recent_checks) {
                    PostRef::Recent(recency.rank(&mut rng) as u32)
                } else {
                    PostRef::Fixed(u64::from(posts.sample(&mut rng)))
                };
                Op::Check {
                    post,
                    viewer: viewers.sample(&mut rng),
                }
            }
            Class::Feed => {
                let viewer = viewers.sample(&mut rng);
                let mut near = data.feed_candidates(viewer, &mut rng);
                while near.len() < FEED_POSTS {
                    let p = u64::from(posts.sample(&mut rng));
                    if !near.contains(&p) {
                        near.push(p);
                    }
                }
                Op::Feed {
                    viewer,
                    posts: near,
                }
            }
            Class::Audience => {
                let owner = data.post_owner[posts.sample(&mut rng) as usize];
                let mine = &data.posts_of[owner as usize];
                let posts = mine[mine.len().saturating_sub(AUDIENCE_POSTS)..].to_vec();
                Op::Audience { posts }
            }
            Class::Write => {
                let [befriend, post, attr, _] = spec.write_mix;
                let roll = rng.unit() * spec.write_mix.iter().sum::<f64>();
                let w = if roll < befriend {
                    let a = viewers.sample(&mut rng);
                    let b = rng.below(data.members as usize) as u32;
                    let b = if b == a { (b + 1) % data.members } else { b };
                    Write::Befriend { a, b }
                } else if roll < befriend + post {
                    let owner = viewers.sample(&mut rng);
                    Write::Post {
                        owner,
                        rules: vec![maker.next(&mut rng)],
                    }
                } else if roll < befriend + post + attr {
                    Write::Attr {
                        user: viewers.sample(&mut rng),
                        key: "city",
                        value: AttrValue::Text(CITIES[rng.below(CITIES.len())].to_owned()),
                    }
                } else {
                    new_users += 1;
                    Write::User {
                        name: format!("new{seed}-{new_users}"),
                    }
                };
                Op::Write(w)
            }
        };
        ops.push(op);
    }
    ops
}

/// Renders an op stream as one line per op: the byte form the
/// determinism self-test compares.
#[cfg(test)]
pub fn render(ops: &[Op]) -> String {
    let mut out = String::new();
    for op in ops {
        out.push_str(&format!("{op:?}\n"));
    }
    out
}
