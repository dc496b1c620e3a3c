//! The system under test, reached only through the public service
//! seam: `AccessService` for reads and `MutateService` for writes, on
//! each `Deployment` shape.

use crate::dataset::Write;
use socialreach_core::durability::DurableService;
use socialreach_core::planner::{PlannedService, PlannerMode, PlannerTally};
use socialreach_core::remote::{spawn_local_fleet, ShardAddr, ShardHandle};
use socialreach_core::service::{AccessService, MutateService, ReadStats, ServiceInstance};
use socialreach_core::{Decision, Deployment, ResourceId};
use socialreach_graph::NodeId;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A read with every id resolved, as sent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadReq {
    Check { rid: u64, viewer: u32 },
    Feed { viewer: u32, rids: Vec<u64> },
    Audience { rids: Vec<u64> },
}

/// The compact form of a read's answer the verifier compares: feed
/// decisions as a bit mask, audiences as a hash of the sorted member
/// lists (holding every audience of a run in memory would not fit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Check(bool),
    Feed(u64),
    Audience(u64),
}

pub fn feed_answer(decisions: &[Decision]) -> Answer {
    let mut bits = 0u64;
    for (i, d) in decisions.iter().enumerate() {
        if d.is_granted() {
            bits |= 1 << (i % 64);
        }
    }
    Answer::Feed(bits ^ (decisions.len() as u64) << 58)
}

pub fn audience_answer(audiences: &[Vec<NodeId>]) -> Answer {
    let mut h = DefaultHasher::new();
    for a in audiences {
        a.len().hash(&mut h);
        for m in a {
            m.0.hash(&mut h);
        }
    }
    Answer::Audience(h.finish())
}

/// What the load generator needs from a system under test. The real
/// deployments implement it through the service seam; the self-tests
/// implement it with stubs.
pub trait Target: Send + Sync {
    /// Serves one read; `census` collects the read's work census when
    /// the run is traced.
    fn read(&self, req: &ReadReq, census: Option<&mut ReadStats>) -> Result<Answer, String>;
    /// Applies one write.
    fn write(&mut self, w: &Write) -> Result<(), String>;
    /// Operator maintenance, run inline in the stream under the write
    /// lock every `maintenance_every` writes.
    fn maintain(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Applies a write through the `MutateService` seam.
pub fn apply(m: &mut dyn MutateService, w: &Write) -> Result<(), String> {
    match w {
        Write::User { name } => {
            m.add_user(name);
        }
        Write::Attr { user, key, value } => m.set_user_attr(NodeId(*user), key, value.clone()),
        Write::Rel { src, label, dst } => m.add_relationship(NodeId(*src), label, NodeId(*dst)),
        Write::Befriend { a, b } => m.add_mutual_relationship(NodeId(*a), "friend", NodeId(*b)),
        Write::Post { owner, rules } => {
            let rid = m.add_resource(NodeId(*owner));
            for r in rules {
                m.add_rule(rid, r)
                    .map_err(|e| format!("add_rule({r}): {e}"))?;
            }
        }
    }
    Ok(())
}

/// Serves a read through the `AccessService` seam.
pub fn serve_read(
    s: &dyn AccessService,
    req: &ReadReq,
    census: Option<&mut ReadStats>,
) -> Result<Answer, String> {
    let err = |e: socialreach_core::EvalError| e.to_string();
    match (req, census) {
        (ReadReq::Check { rid, viewer }, None) => s
            .check(ResourceId(*rid), NodeId(*viewer))
            .map(|d| Answer::Check(d.is_granted()))
            .map_err(err),
        (ReadReq::Check { rid, viewer }, Some(c)) => {
            let (d, st) = s
                .check_with_stats(ResourceId(*rid), NodeId(*viewer))
                .map_err(err)?;
            c.absorb(&st);
            Ok(Answer::Check(d.is_granted()))
        }
        (ReadReq::Feed { viewer, rids }, census) => {
            let reqs: Vec<(ResourceId, NodeId)> = rids
                .iter()
                .map(|&r| (ResourceId(r), NodeId(*viewer)))
                .collect();
            let decisions = match census {
                None => s.check_batch(&reqs, 1).map_err(err)?,
                Some(c) => {
                    let (d, st) = s.check_batch_with_stats(&reqs, 1).map_err(err)?;
                    c.absorb(&st);
                    d
                }
            };
            Ok(feed_answer(&decisions))
        }
        (ReadReq::Audience { rids }, census) => {
            let rids: Vec<ResourceId> = rids.iter().map(|&r| ResourceId(r)).collect();
            let (audiences, st) = match census {
                None => (s.audience_batch(&rids).map_err(err)?, ReadStats::default()),
                Some(_) => s.audience_batch_with_stats(&rids).map_err(err)?,
            };
            if let Some(c) = census {
                c.absorb(&st);
            }
            Ok(audience_answer(&audiences))
        }
    }
}

/// The deployment shapes the workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `Deployment::online()`.
    Single,
    /// `Deployment::sharded(n, seed).planned(PlannerMode::Adaptive)`.
    ShardedPlanned(u32),
    /// `Deployment::sharded(n, seed)` — the in-process twin of a
    /// networked fleet.
    Sharded(u32),
    /// `Deployment::networked_with` over an in-process loopback-TCP
    /// fleet of `n` shard servers.
    Networked(u32),
    /// `Deployment::online().durable(dir)`.
    Durable,
}

enum Backend {
    Plain(ServiceInstance),
    Planned(PlannedService),
    Durable(Box<DurableService>),
}

/// Durable maintenance accounting: every `snapshot()` + `compact()`
/// pass, timed, and the bytes the data directory gained (WAL growth
/// plus new snapshots; what compaction deletes is not subtracted).
#[derive(Default)]
pub struct Maintenance {
    pub snapshot_ns: Vec<u64>,
    pub compact_ns: Vec<u64>,
    pub bytes_added: u64,
    /// Directory size after the last pass (or after setup).
    pub mark: u64,
}

/// A constructed deployment, with the shard servers it owns.
pub struct Deployed {
    backend: Backend,
    pub maintenance: Maintenance,
    // Held only to keep the shard servers up; declared after `backend`
    // so the router closes its connections before the servers stop.
    _fleet: Vec<ShardHandle>,
}

impl Deployed {
    /// Builds an empty deployment of `shape`. `endpoints` rewrites the
    /// fleet's addresses (the traced run interposes counting proxies);
    /// `dir` is the durable data directory.
    pub fn build(
        shape: Shape,
        seed: u64,
        dir: Option<&Path>,
        endpoints: &mut dyn FnMut(Vec<ShardAddr>) -> Result<Vec<ShardAddr>, String>,
    ) -> Result<Deployed, String> {
        let mut fleet = Vec::new();
        let backend = match shape {
            Shape::Single => Backend::Plain(Deployment::online().build()),
            Shape::Sharded(n) => Backend::Plain(Deployment::sharded(n, seed).build()),
            Shape::ShardedPlanned(n) => {
                Backend::Planned(Deployment::sharded(n, seed).planned(PlannerMode::Adaptive))
            }
            Shape::Networked(n) => {
                fleet = spawn_local_fleet(n as usize, false).map_err(|e| format!("fleet: {e}"))?;
                let addrs = endpoints(fleet.iter().map(|h| h.addr().clone()).collect())?;
                Backend::Plain(Deployment::networked_with(addrs, seed).build())
            }
            Shape::Durable => {
                let dir = dir.ok_or("durable deployment needs a data directory")?;
                Backend::Durable(Box::new(
                    Deployment::online()
                        .durable(dir)
                        .map_err(|e| format!("durable open: {e}"))?,
                ))
            }
        };
        Ok(Deployed {
            backend,
            maintenance: Maintenance::default(),
            _fleet: fleet,
        })
    }

    pub fn reads(&self) -> &dyn AccessService {
        match &self.backend {
            Backend::Plain(s) => s.reads(),
            Backend::Planned(s) => s,
            Backend::Durable(s) => s.reads(),
        }
    }

    pub fn writes(&mut self) -> &mut dyn MutateService {
        match &mut self.backend {
            Backend::Plain(s) => s.writes(),
            Backend::Planned(s) => s,
            Backend::Durable(s) => s.writes(),
        }
    }

    /// The planner's executed-strategy tally, on planned deployments.
    pub fn planner_tally(&self) -> Option<PlannerTally> {
        match &self.backend {
            Backend::Planned(s) => Some(s.planner().executed()),
            _ => None,
        }
    }

    pub fn durable(&self) -> Option<&DurableService> {
        match &self.backend {
            Backend::Durable(s) => Some(s),
            _ => None,
        }
    }
}

impl Target for Deployed {
    fn read(&self, req: &ReadReq, census: Option<&mut ReadStats>) -> Result<Answer, String> {
        serve_read(self.reads(), req, census)
    }

    fn write(&mut self, w: &Write) -> Result<(), String> {
        apply(self.writes(), w)
    }

    fn maintain(&mut self) -> Result<(), String> {
        let Backend::Durable(s) = &mut self.backend else {
            return Ok(());
        };
        let m = &mut self.maintenance;
        let t = Instant::now();
        s.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        m.snapshot_ns.push(t.elapsed().as_nanos() as u64);
        m.bytes_added += dir_bytes(s.dir()).saturating_sub(m.mark);
        let t = Instant::now();
        s.compact(s.wal_records())
            .map_err(|e| format!("compact: {e}"))?;
        m.compact_ns.push(t.elapsed().as_nanos() as u64);
        m.mark = dir_bytes(s.dir());
        Ok(())
    }
}

/// Bytes under `dir` (not recursive: data directories are flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty directory (removing what a previous run left).
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(&path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path)
}
