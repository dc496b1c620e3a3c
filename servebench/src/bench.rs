//! One run of one workload: set up, load, verify, report.

use crate::dataset::{op_stream, Class, Dataset};
use crate::load::{LoadGen, PhaseResult, Sample};
use crate::process::{cpu_steal, filesystem_of, peak_rss_mb, Usage};
use crate::proxy::Proxy;
use crate::serve::{dir_bytes, fresh_dir, Deployed, ReadReq, Shape, Target};
use crate::stats::{median, percentile, ratio, wilson_upper};
use crate::trace::{layer_self_ns, rollup, write_spans, Span, Tracer};
use crate::verify::{verify, ReadRecord};
use crate::workloads::{self, Workload};
use crate::{probes, Args};
use socialreach_core::planner::PlannerTally;
use socialreach_core::remote::{proto, ShardAddr};
use socialreach_core::service::ReadStats;
use socialreach_core::Deployment;
use socialreach_graph::persist::encode_graph;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Share of `--seconds` spent in the closed-loop phase; the rest is
/// the open-loop phase.
const CLOSED_SHARE: f64 = 0.2;
/// Where runs leave their data directories, span files and results.
const OUT_DIR: &str = ".servebench-out";
const FLUSH_POLICY: &str = "no fsync: acknowledged writes are page-cache durable only";

/// Named metrics with units, in report order.
#[derive(Default)]
struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push((name.to_owned(), unit, value));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, value)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; infinities (a percentile of failed requests) are
/// written as the largest finite double.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        "0".to_owned()
    }
}

/// Counters of the layers below the seam, snapshotted around the
/// traced phases.
#[derive(Clone, Copy, Default)]
struct Censuses {
    cache: (u64, u64),
    tally: PlannerTally,
    wire: [u64; 4],
}

impl Censuses {
    fn take(d: &Deployed, proxies: &[Proxy]) -> Censuses {
        let mut wire = [0u64; 4];
        for p in proxies {
            for (w, c) in wire.iter_mut().zip(p.counters.snapshot()) {
                *w += c;
            }
        }
        Censuses {
            cache: d.reads().cache_stats(),
            tally: d.planner_tally().unwrap_or_default(),
            wire,
        }
    }

    /// Adds `after − before` into `self`.
    fn add_delta(&mut self, before: &Censuses, after: &Censuses) {
        self.cache.0 += after.cache.0 - before.cache.0;
        self.cache.1 += after.cache.1 - before.cache.1;
        self.tally.batched += after.tally.batched - before.tally.batched;
        self.tally.per_condition += after.tally.per_condition - before.tally.per_condition;
        self.tally.targeted += after.tally.targeted - before.tally.targeted;
        for i in 0..4 {
            self.wire[i] += after.wire[i] - before.wire[i];
        }
    }
}

pub fn run(args: &Args) -> Result<(), String> {
    let w = workloads::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = fresh_dir(PathBuf::from(OUT_DIR).join(format!(
        "{}-s{}-t{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    )))?;

    let started = Instant::now();
    let stage = |what: &str| {
        eprintln!(
            "servebench: {what} at {:.1} s",
            started.elapsed().as_secs_f64()
        )
    };
    let data = Dataset::generate(&w.input, workloads::DATASET_SEED);
    let closed_secs = args.seconds * CLOSED_SHARE;
    let open_secs = args.seconds - closed_secs;
    // The closed loop runs at capacity, which is several times the
    // offered rate; size the stream so it does not run dry.
    let len = (w.offered_rate * (open_secs + 20.0 * closed_secs)) as usize + 1000;
    let ops = op_stream(&data, &w.input, args.seed, len);

    // ---- set-up, several times; the last deployment serves ----
    let mut proxies: Vec<Proxy> = Vec::new();
    let mut setup_s = Vec::new();
    let mut deployed = None;
    let mut wal_bytes_per_record = 0.0;
    for k in 0..w.setups {
        drop(deployed.take());
        let last = k + 1 == w.setups;
        let dir = match w.shape {
            Shape::Durable => Some(fresh_dir(out.join(format!("data{k}")))?),
            _ => None,
        };
        let t = Instant::now();
        let mut endpoints = |addrs: Vec<ShardAddr>| -> Result<Vec<ShardAddr>, String> {
            if args.trace && last {
                proxied(addrs, &mut proxies)
            } else {
                Ok(addrs)
            }
        };
        let mut d = Deployed::build(w.shape, args.seed, dir.as_deref(), &mut endpoints)?;
        for wr in &data.setup {
            d.write(wr)?;
        }
        if let Some(s) = d.durable() {
            s.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        }
        // The first read publishes the first snapshot.
        d.read(&ReadReq::Check { rid: 0, viewer: 0 }, None)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(s) = d.durable() {
            let wal = std::fs::metadata(s.dir().join("wal.log")).map_or(0, |m| m.len());
            wal_bytes_per_record = ratio(wal as f64, s.wal_records() as f64);
            d.maintenance.mark = dir_bytes(s.dir());
        }
        if !last {
            if let Some(dir) = &dir {
                drop(d);
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("clear {}: {e}", dir.display()))?;
                continue;
            }
        }
        deployed = Some(d);
    }
    let deployed = deployed.expect("at least one set-up");

    stage("set up");
    let steal_before = cpu_steal();
    // ---- load ----
    let drv = LoadGen::new(deployed, data.posts, &ops, threads);
    let mut phases: Vec<PhaseResult> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut census = Censuses::default();
    let mut traced = TracedLoad::default();
    // The open-loop phase runs first, from the freshly set-up state, so
    // the state its latencies see does not depend on how many ops the
    // capacity phase managed. Durable maintenance runs in the capacity
    // phase only: at HEAD one pass stalls the stream for about a
    // second, which set every open-loop p99 and varied run to run.
    let (capacity, open) = if args.trace {
        let before = census_of(&drv, &proxies);
        let (open, sp) = drv.open(w.offered_rate, open_secs, true);
        let after = census_of(&drv, &proxies);
        census.add_delta(&before, &after);
        traced.absorb(&open, sp, &mut spans);
        drv.set_maintenance(w.maintenance_every);
        // Alternate untraced and traced closed-loop slices, so the
        // tracing overhead is measured on equally warm state.
        let slice = closed_secs / 4.0;
        let (mut untraced_ops, mut untraced_s, mut traced_ops, mut traced_s) = (0, 0.0, 0, 0.0);
        for _ in 0..2 {
            let u0 = Usage::now();
            let (p, _) = drv.closed(slice, false);
            traced.usage = traced.usage.plus(Usage::now().since(u0));
            untraced_ops += p.samples.len();
            untraced_s += p.elapsed.as_secs_f64();
            phases.push(p);
            let before = census_of(&drv, &proxies);
            let (p, sp) = drv.closed(slice, true);
            let after = census_of(&drv, &proxies);
            census.add_delta(&before, &after);
            traced_ops += p.samples.len();
            traced_s += p.elapsed.as_secs_f64();
            traced.absorb(&p, sp, &mut spans);
            phases.push(p);
        }
        traced.untraced_ops = untraced_ops;
        traced.overhead = ratio(
            traced_ops as f64 / traced_s,
            untraced_ops as f64 / untraced_s,
        );
        (traced_ops as f64 / traced_s, open)
    } else {
        let (open, _) = drv.open(w.offered_rate, open_secs, false);
        drv.set_maintenance(w.maintenance_every);
        let (p, _) = drv.closed(closed_secs, false);
        let capacity = p.samples.len() as f64 / p.elapsed.as_secs_f64();
        phases.push(p);
        (capacity, open)
    };
    let rss = peak_rss_mb();
    let steal_after = cpu_steal();
    let steal_share = ratio(
        (steal_after.0 - steal_before.0) as f64,
        (steal_after.1 - steal_before.1) as f64,
    );
    let consumed = drv.consumed();
    let live = drv.into_live();
    if consumed >= ops.len() {
        return Err("the op stream ran dry; raise the stream length".to_owned());
    }
    let deployed = live.target;

    // ---- durable: disk accounting and recovery ≡ live ----
    let mut durable_probe = DurableProbe::default();
    if let Some(s) = deployed.durable() {
        let dir = s.dir().to_path_buf();
        let m = &deployed.maintenance;
        let added = m.bytes_added + dir_bytes(&dir).saturating_sub(m.mark);
        durable_probe.disk_bytes_per_write = ratio(added as f64, live.applied.len() as f64);
        durable_probe.snapshot_ms = mean_ns(&m.snapshot_ns) / 1e6;
        durable_probe.compact_ms = mean_ns(&m.compact_ns) / 1e6;
        let t = Instant::now();
        let recovered = Deployment::online()
            .durable(&dir)
            .map_err(|e| format!("reopen: {e}"))?;
        durable_probe.recover_ms = t.elapsed().as_secs_f64() * 1e3;
        durable_probe.records_replayed = recovered.recovery_report().records_replayed as f64;
        if encode_graph(recovered.graph()) != encode_graph(s.graph())
            || store_digest(recovered.store()) != store_digest(s.store())
        {
            return Err("verification failed: recovered state differs from live state".into());
        }
    }

    stage("loaded");
    // ---- verify every timed read ----
    let all: Vec<&Sample> = phases
        .iter()
        .chain([&open])
        .flat_map(|p| &p.samples)
        .collect();
    let reads: Vec<ReadRecord> = all
        .iter()
        .filter_map(|s| s.read.as_ref())
        .map(|(req, writes, answer)| ReadRecord {
            req: req.clone(),
            writes: *writes,
            answer: *answer,
        })
        .collect();
    let in_memory = w.shape != Shape::Durable;
    let ref_dir = fresh_dir(out.join("reference"))?;
    // In-memory workloads verify against a durable reference, whose
    // data directory measures the bytes their writes would cost.
    let ref_shape = if in_memory {
        Shape::Durable
    } else {
        Shape::Single
    };
    let mut reference = Deployed::build(ref_shape, args.seed, Some(&ref_dir), &mut Ok)?;
    let mut twin = match w.shape {
        Shape::Networked(n) => Some(Deployed::build(
            Shape::Sharded(n),
            args.seed,
            None,
            &mut Ok,
        )?),
        _ => None,
    };
    for wr in &data.setup {
        reference.write(wr)?;
        if let Some(t) = twin.as_mut() {
            t.write(wr)?;
        }
    }
    let ref_mark = dir_bytes(&ref_dir);
    let report = verify(
        &ops,
        &live.applied,
        &reads,
        &mut reference,
        twin.as_mut(),
        threads,
    )?;
    if report.mismatch_count > 0 {
        for m in &report.mismatches {
            eprintln!("mismatch: {m}");
        }
        return Err(format!(
            "verification failed: {} of {} reads disagree with the reference",
            report.mismatch_count, report.reads_checked
        ));
    }
    let disk_bytes_per_write = if in_memory {
        ratio(
            dir_bytes(&ref_dir).saturating_sub(ref_mark) as f64,
            report.writes_replayed as f64,
        )
    } else {
        durable_probe.disk_bytes_per_write
    };
    if let (true, Some(r)) = (in_memory && args.trace, reference.durable()) {
        // The durable reference stands in for the durability layer the
        // workload bypasses. Its snapshot is timed; compaction and
        // recovery are not, since each decodes the whole snapshot.
        let wal = std::fs::metadata(r.dir().join("wal.log")).map_or(0, |m| m.len());
        wal_bytes_per_record = ratio(wal as f64, r.wal_records() as f64);
        let t = Instant::now();
        r.snapshot()
            .map_err(|e| format!("reference snapshot: {e}"))?;
        durable_probe.snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    drop(reference);
    let _ = std::fs::remove_dir_all(&ref_dir);

    stage("verified");
    // ---- report ----
    let attempted = all.len() as u64;
    let failed = all.iter().filter(|s| !s.ok).count() as u64;
    let open_failed = open.samples.iter().filter(|s| !s.ok).count() as u64;
    let mut metrics = Metrics::default();
    // The p99s are reported with every run but gated by nothing: on the
    // 2-vCPU machine the benchmark was defined on they moved 2-8× with
    // the host's CPU steal, so they ride with the per-layer metrics.
    let mut tails = Metrics::default();
    for c in Class::ALL {
        let p99 = windowed_percentile(&open, c, 99.0);
        tails.put(&format!("{}_p99_us", c.name()), "us", p99);
    }
    if !args.trace {
        metrics.put("setup_s", "s", median(&mut setup_s.clone()));
        metrics.put("capacity_ops_per_s", "ops/s", capacity);
        for c in Class::ALL {
            let p50 = windowed_percentile(&open, c, 50.0);
            metrics.put(&format!("{}_p50_us", c.name()), "us", p50);
        }
        metrics.put(
            "fail_ratio",
            "ratio",
            wilson_upper(open_failed, open.samples.len() as u64),
        );
        metrics.put("peak_rss_mb", "MiB", rss);
        metrics.put("disk_bytes_per_write", "B", disk_bytes_per_write);
    } else {
        // The sharded, planner and wire layers: from the live
        // deployment when it has them, otherwise from layer twins that
        // replay this run.
        let live_src = Source {
            census: traced.census,
            reads: traced.reads,
            read_ns_mean: mean_ns(&service_ns(&all, |s| s.read.is_some())),
            write_ns_mean: mean_ns(&service_ns(&all, |s| s.class == Class::Write && s.ok)),
            tally: census.tally,
            wire: census.wire,
        };
        drop(deployed);
        let mut payloads = Vec::new();
        for p in proxies.iter_mut() {
            p.stop();
            payloads.extend(p.payloads.lock().expect("payload list poisoned").drain(..));
        }
        let mut twin = |shape| {
            replay_twin(
                shape,
                args.seed,
                &data,
                &ops,
                &live.applied,
                &reads,
                &mut payloads,
            )
        };
        let (sharded, remote) = match w.shape {
            Shape::ShardedPlanned(_) | Shape::Sharded(_) => (Some(live_src), None),
            Shape::Networked(_) => {
                let base = Source {
                    reads: reads.len() as u64,
                    read_ns_mean: mean_ns(&report.twin_read_ns),
                    write_ns_mean: mean_ns(&report.twin_write_ns),
                    ..Source::default()
                };
                (None, Some((live_src, base)))
            }
            _ => {
                let mut sharded = None;
                let mut net = None;
                let mut base = None;
                for &shape in &w.layer_twins {
                    match shape {
                        Shape::ShardedPlanned(_) => sharded = Some(twin(shape)?),
                        Shape::Networked(_) => net = Some(twin(shape)?),
                        Shape::Sharded(_) => base = Some(twin(shape)?),
                        _ => {}
                    }
                }
                (sharded, net.zip(base))
            }
        };
        let mut tracer = Tracer::new(Instant::now());
        let read_reqs: Vec<ReadReq> = reads.iter().map(|r| r.req.clone()).collect();
        probes::run(&data, &ops, &live.applied, &read_reqs, &mut tracer)?;
        for payload in &payloads {
            tracer.time("remote", "decode", || {
                proto::decode_response(payload).is_ok()
            });
        }
        let roll_ops = rollup(&spans);
        let roll_probe = rollup(&tracer.spans);
        spans.extend(tracer.spans);
        write_spans(&out.join("spans.tsv"), &spans).map_err(|e| format!("spans: {e}"))?;
        let ctx = LayerInputs {
            w: &w,
            traced: &traced,
            census: &census,
            durable: &durable_probe,
            report: &report,
            all: &all,
            sharded: sharded.as_ref(),
            remote: remote.as_ref(),
            open: &open,
            wal_bytes_per_record,
        };
        layer_metrics(&mut metrics, &ctx, &roll_ops, &roll_probe);
        metrics.0.append(&mut tails.0);
    }

    // ---- environment record and result ----
    let env = env_record(args, &w, threads, &open, &setup_s, &out, steal_share);
    let result = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    std::fs::write(
        out.join("result.json"),
        format!(
            "{{\"environment\": {env}, \"result\": {result}, \"ungated\": {}}}\n",
            tails.json()
        ),
    )
    .map_err(|e| format!("result file: {e}"))?;
    for (name, unit, value) in &metrics.0 {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    for (name, unit, value) in &tails.0 {
        println!("{name:<36} {value:>16.4} {unit} (ungated)");
    }
    println!("environment: {env}");
    println!("{result}");
    Ok(())
}

/// Reads a layer twin replays at most (a sample of the run's reads).
const TWIN_READS: usize = 1000;

/// The work census of one deployment over some reads and writes: what
/// the sharded, planner and wire metrics are computed from.
#[derive(Default)]
struct Source {
    census: ReadStats,
    /// Reads the census covers.
    reads: u64,
    read_ns_mean: f64,
    write_ns_mean: f64,
    tally: PlannerTally,
    wire: [u64; 4],
}

/// Replays the run into a fresh deployment of `shape` (a layer twin):
/// every applied write in order, and a sample of the timed reads at
/// the write counts they observed, each of which must match the served
/// answer. Networked twins run behind counting proxies, whose response
/// payloads go to `payloads`.
fn replay_twin(
    shape: Shape,
    seed: u64,
    data: &Dataset,
    ops: &[crate::dataset::Op],
    applied: &[u32],
    reads: &[ReadRecord],
    payloads: &mut Vec<Vec<u8>>,
) -> Result<Source, String> {
    let mut proxies = Vec::new();
    let mut twin = Deployed::build(shape, seed, None, &mut |addrs| proxied(addrs, &mut proxies))?;
    for wr in &data.setup {
        twin.write(wr)?;
    }
    let before = Censuses::take(&twin, &proxies);
    let every = reads.len().div_ceil(TWIN_READS).max(1);
    let mut sample: Vec<&ReadRecord> = reads.iter().step_by(every).collect();
    sample.sort_by_key(|r| r.writes);
    let mut src = Source::default();
    let (mut write_ns, mut read_ns, mut done) = (0u64, 0u64, 0usize);
    let mut replay_to =
        |twin: &mut Deployed, upto: usize, done: &mut usize| -> Result<(), String> {
            for &i in &applied[*done..upto] {
                if let crate::dataset::Op::Write(w) = &ops[i as usize] {
                    let t = Instant::now();
                    twin.write(w)?;
                    write_ns += t.elapsed().as_nanos() as u64;
                }
            }
            *done = upto;
            Ok(())
        };
    for r in &sample {
        replay_to(&mut twin, r.writes as usize, &mut done)?;
        let t = Instant::now();
        let got = twin.read(&r.req, Some(&mut src.census))?;
        read_ns += t.elapsed().as_nanos() as u64;
        if got != r.answer {
            return Err(format!(
                "verification failed: {shape:?} twin answered {got:?} to {:?}, served {:?}",
                r.req, r.answer
            ));
        }
    }
    replay_to(&mut twin, applied.len(), &mut done)?;
    let after = Censuses::take(&twin, &proxies);
    let mut delta = Censuses::default();
    delta.add_delta(&before, &after);
    src.reads = sample.len() as u64;
    src.read_ns_mean = ratio(read_ns as f64, src.reads as f64);
    src.write_ns_mean = ratio(write_ns as f64, applied.len() as f64);
    src.tally = delta.tally;
    src.wire = delta.wire;
    drop(twin);
    for mut p in proxies {
        p.stop();
        payloads.extend(p.payloads.lock().expect("payload list poisoned").drain(..));
    }
    Ok(src)
}

/// Puts a counting proxy in front of every shard endpoint.
fn proxied(addrs: Vec<ShardAddr>, proxies: &mut Vec<Proxy>) -> Result<Vec<ShardAddr>, String> {
    let mut wrapped = Vec::new();
    for a in addrs {
        let p = Proxy::spawn(a.to_string()).map_err(|e| format!("proxy: {e}"))?;
        wrapped.push(ShardAddr::Tcp(p.addr.clone()));
        proxies.push(p);
    }
    Ok(wrapped)
}

fn census_of(drv: &LoadGen<Deployed>, proxies: &[Proxy]) -> Censuses {
    let live = drv.live.read().expect("load lock poisoned");
    Censuses::take(&live.target, proxies)
}

/// What the traced phases accumulated.
#[derive(Default)]
struct TracedLoad {
    usage: Usage,
    untraced_ops: usize,
    overhead: f64,
    census: ReadStats,
    reads: u64,
    ops: u64,
}

impl TracedLoad {
    fn absorb(&mut self, p: &PhaseResult, sp: Vec<Span>, spans: &mut Vec<Span>) {
        self.census.absorb(&p.census);
        self.reads += p.reads_censused;
        self.ops += p.samples.len() as u64;
        spans.extend(sp);
    }
}

impl Usage {
    fn plus(self, o: Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us + o.cpu_us,
            ctx_switches: self.ctx_switches + o.ctx_switches,
        }
    }
}

#[derive(Default)]
struct DurableProbe {
    disk_bytes_per_write: f64,
    snapshot_ms: f64,
    compact_ms: f64,
    recover_ms: f64,
    records_replayed: f64,
}

struct LayerInputs<'a> {
    w: &'a Workload,
    traced: &'a TracedLoad,
    census: &'a Censuses,
    durable: &'a DurableProbe,
    report: &'a crate::verify::Report,
    all: &'a [&'a Sample],
    sharded: Option<&'a Source>,
    /// The networked deployment and its in-process twin of equal size.
    remote: Option<&'a (Source, Source)>,
    open: &'a PhaseResult,
    wal_bytes_per_record: f64,
}

type Roll = std::collections::BTreeMap<(&'static str, &'static str), crate::trace::Rollup>;

fn mean_us(roll: &Roll, layer: &'static str, name: &'static str) -> f64 {
    roll.get(&(layer, name)).map_or(0.0, |r| r.mean_us())
}

/// Every per-layer metric; a layer the workload bypasses reads 0.
fn layer_metrics(m: &mut Metrics, x: &LayerInputs, roll_ops: &Roll, roll_probe: &Roll) {
    let t = x.traced;
    let reads = t.reads as f64;
    let mut lags: Vec<f64> = x.open.sched_lag.iter().map(|&n| n as f64 / 1e6).collect();
    m.put(
        "harness.sched_lag_p99_ms",
        "ms",
        percentile(&mut lags, 99.0).unwrap_or(0.0),
    );
    m.put("harness.trace_overhead", "ratio", t.overhead);
    let untraced = t.untraced_ops as f64;
    m.put(
        "proc.cpu_us_per_op",
        "us",
        ratio(t.usage.cpu_us as f64, untraced),
    );
    m.put(
        "proc.ctx_switches_per_op",
        "count",
        ratio(t.usage.ctx_switches as f64, untraced),
    );

    m.put(
        "query.parse_us",
        "us",
        mean_us(roll_probe, "query", "parse"),
    );
    m.put(
        "query.plan_compile_us",
        "us",
        mean_us(roll_probe, "query", "plan_compile"),
    );
    m.put(
        "query.prefix_share",
        "ratio",
        t.census.prefix_share().unwrap_or(0.0),
    );

    let (hits, misses) = x.census.cache;
    m.put(
        "engine.cache_hit_ratio",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );

    m.put(
        "online.states_per_read",
        "count",
        ratio(t.census.states_expanded as f64, reads),
    );
    m.put(
        "online.check_us",
        "us",
        mean_us(roll_probe, "online", "check"),
    );
    m.put(
        "online.bundle_us",
        "us",
        mean_us(roll_probe, "online", "bundle"),
    );

    m.put("csr.patch_us", "us", mean_us(roll_probe, "csr", "patch"));
    m.put(
        "csr.build_ms",
        "ms",
        mean_us(roll_probe, "csr", "build") / 1e3,
    );
    let after_write: Vec<f64> = x
        .open
        .samples
        .iter()
        .filter(|s| s.first_after_write && s.read.is_some())
        .map(|s| s.service_us())
        .collect();
    m.put(
        "system.first_read_after_write_us",
        "us",
        ratio(after_write.iter().sum(), after_write.len() as f64),
    );

    let none = Source::default();
    let sh = x.sharded.unwrap_or(&none);
    let sh_reads = sh.reads as f64;
    m.put(
        "sharded.rounds_per_read",
        "count",
        ratio(sh.census.rounds as f64, sh_reads),
    );
    m.put(
        "sharded.exports_per_read",
        "count",
        ratio(sh.census.exported_states as f64, sh_reads),
    );
    m.put(
        "sharded.us_per_round",
        "us",
        ratio(sh.read_ns_mean * sh_reads / 1e3, sh.census.rounds as f64),
    );

    let tally = sh.tally;
    let plans = (tally.batched + tally.per_condition + tally.targeted) as f64;
    m.put(
        "planner.batched_share",
        "ratio",
        ratio(tally.batched as f64, plans),
    );
    m.put(
        "planner.targeted_share",
        "ratio",
        ratio(tally.targeted as f64, plans),
    );
    m.put(
        "planner.per_condition_share",
        "ratio",
        ratio(tally.per_condition as f64, plans),
    );

    let pair = (Source::default(), Source::default());
    let (net, base) = x.remote.unwrap_or(&pair);
    let [read_frames, read_bytes, round_bytes, read_resp_bytes] = net.wire;
    let net_reads = net.reads as f64;
    m.put(
        "remote.frames_per_read",
        "count",
        ratio(read_frames as f64, net_reads),
    );
    m.put(
        "remote.bytes_per_read",
        "B",
        ratio((read_bytes + read_resp_bytes) as f64, net_reads),
    );
    m.put(
        "remote.bytes_per_export",
        "B",
        ratio(round_bytes as f64, net.census.exported_states as f64),
    );
    m.put(
        "remote.decode_us_per_frame",
        "us",
        mean_us(roll_probe, "remote", "decode"),
    );
    let wire_share = if x.remote.is_some() {
        1.0 - ratio(base.read_ns_mean, net.read_ns_mean)
    } else {
        0.0
    };
    m.put("remote.wire_share", "ratio", wire_share);
    m.put(
        "remote.fence_us",
        "us",
        (net.write_ns_mean - base.write_ns_mean) / 1e3,
    );

    // Durable writes minus in-memory writes: the live deployment and the
    // reference are one of each.
    let live = mean_ns(&service_ns(x.all, |s| s.class == Class::Write && s.ok));
    let reference = mean_ns(&x.report.reference_write_ns);
    let append_us = if x.w.shape == Shape::Durable {
        (live - reference) / 1e3
    } else {
        (reference - live) / 1e3
    };
    m.put(
        "durability.wal_bytes_per_record",
        "B",
        x.wal_bytes_per_record,
    );
    m.put("durability.append_us", "us", append_us);
    m.put("durability.snapshot_ms", "ms", x.durable.snapshot_ms);
    m.put("durability.compact_ms", "ms", x.durable.compact_ms);
    m.put("durability.recover_ms", "ms", x.durable.recover_ms);
    m.put(
        "durability.records_replayed",
        "count",
        x.durable.records_replayed,
    );

    let ops = t.ops as f64;
    m.put(
        "rollup.queue_us_per_op",
        "us",
        ratio(layer_self_ns(roll_ops, "harness") as f64 / 1e3, ops),
    );
    m.put(
        "rollup.lock_us_per_op",
        "us",
        ratio(layer_self_ns(roll_ops, "lock") as f64 / 1e3, ops),
    );
    m.put(
        "rollup.service_us_per_op",
        "us",
        ratio(layer_self_ns(roll_ops, "service") as f64 / 1e3, ops),
    );
}

/// Service times (ns) of the samples `keep` selects.
fn service_ns(all: &[&Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    all.iter()
        .filter(|s| keep(s))
        .map(|s| s.done - s.called)
        .collect()
}

fn mean_ns(v: &[u64]) -> f64 {
    ratio(v.iter().sum::<u64>() as f64, v.len() as f64)
}

/// Open-loop latencies of one class in µs, failures as +∞.
pub fn class_latencies<'a>(samples: impl IntoIterator<Item = &'a Sample>, c: Class) -> Vec<f64> {
    samples
        .into_iter()
        .filter(|s| s.class == c)
        .map(|s| if s.ok { s.latency_us() } else { f64::INFINITY })
        .collect()
}

/// Most windows a phase is split into for medians.
const WINDOWS: usize = 16;
/// Samples a window needs for its p-th percentile to have at least
/// five samples beyond it.
fn window_floor(p: f64) -> usize {
    ((5.0 / (1.0 - p / 100.0)).round() as usize).max(1)
}

/// The median, over equal windows of due time, of a class's `p`-th
/// latency percentile: one noisy stretch of a run moves one window,
/// not the figure. There are as many windows (at most `WINDOWS`) as
/// keep five samples beyond the percentile in each, so a class with
/// at least 1,000 samples has ten beyond it over the run.
pub fn windowed_percentile(open: &PhaseResult, c: Class, p: f64) -> f64 {
    let n = open.samples.iter().filter(|s| s.class == c).count();
    let k = (n / window_floor(p)).clamp(1, WINDOWS);
    let span = open.samples.iter().map(|s| s.due).max().unwrap_or(0) + 1;
    let mut per_window: Vec<f64> = (0..k)
        .filter_map(|w| {
            let lo = span * w as u64 / k as u64;
            let hi = span * (w as u64 + 1) / k as u64;
            let in_window = open.samples.iter().filter(|s| s.due >= lo && s.due < hi);
            percentile(&mut class_latencies(in_window, c), p)
        })
        .collect();
    if per_window.is_empty() {
        0.0
    } else {
        median(&mut per_window)
    }
}

/// Generator lateness (p50, p99) in ms.
fn lateness_ms(open: &PhaseResult) -> (f64, f64) {
    let mut lags: Vec<f64> = open.sched_lag.iter().map(|&n| n as f64 / 1e6).collect();
    let p50 = percentile(&mut lags, 50.0).unwrap_or(0.0);
    let p99 = percentile(&mut lags, 99.0).unwrap_or(0.0);
    (p50, p99)
}

/// A canonical text of a policy store (resources in id order).
fn store_digest(store: &socialreach_core::PolicyStore) -> String {
    let mut rs: Vec<_> = store.resources().collect();
    rs.sort_by_key(|(rid, _)| rid.0);
    let mut out = String::new();
    for (rid, owner) in rs {
        let _ = writeln!(out, "{} {} {:?}", rid.0, owner.0, store.rules_for(rid));
    }
    out
}

fn env_record(
    args: &Args,
    w: &Workload,
    threads: usize,
    open: &PhaseResult,
    setup_s: &[f64],
    out: &Path,
    steal_share: f64,
) -> String {
    let lateness = lateness_ms(open);
    let counts: Vec<String> = Class::ALL
        .iter()
        .map(|&c| {
            let n = open.samples.iter().filter(|s| s.class == c).count();
            format!("\"{}\": {n}", c.name())
        })
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s}")).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"available_parallelism\": {threads}, \"client_threads\": {threads}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"offered_rate_ops_per_s\": {}, \
         \"generator_lateness_p50_ms\": {}, \"generator_lateness_p99_ms\": {}, \
         \"cpu_steal_share_during_load\": {steal_share}, \
         \"open_loop_samples\": {{{}}}, \"setup_runs_s\": [{}], \
         \"data_dir_filesystem\": \"{}\", \"flush_policy\": \"{FLUSH_POLICY}\", \
         \"members\": {}, \"posts_per_member\": {}}}",
        w.name,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        env!("SERVEBENCH_RUSTC"),
        env!("SERVEBENCH_COMMIT"),
        w.offered_rate,
        lateness.0,
        lateness.1,
        counts.join(", "),
        setups.join(", "),
        filesystem_of(out),
        w.input.members,
        w.input.posts_per_member,
    )
}
