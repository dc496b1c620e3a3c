//! Self-tests of the harness: determinism of the generated inputs,
//! percentile arithmetic, due-time accounting, the verifier, and the
//! span rollup. Run with `cargo test --manifest-path servebench/Cargo.toml`.

use crate::dataset::{op_stream, render, Dataset, InputSpec, Op, Write};
use crate::load::LoadGen;
use crate::serve::{Answer, Deployed, ReadReq, Shape, Target};
use crate::stats::{percentile, wilson_upper};
use crate::trace::{rollup, Span};
use crate::verify::{verify, ReadRecord};
use socialreach_core::service::ReadStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn small() -> InputSpec {
    InputSpec {
        members: 300,
        posts_per_member: 0.5,
        mix: [0.6, 0.15, 0.15, 0.1],
        recent_checks: 0.3,
        write_mix: [0.4, 0.35, 0.17, 0.08],
    }
}

fn loaded(shape: Shape, data: &Dataset) -> Deployed {
    let mut d = Deployed::build(shape, 1, None, &mut Ok).unwrap();
    for w in &data.setup {
        d.write(w).unwrap();
    }
    d
}

#[test]
fn same_seed_gives_a_byte_identical_op_stream() {
    let spec = small();
    let a = Dataset::generate(&spec, 42);
    let b = Dataset::generate(&spec, 42);
    assert_eq!(a.setup, b.setup);
    let sa = render(&op_stream(&a, &spec, 42, 3000));
    let sb = render(&op_stream(&b, &spec, 42, 3000));
    assert_eq!(sa, sb);
    let c = Dataset::generate(&spec, 43);
    assert_ne!(sa, render(&op_stream(&c, &spec, 43, 3000)));
}

#[test]
fn every_generated_rule_parses_on_every_class_of_write() {
    let spec = small();
    let data = Dataset::generate(&spec, 5);
    let ops = op_stream(&data, &spec, 5, 4000);
    let mut d = loaded(Shape::Single, &data);
    for op in &ops {
        if let Op::Write(w) = op {
            d.write(w).unwrap();
        }
    }
    assert!(ops
        .iter()
        .any(|o| matches!(o, Op::Write(Write::Post { .. }))));
}

#[test]
fn percentiles_count_failures_as_infinite() {
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&mut v.clone(), 50.0), Some(50.0));
    assert_eq!(percentile(&mut v, 99.0), Some(99.0));
    // Two failures among 100: p99 lands on a failure.
    let mut w: Vec<f64> = (1..=98).map(f64::from).collect();
    w.extend([f64::INFINITY, f64::INFINITY]);
    assert_eq!(percentile(&mut w.clone(), 99.0), Some(f64::INFINITY));
    assert_eq!(percentile(&mut w, 50.0), Some(50.0));
    assert_eq!(percentile(&mut [], 50.0), None);
    assert!(wilson_upper(0, 1000) > 0.0);
    assert!(wilson_upper(0, 1000) < wilson_upper(1, 1000));
}

/// Answers every read at once, except that the `stall_at`-th read
/// sleeps first.
struct Stall {
    calls: AtomicUsize,
    stall_at: usize,
    stall: Duration,
}

impl Target for Stall {
    fn read(&self, _: &ReadReq, _: Option<&mut ReadStats>) -> Result<Answer, String> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.stall_at {
            std::thread::sleep(self.stall);
        }
        Ok(Answer::Check(true))
    }

    fn write(&mut self, _: &Write) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn a_stall_inflates_the_latency_of_requests_queued_behind_it() {
    let ops: Vec<Op> = (0..400)
        .map(|i| Op::Check {
            post: crate::dataset::PostRef::Fixed(0),
            viewer: i,
        })
        .collect();
    let stub = Stall {
        calls: AtomicUsize::new(0),
        stall_at: 100,
        stall: Duration::from_millis(60),
    };
    // One client at 2000 ops/s: ops are due every 0.5 ms.
    let drv = LoadGen::new(stub, 1, &ops, 1);
    let (open, _) = drv.open(2000.0, 0.2, false);
    let s = &open.samples;
    assert_eq!(s.len(), 400);
    // The stalled op itself, and the next one, which was due 0.5 ms
    // later but could only be sent after the stall.
    assert!(s[100].latency_us() >= 60_000.0);
    assert!(s[101].latency_us() >= 55_000.0, "{}", s[101].latency_us());
    assert!(s[101].service_us() < 5_000.0);
    // Requests due well before the stall are unaffected.
    assert!(s[50].latency_us() < 5_000.0);
}

/// A real deployment that flips the decision of its `flip_at`-th check.
struct Flip {
    inner: Deployed,
    checks: AtomicUsize,
    flip_at: usize,
}

impl Target for Flip {
    fn read(&self, req: &ReadReq, census: Option<&mut ReadStats>) -> Result<Answer, String> {
        let answer = self.inner.read(req, census)?;
        match answer {
            Answer::Check(d) if self.checks.fetch_add(1, Ordering::SeqCst) == self.flip_at => {
                Ok(Answer::Check(!d))
            }
            a => Ok(a),
        }
    }

    fn write(&mut self, w: &Write) -> Result<(), String> {
        self.inner.write(w)
    }
}

fn verify_flip(flip_at: usize) -> usize {
    let spec = small();
    let data = Dataset::generate(&spec, 9);
    let ops = op_stream(&data, &spec, 9, 3000);
    let stub = Flip {
        inner: loaded(Shape::Single, &data),
        checks: AtomicUsize::new(0),
        flip_at,
    };
    let drv = LoadGen::new(stub, data.posts, &ops, 2);
    let (open, _) = drv.open(20_000.0, 0.1, false);
    let live = drv.into_live();
    let reads: Vec<ReadRecord> = open
        .samples
        .iter()
        .filter_map(|s| s.read.clone())
        .map(|(req, writes, answer)| ReadRecord {
            req,
            writes,
            answer,
        })
        .collect();
    let mut reference = loaded(Shape::Single, &data);
    let report = verify(
        &ops,
        &live.applied,
        &reads,
        &mut reference,
        None::<&mut Deployed>,
        2,
    )
    .unwrap();
    assert_eq!(report.reads_checked, reads.len());
    report.mismatch_count
}

#[test]
fn the_verifier_rejects_one_flipped_decision() {
    assert_eq!(verify_flip(usize::MAX), 0);
    assert_eq!(verify_flip(25), 1);
}

#[test]
fn the_verifier_compares_a_twin_too() {
    let spec = small();
    let data = Dataset::generate(&spec, 3);
    let ops = op_stream(&data, &spec, 3, 1500);
    let drv = LoadGen::new(loaded(Shape::Single, &data), data.posts, &ops, 2);
    let (closed, _) = drv.closed(0.2, false);
    let live = drv.into_live();
    let reads: Vec<ReadRecord> = closed
        .samples
        .iter()
        .filter_map(|s| s.read.clone())
        .map(|(req, writes, answer)| ReadRecord {
            req,
            writes,
            answer,
        })
        .collect();
    let mut reference = loaded(Shape::Single, &data);
    let mut twin = loaded(Shape::Sharded(2), &data);
    let report = verify(
        &ops,
        &live.applied,
        &reads,
        &mut reference,
        Some(&mut twin),
        2,
    )
    .unwrap();
    assert_eq!(report.mismatch_count, 0, "{:?}", report.mismatches);
    assert_eq!(report.twin_write_ns.len(), live.applied.len());
}

#[test]
fn rollup_subtracts_child_spans_from_self_time() {
    let span = |id, parent, layer, start, end| Span {
        request: 1,
        id,
        parent,
        layer,
        name: "check",
        start,
        end,
    };
    let spans = vec![
        span(1, 0, "harness", 0, 100),
        span(2, 1, "lock", 0, 30),
        span(3, 1, "service", 30, 90),
    ];
    let r = rollup(&spans);
    assert_eq!(r[&("harness", "check")].self_ns, 10);
    assert_eq!(r[&("service", "check")].self_ns, 60);
    assert_eq!(r[&("lock", "check")].total_ns, 30);
}
