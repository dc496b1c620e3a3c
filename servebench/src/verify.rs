//! The output verifier, run outside the timed window.
//!
//! It replays the run's writes, in the order they were applied, into a
//! reference deployment, and compares every timed read against the
//! reference at the write count that read observed. An optional twin
//! (the in-process `sharded(2)` twin of a networked fleet) is replayed
//! alongside and must agree too; its read and write times give the
//! wire's share.

use crate::dataset::Op;
use crate::serve::{Answer, ReadReq, Target};
use std::time::Instant;

/// One timed read, as the verifier needs it.
pub struct ReadRecord {
    pub req: ReadReq,
    /// Writes applied when the read was served.
    pub writes: u64,
    pub answer: Answer,
}

#[derive(Default, Debug)]
pub struct Report {
    pub reads_checked: usize,
    pub writes_replayed: usize,
    /// The first few mismatches, described.
    pub mismatches: Vec<String>,
    pub mismatch_count: usize,
    /// Per-write replay times on the reference and the twin (ns).
    pub reference_write_ns: Vec<u64>,
    pub twin_write_ns: Vec<u64>,
    /// Summed read times on the twin (ns), in `reads` order.
    pub twin_read_ns: Vec<u64>,
}

impl Report {
    fn mismatch(&mut self, what: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }
}

/// Replays the run over a reference (and twin) that already hold the
/// dataset, ending with every applied write replayed.
pub fn verify<W: Target>(
    ops: &[Op],
    applied: &[u32],
    reads: &[ReadRecord],
    reference: &mut dyn Target,
    mut twin: Option<&mut W>,
    threads: usize,
) -> Result<Report, String> {
    let mut report = Report {
        twin_read_ns: vec![0; if twin.is_some() { reads.len() } else { 0 }],
        ..Report::default()
    };
    let mut order: Vec<usize> = (0..reads.len()).collect();
    order.sort_by_key(|&i| reads[i].writes);
    let mut done = 0usize;
    let mut at = 0usize;
    while at < order.len() {
        let writes = reads[order[at]].writes as usize;
        if writes > applied.len() {
            return Err(format!(
                "a read observed {writes} writes but only {} were applied",
                applied.len()
            ));
        }
        replay(
            ops,
            &applied[done..writes],
            reference,
            twin.as_deref_mut(),
            &mut report,
        )?;
        done = writes;
        let end = at
            + order[at..]
                .iter()
                .take_while(|&&i| reads[i].writes as usize == writes)
                .count();
        let group = &order[at..end];
        let expected = evaluate_parallel(&*reference, reads, group, threads);
        for (&i, exp) in group.iter().zip(expected) {
            match exp {
                Ok(a) if a == reads[i].answer => {}
                Ok(a) => report.mismatch(format!(
                    "{:?} after {writes} writes: served {:?}, reference {:?}",
                    reads[i].req, reads[i].answer, a
                )),
                Err(e) => report.mismatch(format!("{:?}: reference failed: {e}", reads[i].req)),
            }
            if let Some(tw) = twin.as_deref() {
                let t = Instant::now();
                let got = tw.read(&reads[i].req, None);
                report.twin_read_ns[i] = t.elapsed().as_nanos() as u64;
                if got.as_ref() != Ok(&reads[i].answer) {
                    report.mismatch(format!(
                        "{:?} after {writes} writes: served {:?}, twin {:?}",
                        reads[i].req, reads[i].answer, got
                    ));
                }
            }
        }
        report.reads_checked += group.len();
        at = end;
    }
    replay(ops, &applied[done..], reference, twin, &mut report)?;
    report.writes_replayed = applied.len();
    Ok(report)
}

fn replay<W: Target>(
    ops: &[Op],
    writes: &[u32],
    reference: &mut dyn Target,
    mut twin: Option<&mut W>,
    report: &mut Report,
) -> Result<(), String> {
    for &i in writes {
        let Op::Write(w) = &ops[i as usize] else {
            return Err(format!("applied op {i} is not a write"));
        };
        let t = Instant::now();
        reference.write(w)?;
        report
            .reference_write_ns
            .push(t.elapsed().as_nanos() as u64);
        if let Some(tw) = twin.as_deref_mut() {
            let t = Instant::now();
            tw.write(w)?;
            report.twin_write_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    Ok(())
}

/// Evaluates a group of reads on the reference from `threads` threads.
fn evaluate_parallel(
    reference: &dyn Target,
    reads: &[ReadRecord],
    group: &[usize],
    threads: usize,
) -> Vec<Result<Answer, String>> {
    if group.len() < 8 || threads < 2 {
        return group
            .iter()
            .map(|&i| reference.read(&reads[i].req, None))
            .collect();
    }
    let chunk = group.len().div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = group
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&i| reference.read(&reads[i].req, None))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    })
}
