//! The load generator: closed-loop and open-loop phases over one op
//! stream, from `threads` client threads, through one `RwLock` around
//! the system under test.
//!
//! Each read is tagged with the number of writes it observed (read
//! under the shared lock, so it is exact); writes are logged in the
//! order they were applied. The verifier replays from those two facts.
//! Open-loop latency is timed from when a request was *due*, so a
//! stall counts against every request queued behind it.

use crate::dataset::{Class, Op, PostRef, Write};
use crate::serve::{Answer, ReadReq, Target};
use crate::trace::{Span, Tracer};
use socialreach_core::service::ReadStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// The locked state: the system plus what the verifier needs.
pub struct Live<T> {
    pub target: T,
    /// Stream indices of applied writes, in application order.
    pub applied: Vec<u32>,
    /// Resources registered so far (sequential ids `0..posts`).
    pub posts: u64,
    /// Writes that failed (not applied).
    pub failed_writes: u64,
    /// Run `Target::maintain` every this many writes (0: never).
    pub maintenance_every: usize,
}

/// One timed op.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the op stream.
    pub op: u32,
    pub class: Class,
    /// Nanoseconds since the phase epoch when the op was due (closed
    /// loop: when it was sent).
    pub due: u64,
    /// When the client thread sent it.
    pub sent: u64,
    /// When the call into the service started (lock held).
    pub called: u64,
    pub done: u64,
    pub ok: bool,
    /// Reads: the resolved request and the writes it observed.
    pub read: Option<(ReadReq, u64, Answer)>,
    /// Whether this read was the first one served after a write.
    pub first_after_write: bool,
}

impl Sample {
    /// Latency from due time to completion, in microseconds.
    pub fn latency_us(&self) -> f64 {
        (self.done.saturating_sub(self.due)) as f64 / 1e3
    }

    /// Time spent inside the service call, in microseconds.
    pub fn service_us(&self) -> f64 {
        (self.done.saturating_sub(self.called)) as f64 / 1e3
    }
}

/// What one phase produced.
#[derive(Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    /// Open loop: how late each op was sent while its thread was idle
    /// (nanoseconds), the generator's own lateness.
    pub sched_lag: Vec<u64>,
    pub census: ReadStats,
    pub reads_censused: u64,
}

/// Shared load-generator state across phases.
pub struct LoadGen<'a, T: Target> {
    pub live: RwLock<Live<T>>,
    pub ops: &'a [Op],
    pub threads: usize,
    cursor: AtomicUsize,
    /// Writes applied when the last read ran (for first-read-after-
    /// write detection).
    last_read_writes: AtomicUsize,
}

impl<'a, T: Target> LoadGen<'a, T> {
    pub fn new(target: T, posts: u64, ops: &'a [Op], threads: usize) -> Self {
        LoadGen {
            live: RwLock::new(Live {
                target,
                applied: Vec::new(),
                posts,
                failed_writes: 0,
                maintenance_every: 0,
            }),
            ops,
            threads: threads.max(1),
            cursor: AtomicUsize::new(0),
            last_read_writes: AtomicUsize::new(0),
        }
    }

    /// Runs `Target::maintain` every `every` writes from now on (0:
    /// never).
    pub fn set_maintenance(&self, every: usize) {
        self.live
            .write()
            .expect("load lock poisoned")
            .maintenance_every = every;
    }

    /// Ops consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor.load(Ordering::SeqCst).min(self.ops.len())
    }

    pub fn into_live(self) -> Live<T> {
        self.live
            .into_inner()
            .expect("load lock poisoned by a panicking client")
    }

    /// Runs one op at stream index `i`, timing from `due`.
    fn run_op(
        &self,
        i: usize,
        epoch: Instant,
        due: u64,
        census: Option<&mut ReadStats>,
        tracer: Option<&mut Tracer>,
    ) -> Sample {
        let sent = nanos(epoch);
        let op = &self.ops[i];
        let mut sample = Sample {
            op: i as u32,
            class: op.class(),
            due,
            sent,
            called: sent,
            done: sent,
            ok: false,
            read: None,
            first_after_write: false,
        };
        match op {
            Op::Write(w) => {
                let mut live = self.live.write().expect("load lock poisoned");
                sample.called = nanos(epoch);
                let ok = live.target.write(w).is_ok();
                sample.done = nanos(epoch);
                if ok {
                    live.applied.push(i as u32);
                    if matches!(w, Write::Post { .. }) {
                        live.posts += 1;
                    }
                    // Maintenance stalls the stream (the lock is held)
                    // but is not part of this write's own latency.
                    let every = live.maintenance_every;
                    if every > 0 && live.applied.len().is_multiple_of(every) {
                        sample.ok = live.target.maintain().is_ok();
                    } else {
                        sample.ok = true;
                    }
                } else {
                    live.failed_writes += 1;
                }
            }
            _ => {
                let live = self.live.read().expect("load lock poisoned");
                let writes = live.applied.len();
                let req = resolve(op, live.posts);
                sample.called = nanos(epoch);
                let result = live.target.read(&req, census);
                sample.done = nanos(epoch);
                let prev = self.last_read_writes.swap(writes, Ordering::SeqCst);
                sample.first_after_write = prev != writes;
                drop(live);
                if let Ok(answer) = result {
                    sample.ok = true;
                    sample.read = Some((req, writes as u64, answer));
                }
            }
        }
        if let Some(t) = tracer {
            t.record_op(&sample);
        }
        sample
    }

    /// Sends op `i` from client `c`, timed from `due`.
    fn send<'c>(&self, c: &'c mut Client, i: usize, due: u64) -> &'c Sample {
        let traced_read = c.tracer.is_some() && !matches!(self.ops[i], Op::Write(_));
        let census = traced_read.then_some(&mut c.census);
        c.censused += u64::from(traced_read);
        let sample = self.run_op(i, c.epoch, due, census, c.tracer.as_mut());
        c.samples.push(sample);
        c.samples.last().expect("just pushed")
    }

    /// Runs `body` on every client thread and merges what they sent.
    fn clients(
        &self,
        traced: bool,
        body: impl Fn(usize, &mut Client) + Sync,
    ) -> (PhaseResult, Vec<Span>) {
        let epoch = Instant::now();
        let parts: Vec<Client> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    let body = &body;
                    s.spawn(move || {
                        let mut c = Client {
                            epoch,
                            samples: Vec::new(),
                            lags: Vec::new(),
                            census: ReadStats::default(),
                            censused: 0,
                            tracer: traced.then(|| Tracer::new(epoch)),
                        };
                        body(t, &mut c);
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut r = PhaseResult {
            elapsed: epoch.elapsed(),
            ..PhaseResult::default()
        };
        let mut spans = Vec::new();
        for c in parts {
            r.samples.extend(c.samples);
            r.sched_lag.extend(c.lags);
            r.census.absorb(&c.census);
            r.reads_censused += c.censused;
            spans.extend(c.tracer.map(|t| t.spans).unwrap_or_default());
        }
        r.samples.sort_by_key(|s| s.op);
        (r, spans)
    }

    /// Closed loop: every thread sends its next op as soon as the
    /// previous one completes, until `secs` elapse or the stream ends.
    pub fn closed(&self, secs: f64, traced: bool) -> (PhaseResult, Vec<Span>) {
        let limit = Duration::from_secs_f64(secs);
        self.clients(traced, |_, c| {
            while c.epoch.elapsed() < limit {
                let i = self.cursor.fetch_add(1, Ordering::SeqCst);
                if i >= self.ops.len() {
                    break;
                }
                let due = nanos(c.epoch);
                self.send(c, i, due);
            }
        })
    }

    /// Open loop at `rate` ops/s for `secs`: thread `t` sends the
    /// phase's ops `t, t + threads, …` each at its own due time.
    pub fn open(&self, rate: f64, secs: f64, traced: bool) -> (PhaseResult, Vec<Span>) {
        let start = self.cursor.load(Ordering::SeqCst);
        let total = ((rate * secs) as usize).min(self.ops.len().saturating_sub(start));
        self.cursor.store(start + total, Ordering::SeqCst);
        self.clients(traced, |t, c| {
            for j in (t..total).step_by(self.threads) {
                let due = (j as f64 / rate * 1e9) as u64;
                let idle = nanos(c.epoch) < due;
                if idle {
                    sleep_until(c.epoch, due);
                }
                let sent = self.send(c, start + j, due).sent;
                if idle {
                    c.lags.push(sent.saturating_sub(due));
                }
            }
        })
    }
}

/// One client thread's accumulators within a phase.
struct Client {
    epoch: Instant,
    samples: Vec<Sample>,
    /// Open loop: how late each op was sent while the thread was idle.
    lags: Vec<u64>,
    census: ReadStats,
    censused: u64,
    tracer: Option<Tracer>,
}

/// Resolves a stream op's post references against the live count.
pub fn resolve(op: &Op, posts: u64) -> ReadReq {
    match op {
        Op::Check { post, viewer } => {
            let rid = match *post {
                PostRef::Fixed(r) => r,
                PostRef::Recent(k) => posts.saturating_sub(1 + u64::from(k)),
            };
            ReadReq::Check {
                rid,
                viewer: *viewer,
            }
        }
        Op::Feed { viewer, posts } => ReadReq::Feed {
            viewer: *viewer,
            rids: posts.clone(),
        },
        Op::Audience { posts } => ReadReq::Audience {
            rids: posts.clone(),
        },
        Op::Write(_) => unreachable!("writes are not resolved as reads"),
    }
}

pub fn nanos(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Sleeps to within ~50 µs of `due`, then spins: the generator's own
/// lateness is reported, so it has to be small.
fn sleep_until(epoch: Instant, due: u64) {
    loop {
        let now = nanos(epoch);
        if now >= due {
            return;
        }
        let left = due - now;
        if left > 100_000 {
            std::thread::sleep(Duration::from_nanos(left - 50_000));
        } else {
            std::hint::spin_loop();
        }
    }
}
