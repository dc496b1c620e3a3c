//! A pass-through counting proxy between the router and one shard
//! server (traced runs only). It forwards bytes unchanged, parses the
//! `[u32 len][u32 crc][payload]` frames on both directions, classifies
//! router requests with `remote::proto::decode_request`, and keeps the
//! first response payloads so decode time can be measured apart from
//! the wire.

use socialreach_core::remote::proto::{self, Request};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Response payloads kept per proxy for the decode probe.
const KEEP_PAYLOADS: usize = 400;

/// Frame and byte counters of the read path (frames include their
/// 8-byte header). Epoch-fence and interning frames are not counted.
#[derive(Default)]
pub struct Counters {
    /// Request frames that serve reads (evaluations, rounds, traces).
    pub read_frames: AtomicU64,
    pub read_bytes: AtomicU64,
    /// Bytes of `Round` requests, which carry the boundary exports.
    pub round_bytes: AtomicU64,
    /// Bytes of the responses to read requests.
    pub read_resp_bytes: AtomicU64,
}

impl Counters {
    /// `[read_frames, read_bytes, round_bytes, read_resp_bytes]`.
    pub fn snapshot(&self) -> [u64; 4] {
        [
            &self.read_frames,
            &self.read_bytes,
            &self.round_bytes,
            &self.read_resp_bytes,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

pub struct Proxy {
    pub addr: String,
    pub counters: Arc<Counters>,
    pub payloads: Arc<Mutex<Vec<Vec<u8>>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Listens on an ephemeral loopback port and forwards every
    /// accepted connection to `upstream`.
    pub fn spawn(upstream: String) -> io::Result<Proxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let counters = Arc::new(Counters::default());
        let payloads = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (counters, payloads, stop) = (counters.clone(), payloads.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut pumps = Vec::new();
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = conn else { continue };
                    let Ok(server) = TcpStream::connect(&upstream) else {
                        continue;
                    };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    pumps.extend(pump_pair(client, server, &counters, &payloads));
                }
                for p in pumps {
                    let _ = p.join();
                }
            })
        };
        Ok(Proxy {
            addr,
            counters,
            payloads,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// Stops accepting and waits for every pump to end. Call after the
    /// router has closed its connections.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = TcpStream::connect(&self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Whether the last request on this connection was a read, so its
/// response is attributed to reads.
type LastWasRead = Arc<AtomicBool>;

fn pump_pair(
    client: TcpStream,
    server: TcpStream,
    counters: &Arc<Counters>,
    payloads: &Arc<Mutex<Vec<Vec<u8>>>>,
) -> Vec<JoinHandle<()>> {
    let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
        return Vec::new();
    };
    let last: LastWasRead = Arc::new(AtomicBool::new(false));
    let up = {
        let (counters, last) = (counters.clone(), last.clone());
        std::thread::spawn(move || {
            pump(client, server2, |payload| {
                let n = payload.len() as u64 + 8;
                let read = match proto::decode_request(payload) {
                    Ok(Request::Prepare { .. })
                    | Ok(Request::Commit { .. })
                    | Ok(Request::Abort { .. })
                    | Ok(Request::Intern { .. })
                    | Ok(Request::Hello { .. }) => false,
                    Ok(Request::Round { .. }) => {
                        counters.round_bytes.fetch_add(n, Ordering::Relaxed);
                        true
                    }
                    _ => true,
                };
                last.store(read, Ordering::Relaxed);
                if read {
                    counters.read_frames.fetch_add(1, Ordering::Relaxed);
                    counters.read_bytes.fetch_add(n, Ordering::Relaxed);
                }
            })
        })
    };
    let down = {
        let (counters, payloads) = (counters.clone(), payloads.clone());
        std::thread::spawn(move || {
            pump(server, client2, |payload| {
                if last.load(Ordering::Relaxed) {
                    let n = payload.len() as u64 + 8;
                    counters.read_resp_bytes.fetch_add(n, Ordering::Relaxed);
                }
                let mut kept = payloads.lock().expect("payload list poisoned");
                if kept.len() < KEEP_PAYLOADS {
                    kept.push(payload.to_vec());
                }
            })
        })
    };
    vec![up, down]
}

/// Copies frames from `from` to `to` until either side closes,
/// handing each frame's payload to `on_frame`.
fn pump(mut from: TcpStream, mut to: TcpStream, mut on_frame: impl FnMut(&[u8])) {
    let mut header = [0u8; 8];
    loop {
        if from.read_exact(&mut header).is_err() {
            break;
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        if len > socialreach_core::remote::frame::MAX_FRAME {
            break;
        }
        let mut payload = vec![0u8; len];
        if from.read_exact(&mut payload).is_err() {
            break;
        }
        on_frame(&payload);
        if to.write_all(&header).is_err() || to.write_all(&payload).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}
