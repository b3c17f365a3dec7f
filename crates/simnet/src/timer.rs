//! Delayed-delivery machinery for the modeled network.
//!
//! A single timer thread owns a min-heap of in-flight messages keyed by
//! delivery deadline. Senders compute each message's deadline under the
//! link-serialization rule:
//!
//! ```text
//! start      = max(now, link_busy_until[from][to])
//! busy_until = start + size / bandwidth
//! deliver_at = busy_until + latency
//! ```
//!
//! so back-to-back messages on one directed link queue behind each
//! other (bandwidth contention) while different links proceed in
//! parallel — a reasonable stand-in for per-NIC serialization on a
//! full-bisection fabric like the paper's FDR InfiniBand.

use crate::fabric::Envelope;
use crate::{NetConfig, Payload};
use crossbeam::channel::Sender;
use hamr_trace::{Audit, AuditStage, EventKind, Gauge, Tracer, WORKER_NET};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

struct InFlight<M> {
    deliver_at: Instant,
    seq: u64,
    size: usize,
    env: Envelope<M>,
}

// Order by (deliver_at, seq) so ties keep send order.
impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

struct TimerState<M> {
    heap: BinaryHeap<Reverse<InFlight<M>>>,
    /// busy-until instant per directed link, indexed `from * n + to`.
    link_busy: Vec<Option<Instant>>,
    /// busy-until instant per destination NIC: concurrent senders to
    /// one node share its ingress bandwidth, so skewed shuffles
    /// serialize at the hot receiver like on real hardware.
    ingress_busy: Vec<Option<Instant>>,
    next_seq: u64,
    stopped: bool,
}

struct Shared<M: Payload> {
    state: Mutex<TimerState<M>>,
    cond: Condvar,
    sinks: Vec<Sender<Envelope<M>>>,
    nodes: usize,
    tracer: Tracer,
    inflight_gauge: Gauge,
    audit: Audit,
}

pub(crate) struct TimerThread<M: Payload> {
    shared: Arc<Shared<M>>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl<M: Payload> TimerThread<M> {
    pub(crate) fn spawn(
        sinks: Vec<Sender<Envelope<M>>>,
        tracer: Tracer,
        inflight_gauge: Gauge,
        audit: Audit,
    ) -> Self {
        let nodes = sinks.len();
        let shared = Arc::new(Shared {
            state: Mutex::new(TimerState {
                heap: BinaryHeap::new(),
                link_busy: vec![None; nodes * nodes],
                ingress_busy: vec![None; nodes],
                next_seq: 0,
                stopped: false,
            }),
            cond: Condvar::new(),
            sinks,
            nodes,
            tracer,
            inflight_gauge,
            audit,
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("simnet-timer".into())
            .spawn(move || run_timer(thread_shared))
            .expect("spawn simnet timer thread");
        TimerThread {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Compute the delivery deadline for `env` and enqueue it.
    pub(crate) fn schedule(&self, config: &NetConfig, size: usize, env: Envelope<M>) {
        let now = Instant::now();
        let tx_time = config.transmission_time(size);
        let latency = if env.from == env.to {
            config.loopback_latency
        } else {
            config.latency
        };
        let mut state = self.shared.state.lock();
        if state.stopped {
            return;
        }
        self.shared.inflight_gauge.add(size as i64);
        let link = env.from * self.shared.nodes + env.to;
        // Transmission occupies both the sender's link and the
        // receiver's ingress; start when both are free.
        let mut start = now;
        if let Some(busy) = state.link_busy[link] {
            start = start.max(busy);
        }
        if env.from != env.to {
            if let Some(busy) = state.ingress_busy[env.to] {
                start = start.max(busy);
            }
        }
        let busy_until = start + tx_time;
        state.link_busy[link] = Some(busy_until);
        if env.from != env.to {
            state.ingress_busy[env.to] = Some(busy_until);
        }
        let deliver_at = busy_until + latency;
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(Reverse(InFlight {
            deliver_at,
            seq,
            size,
            env,
        }));
        drop(state);
        self.shared.cond.notify_one();
    }

    /// Stop the timer thread, dropping undelivered messages.
    pub(crate) fn stop(&self) {
        {
            let mut state = self.shared.state.lock();
            if state.stopped {
                return;
            }
            state.stopped = true;
            let dropped: usize = state.heap.drain().map(|Reverse(f)| f.size).sum();
            self.shared.inflight_gauge.sub(dropped as i64);
        }
        self.shared.cond.notify_all();
        if let Some(handle) = self.handle.lock().take() {
            // Never join from the timer thread itself (can't happen: the
            // timer thread holds no Fabric clone), so this is safe.
            let _ = handle.join();
        }
    }
}

fn run_timer<M: Payload>(shared: Arc<Shared<M>>) {
    let mut state = shared.state.lock();
    loop {
        if state.stopped {
            return;
        }
        let now = Instant::now();
        // Deliver everything due.
        while matches!(state.heap.peek(), Some(Reverse(f)) if f.deliver_at <= now) {
            let Reverse(flight) = state.heap.pop().expect("peeked");
            let sink = shared.sinks[flight.env.to].clone();
            // Release the lock while pushing into a possibly-contended
            // channel, then retake it.
            drop(state);
            shared.inflight_gauge.sub(flight.size as i64);
            if shared.audit.enabled() {
                if let Some(b) = flight.env.msg.audit_bin() {
                    shared.audit.record(
                        AuditStage::Deliver,
                        b.edge,
                        flight.env.to as u32,
                        b.records,
                        b.bytes,
                    );
                }
            }
            shared.tracer.emit(
                flight.env.to as u32,
                WORKER_NET,
                EventKind::NetDeliver {
                    from: flight.env.from as u32,
                    bytes: flight.size as u64,
                },
            );
            let _ = sink.send(flight.env);
            state = shared.state.lock();
            if state.stopped {
                return;
            }
        }
        match state.heap.peek() {
            None => {
                shared.cond.wait(&mut state);
            }
            Some(Reverse(next)) => {
                let wait = next.deliver_at.saturating_duration_since(Instant::now());
                if wait.is_zero() {
                    continue;
                }
                self::wait_for(&shared.cond, &mut state, wait);
            }
        }
    }
}

fn wait_for<M>(
    cond: &Condvar,
    state: &mut parking_lot::MutexGuard<'_, TimerState<M>>,
    dur: std::time::Duration,
) {
    cond.wait_for(state, dur);
}
