//! The communicator: where distributed payloads cross ranks.
//!
//! Every cross-rank payload of distributed CALU / `PDGETRF` — TSLU
//! candidate sets, pivot lists, packed panels, `W`/`U₁₂` blocks, pivot-row
//! segments, the `PDGETF2` picket fence — travels as a keyed `f64`-word
//! message through one transport, [`ThreadedComm`]: each rank owns a
//! `std::sync::mpsc` inbox plus a local stash, posts are point-to-point,
//! and [`ThreadedComm::fetch`] takes a payload from the stash or, if it
//! has not arrived yet, blocks until it does. Nothing but messages crosses
//! the rank seam — each rank's task bodies touch only its own local
//! matrix.
//!
//! Both drivers in [`crate::dist_rt`] use it: [`CommKind::Threaded`] runs
//! every rank as an OS thread, whose fetches really block;
//! [`CommKind::InProcess`] drives one DAG for the whole grid through an
//! executor, whose edges order every post before its fetches, so its
//! fetches only ever move an already-delivered payload into the stash.
//!
//! # Invariants
//!
//! * Every key is posted **at most once** to each destination per run;
//!   the DAG (or the per-rank schedule projection) orders every post
//!   before its fetches.
//! * Payloads are `f64` words; `T ↔ f64` round trips are exact for every
//!   [`calu_matrix::Scalar`], so moving data through the communicator
//!   never perturbs bits.
//! * Consumers never mutate a fetched payload (shared `Arc`).
//! * Payloads of steps older than the lookahead window are dead and may
//!   be evicted ([`ThreadedComm::evict_before`]).
//! * Matrix elements and pivot slots never cross ranks except as posted
//!   payloads — there is no other channel.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use calu_matrix::{Error, Result};

/// Mailbox message key: `(class, k, j, rank-or-prow)`. The `class` is one
/// of the `MAIL_*` constants; `k` is the elimination step the payload
/// belongs to (the eviction horizon key); `j` and the final slot
/// disambiguate within a step (leg index, block column, sender).
pub type MailKey = (u8, u32, u32, u32);

/// Butterfly accumulator slots (`j` = slot index, slot `l+1` written by
/// leg `l`; slot 0 is the local election).
pub const MAIL_ACC: u8 = 0;
/// Swap list of step `k` (`who` = the diagonal process row; every rank
/// holds its own copy).
pub const MAIL_PIV: u8 = 1;
/// Post-swap `W` block of step `k`.
pub const MAIL_WBK: u8 = 2;
/// Packed panel rows of one process row (`who` = prow).
pub const MAIL_PAN: u8 = 3;
/// `U₁₂` of block column `j`.
pub const MAIL_U12: u8 = 4;
/// Trailing-swap row segment (`j` = block column, `who` = `i·Pr + sender
/// prow` for pivot item `i`).
pub const MAIL_SWP: u8 = 5;
/// `PDGETF2` per-column pivot candidate (`j` = panel column, `who` =
/// sender prow): 3 words `[|v|, global row (−1 = none), v]`.
pub const MAIL_GCD: u8 = 6;
/// `PDGETF2` winner's trailing row of one panel column (`j` = panel
/// column).
pub const MAIL_GUR: u8 = 7;
/// `PDGETF2` pivot-row exchange segment (`j` = panel column, `who` =
/// sender prow).
pub const MAIL_GRX: u8 = 8;

/// Number of mail classes (`MAIL_ACC..=MAIL_GRX`) — sizes the per-class
/// wait counters.
const MAIL_CLASSES: usize = 9;

/// The [`CommLedger`](calu_obs::CommLedger) term a mail class's traffic is
/// accounted under — the same attribution the senders/receivers use for
/// word counts, so blocked-fetch wait time lands next to the words that
/// explain it.
pub fn mail_class_term(class: u8) -> &'static str {
    match class {
        MAIL_ACC => "tslu_leg",
        MAIL_PIV => "piv_bcast",
        MAIL_WBK => "w_bcast",
        MAIL_PAN => "panel_bcast",
        MAIL_U12 => "u_bcast",
        MAIL_SWP => "swap",
        MAIL_GCD | MAIL_GUR | MAIL_GRX => "panel_getf2",
        _ => unreachable!("unknown mail class {class}"),
    }
}

/// How a distributed run drives the ranks' task bodies. Both modes run the
/// same bodies and send the same messages through a [`ThreadedComm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommKind {
    /// One DAG for the whole grid, driven by the selected executor; each
    /// task runs the body of its rank.
    #[default]
    InProcess,
    /// Every rank an OS thread running its projection of the DAG's
    /// serial schedule; fetches block until the payload arrives.
    Threaded,
}

impl CommKind {
    /// Stable label, used in bench records and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            CommKind::InProcess => "in_process",
            CommKind::Threaded => "threaded",
        }
    }

    /// Parses a CLI flag value (`in_process` | `threaded`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "in_process" | "in-process" | "inprocess" => Some(CommKind::InProcess),
            "threaded" => Some(CommKind::Threaded),
            _ => None,
        }
    }
}

/// How long a blocked [`ThreadedComm::fetch`] waits between cancel-flag
/// checks.
const POLL: Duration = Duration::from_millis(20);
/// A fetch outstanding this long is a schedule bug, not a slow sender.
const STUCK: Duration = Duration::from_secs(60);

type Message = (MailKey, Arc<Vec<f64>>);
type Stash = Mutex<HashMap<MailKey, Arc<Vec<f64>>>>;

struct RankBox {
    /// Point-to-point inbox of this rank.
    rx: Mutex<Receiver<Message>>,
    /// Payloads already received (or self-posted). Fetches never remove —
    /// later tasks of the same rank may re-read — eviction and the final
    /// drain clean up. Under [`CommKind::InProcess`] concurrent executor
    /// tasks of one rank share this lock.
    stash: Stash,
    /// Set by [`ThreadedComm::cancel`]; checked by every blocked fetch.
    canceled: AtomicBool,
    /// Nanoseconds this rank spent blocked in [`ThreadedComm::fetch`], per
    /// mail class. Only a fetch whose payload has not been delivered yet
    /// pays; one that finds it in the stash or the inbox records nothing.
    wait_ns: [AtomicU64; MAIL_CLASSES],
}

/// The transport of the distributed runtime: rank `r` owns inbox `r`,
/// posts are point-to-point `mpsc` messages, and a fetch blocks (draining
/// the inbox into the stash) until its key arrives.
///
/// Every lock site recovers from poisoning with
/// [`PoisonError::into_inner`]: the maps hold plain `Arc`d payloads whose
/// invariants don't depend on a panicking task, so one panic must not
/// cascade into every other task's mailbox access.
pub struct ThreadedComm {
    senders: Vec<Sender<Message>>,
    boxes: Vec<RankBox>,
}

impl std::fmt::Debug for ThreadedComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedComm").field("ranks", &self.boxes.len()).finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ThreadedComm {
    /// A communicator for `ranks` ranks with empty inboxes.
    pub fn new(ranks: usize) -> Self {
        let mut senders = Vec::with_capacity(ranks);
        let mut boxes = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = std::sync::mpsc::channel();
            senders.push(tx);
            boxes.push(RankBox {
                rx: Mutex::new(rx),
                stash: Mutex::new(HashMap::new()),
                canceled: AtomicBool::new(false),
                wait_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            });
        }
        Self { senders, boxes }
    }

    /// Nanoseconds rank `rank` spent blocked in [`ThreadedComm::fetch`],
    /// aggregated per ledger term ([`mail_class_term`]); zero-wait terms
    /// are omitted, terms sorted. The driver folds these into the
    /// [`CommLedger`](calu_obs::CommLedger) after the run.
    pub fn wait_ns(&self, rank: usize) -> Vec<(&'static str, u64)> {
        let mut terms: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for (class, w) in self.boxes[rank].wait_ns.iter().enumerate() {
            let nanos = w.load(Ordering::Relaxed);
            if nanos > 0 {
                *terms.entry(mail_class_term(class as u8)).or_default() += nanos;
            }
        }
        terms.into_iter().collect()
    }

    fn stash_insert(stash: &Stash, (key, v): Message) {
        let prev = lock(stash).insert(key, v);
        debug_assert!(prev.is_none(), "mail slot {key:?} delivered twice");
    }

    /// Posts one payload under `key` from rank `from` to every rank in
    /// `dests` (`from` itself included means "stash locally").
    pub fn post(&self, from: usize, key: MailKey, data: Vec<f64>, dests: &[usize]) {
        let arc = Arc::new(data);
        for &d in dests {
            if d == from {
                Self::stash_insert(&self.boxes[d].stash, (key, arc.clone()));
            } else {
                // The receivers live inside `self`, so a send can only
                // fail after teardown has begun; dropping the payload
                // then is exactly right.
                let _ = self.senders[d].send((key, arc.clone()));
            }
        }
    }

    /// The payload posted to rank `at` under `key`, blocking until it
    /// arrives.
    ///
    /// # Errors
    /// [`Error::Canceled`] once the run is canceled and the payload has
    /// not been delivered.
    ///
    /// # Panics
    /// If the payload is still missing after a minute — a schedule bug.
    pub fn fetch(&self, at: usize, key: MailKey) -> Result<Arc<Vec<f64>>> {
        let rb = &self.boxes[at];
        if let Some(v) = lock(&rb.stash).get(&key) {
            return Ok(v.clone());
        }
        let mut blocked: Option<Instant> = None;
        let res = loop {
            // Hold the inbox while looking in the stash, so a concurrent
            // fetch on the same rank cannot move this payload from one to
            // the other between the two looks.
            let rx = lock(&rb.rx);
            while let Ok(msg) = rx.try_recv() {
                Self::stash_insert(&rb.stash, msg);
            }
            if let Some(v) = lock(&rb.stash).get(&key) {
                break Ok(v.clone());
            }
            if rb.canceled.load(Ordering::Acquire) {
                break Err(Error::Canceled);
            }
            let start = *blocked.get_or_insert_with(Instant::now);
            match rx.recv_timeout(POLL) {
                Ok(msg) => Self::stash_insert(&rb.stash, msg),
                Err(RecvTimeoutError::Timeout) => assert!(
                    start.elapsed() < STUCK,
                    "rank {at}: mail slot {key:?} never delivered — schedule bug"
                ),
                // All senders dropped: only possible during teardown.
                Err(RecvTimeoutError::Disconnected) => break Err(Error::Canceled),
            }
        };
        if let Some(start) = blocked {
            rb.wait_ns[key.0 as usize]
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        res
    }

    /// Drops every stashed payload of steps `<= cutoff` on rank `at` — the
    /// lookahead window proves them dead.
    pub fn evict_before(&self, at: usize, cutoff: u32) {
        lock(&self.boxes[at].stash).retain(|key, _| key.1 > cutoff);
    }

    /// Cancels the run: every blocked and future fetch of a payload not yet
    /// delivered, on any rank, returns [`Error::Canceled`].
    pub fn cancel(&self) {
        for rb in &self.boxes {
            rb.canceled.store(true, Ordering::Release);
        }
    }

    /// Empties every stash and inbox and returns how many payload words
    /// were still posted. Called once by the driver after the run.
    pub fn drain(&self) -> usize {
        let mut words = 0usize;
        for rb in &self.boxes {
            let mut stash = lock(&rb.stash);
            words += stash.values().map(|v| v.len()).sum::<usize>();
            stash.clear();
            let rx = lock(&rb.rx);
            while let Ok((_, v)) = rx.try_recv() {
                words += v.len();
            }
        }
        words
    }

    /// Payload words still stashed after [`ThreadedComm::drain`] — the leak
    /// detector, 0 in the happy path.
    pub fn residual_words(&self) -> usize {
        self.boxes.iter().map(|rb| lock(&rb.stash).values().map(|v| v.len()).sum::<usize>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: MailKey = (MAIL_PIV, 3, 0, 1);

    fn stashed(c: &ThreadedComm, at: usize, key: MailKey) -> usize {
        lock(&c.boxes[at].stash).get(&key).map_or(0, |v| v.len())
    }

    #[test]
    fn routes_point_to_point_and_blocks_until_delivery() {
        let c = ThreadedComm::new(4);
        // Self-post goes straight to the stash.
        c.post(2, KEY, vec![7.0], &[2]);
        assert_eq!(stashed(&c, 2, KEY), 1);
        assert_eq!(stashed(&c, 1, KEY), 0, "not addressed to rank 1");
        // Cross-rank: rank 3 blocks until rank 0 posts.
        std::thread::scope(|s| {
            let c = &c;
            let h = s.spawn(move || c.fetch(3, (MAIL_U12, 0, 1, 0)).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            c.post(0, (MAIL_U12, 0, 1, 0), vec![1.0, 2.0, 3.0], &[1, 3]);
            assert_eq!(*h.join().unwrap(), vec![1.0, 2.0, 3.0]);
        });
        // Rank 1's copy sits in its channel until something looks for it.
        assert_eq!(*c.fetch(1, (MAIL_U12, 0, 1, 0)).unwrap(), vec![1.0, 2.0, 3.0]);
        // Repeated fetches re-read the stash.
        assert_eq!(c.fetch(3, (MAIL_U12, 0, 1, 0)).unwrap().len(), 3);
        assert_eq!(c.drain(), 1 + 3 + 3);
        assert_eq!(c.residual_words(), 0);
    }

    /// One panicking task must not cascade: concurrent executor tasks of
    /// one rank share its stash lock, and a task that dies holding it
    /// leaves the lock usable for every later post, fetch, evict and
    /// drain.
    #[test]
    fn in_process_survives_a_poisoned_lock_without_cascading() {
        let c = ThreadedComm::new(2);
        c.post(0, KEY, vec![4.0], &[0]);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = c.boxes[0].stash.lock().unwrap();
            panic!("task died holding the stash");
        }));
        assert!(poison.is_err());
        assert!(
            c.boxes[0].stash.is_poisoned(),
            "the lock must actually be poisoned for this test to bite"
        );
        // Every op still works on the poisoned lock.
        c.post(1, (MAIL_WBK, 3, 0, 0), vec![1.0, 2.0, 3.0], &[0]);
        assert_eq!(*c.fetch(0, KEY).unwrap(), vec![4.0]);
        assert_eq!(c.fetch(0, (MAIL_WBK, 3, 0, 0)).unwrap().len(), 3);
        c.evict_before(0, 0);
        assert_eq!(c.drain(), 4);
        assert_eq!(c.residual_words(), 0);
    }

    #[test]
    fn cancel_unblocks_fetches_everywhere() {
        let c = ThreadedComm::new(2);
        std::thread::scope(|s| {
            let c = &c;
            let h = s.spawn(move || c.fetch(1, (MAIL_PAN, 9, 0, 0)));
            std::thread::sleep(Duration::from_millis(30));
            c.cancel();
            assert_eq!(h.join().unwrap(), Err(Error::Canceled));
        });
        // New fetches fail fast too; already-delivered payloads still serve.
        c.post(0, KEY, vec![5.0], &[0]);
        assert_eq!(*c.fetch(0, KEY).unwrap(), vec![5.0]);
        assert_eq!(c.fetch(0, (MAIL_PAN, 9, 0, 0)), Err(Error::Canceled));
    }

    #[test]
    fn evicts_old_steps_per_rank() {
        let c = ThreadedComm::new(2);
        c.post(0, (MAIL_ACC, 1, 0, 0), vec![1.0], &[0]);
        c.post(0, (MAIL_ACC, 5, 0, 0), vec![2.0], &[0, 1]);
        c.evict_before(0, 3);
        assert_eq!(stashed(&c, 0, (MAIL_ACC, 1, 0, 0)), 0);
        assert_eq!(stashed(&c, 0, (MAIL_ACC, 5, 0, 0)), 1);
        // Rank 1 evicts independently; its in-flight copy is untouched.
        c.evict_before(1, 3);
        assert_eq!(*c.fetch(1, (MAIL_ACC, 5, 0, 0)).unwrap(), vec![2.0]);
    }

    #[test]
    fn wait_clocks_charge_blocking_fetches_only() {
        let c = ThreadedComm::new(2);
        // Stash hit: no wait recorded.
        c.post(0, KEY, vec![1.0], &[0]);
        assert_eq!(*c.fetch(0, KEY).unwrap(), vec![1.0]);
        // Delivered before the fetch (still in the inbox): no wait either.
        c.post(1, (MAIL_WBK, 0, 0, 0), vec![3.0], &[0]);
        assert_eq!(*c.fetch(0, (MAIL_WBK, 0, 0, 0)).unwrap(), vec![3.0]);
        assert!(c.wait_ns(0).is_empty(), "delivered payloads must not charge the wait clock");
        // Blocked fetch: the wait lands on the key's ledger term.
        std::thread::scope(|s| {
            let c = &c;
            let h = s.spawn(move || c.fetch(1, (MAIL_U12, 0, 2, 0)).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            c.post(0, (MAIL_U12, 0, 2, 0), vec![2.0], &[1]);
            assert_eq!(*h.join().unwrap(), vec![2.0]);
        });
        let waits = c.wait_ns(1);
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].0, "u_bcast");
        assert!(waits[0].1 >= 10_000_000, "~30ms of blocking must register (got {})", waits[0].1);
        assert!(c.wait_ns(0).is_empty(), "only the blocked rank pays");
        // All nine mail classes map onto the ledger vocabulary.
        for class in 0..9u8 {
            assert!(!mail_class_term(class).is_empty());
        }
        assert_eq!(mail_class_term(MAIL_GCD), mail_class_term(MAIL_GRX));
    }

    #[test]
    fn comm_kind_labels_and_parsing_round_trip() {
        for kind in [CommKind::InProcess, CommKind::Threaded] {
            assert_eq!(CommKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(CommKind::default(), CommKind::InProcess);
        assert_eq!(CommKind::parse("in-process"), Some(CommKind::InProcess));
        assert_eq!(CommKind::parse("mpi"), None);
        assert_eq!(CommKind::parse("carrier-pigeon"), None);
    }
}
