//! Determinism auditing: windowed run digests, divergence diffing, and
//! window re-capture for bisection.
//!
//! Every guarantee the reproduction makes rests on runs being
//! byte-identical given a spec and seed. This module turns that from a
//! one-off test assertion into an observable signal:
//!
//! * [`digest`] — the canonical content-identity primitives (64-bit
//!   FNV-1a over bytes, splitmix64 chaining over words) shared by the
//!   runtime result cache, the serve cache keys, and `SimOutcome`
//!   fingerprints, so the three can never drift apart;
//! * [`DigestProbe`] — a [`SimProbe`] that folds the driver's packet
//!   events into a [`WindowDigest`] checkpoint every N events and
//!   a Merkle-style run root over the checkpoints, captured in a
//!   serializable [`RunDigest`];
//! * [`diff`] — compares two checkpoint streams and names the first
//!   divergent window;
//! * [`WindowCapture`] — re-runs confined to one window: retains the
//!   full `(seq, time, kind, node, packet)` tuple for every event inside
//!   the window so [`first_divergent_event`] can pinpoint exactly where
//!   two runs part ways.
//!
//! Like every probe, [`DigestProbe`] and [`WindowCapture`] observe and
//! never act: they consume no RNG draws and perturb no event ordering,
//! so the instrumented run is byte-identical to the bare one.

use serde::{Deserialize, Serialize};
use tempriv_sim::time::SimTime;

use crate::flight::PacketEventKind;
use crate::probe::{ProbeEvent, SimProbe};

pub mod digest {
    //! Canonical content-identity primitives.
    //!
    //! One digest family for the whole stack: the runtime result cache,
    //! the serve job keys, `SimOutcome::digest`, and the audit
    //! checkpoint chain all build on these two functions. Byte streams
    //! hash with 64-bit FNV-1a ([`fnv64`] / the streaming [`Fnv64`]);
    //! word streams chain with the splitmix64 finalizer ([`chain`]).

    use tempriv_sim::rng::splitmix64;

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// 64-bit FNV-1a hash of `bytes`.
    #[must_use]
    pub fn fnv64(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.update(bytes);
        h.finish()
    }

    /// Streaming 64-bit FNV-1a hasher, for callers that fold many
    /// fields without materializing one buffer.
    #[derive(Debug, Clone)]
    pub struct Fnv64 {
        state: u64,
    }

    impl Default for Fnv64 {
        fn default() -> Self {
            Fnv64::new()
        }
    }

    impl Fnv64 {
        /// A hasher at the FNV-1a offset basis.
        #[must_use]
        pub const fn new() -> Self {
            Fnv64 { state: FNV_OFFSET }
        }

        /// Folds `bytes` into the running hash.
        pub fn update(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.state ^= u64::from(b);
                self.state = self.state.wrapping_mul(FNV_PRIME);
            }
        }

        /// The current hash value.
        #[must_use]
        pub const fn finish(&self) -> u64 {
            self.state
        }
    }

    /// Renders a 64-bit digest as fixed-width lowercase hex — the wire
    /// form used by cache keys, manifests, and the ledger.
    #[must_use]
    pub fn hex64(value: u64) -> String {
        format!("{value:016x}")
    }

    /// Parses the [`hex64`] wire form back to the raw digest.
    #[must_use]
    pub fn parse_hex64(text: &str) -> Option<u64> {
        if text.len() == 16 {
            u64::from_str_radix(text, 16).ok()
        } else {
            None
        }
    }

    /// A 64-bit FNV-1a digest of arbitrary bytes rendered as fixed-width
    /// hex: the one content-identity function shared by the runtime
    /// result cache, the serve job keys, and outcome fingerprints.
    #[must_use]
    pub fn content_digest(bytes: &[u8]) -> String {
        hex64(fnv64(bytes))
    }

    /// Chains one 64-bit word onto a digest state via the splitmix64
    /// finalizer. Order-sensitive: `chain(chain(s, a), b)` differs from
    /// `chain(chain(s, b), a)`.
    #[must_use]
    pub fn chain(state: u64, value: u64) -> u64 {
        splitmix64(state ^ value)
    }
}

/// Default checkpoint window: one digest every 4096 packet events.
pub const DEFAULT_DIGEST_WINDOW: usize = 1 << 12;

/// Chain seed for the Merkle-style run root.
const ROOT_SEED: u64 = 0x7465_6d70_7269_7601; // "tempriv\x01"

/// Chain seed each checkpoint window starts from (combined with the
/// window index, so identical event runs in different windows digest
/// differently).
const WINDOW_SEED: u64 = 0x7465_6d70_7269_7602; // "tempriv\x02"

/// Stable numeric code for a [`PacketEventKind`], folded into digests.
#[must_use]
const fn kind_code(kind: PacketEventKind) -> u64 {
    match kind {
        PacketEventKind::Created => 0,
        PacketEventKind::Enqueued => 1,
        PacketEventKind::Preempted => 2,
        PacketEventKind::Departed => 3,
        PacketEventKind::Dropped => 4,
        PacketEventKind::ArrivedAtSink => 5,
    }
}

/// One checkpoint: the digest of a contiguous window of packet events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowDigest {
    /// Window index (0-based, in stream order).
    pub index: u64,
    /// Global sequence number of the first event in the window.
    pub start_seq: u64,
    /// Events folded into this window (equal to the configured window
    /// size except for a partial terminal window).
    pub events: u64,
    /// The window digest in [`digest::hex64`] wire form.
    pub digest: String,
}

/// A full run's checkpoint stream plus its Merkle-style root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDigest {
    /// Configured checkpoint window size, in events.
    pub window: u64,
    /// Total packet events folded.
    pub events: u64,
    /// Simulation end time in time units (0 when the probe never saw
    /// [`ProbeEvent::RunEnd`]).
    pub end_time: f64,
    /// Checkpoint digests in stream order (the last may be partial).
    pub checkpoints: Vec<WindowDigest>,
    /// The run root: [`fold_root`] over `checkpoints`, in
    /// [`digest::hex64`] wire form.
    pub root: String,
}

/// Recomputes a run root by folding checkpoint digests in order — the
/// prefix-consistency contract: [`RunDigest::root`] always equals
/// `fold_root(&run.checkpoints)`.
#[must_use]
pub fn fold_root(checkpoints: &[WindowDigest]) -> String {
    let mut root = ROOT_SEED;
    for cp in checkpoints {
        let w = digest::parse_hex64(&cp.digest).unwrap_or(0);
        root = digest::chain(root, w);
    }
    digest::hex64(root)
}

/// A [`SimProbe`] that folds the packet event stream into windowed
/// checkpoint digests and a run root.
///
/// Every packet event folds its `(time, seq, kind, node, packet)` tuple into
/// one word (an FNV-prime multiply-xor fold, order-sensitive) which is then
/// splitmix64-chained into the current window state; every `window`
/// events the state is sealed into a [`WindowDigest`] and chained into
/// the running root. [`DigestProbe::finish`] seals the partial terminal
/// window and returns the serializable [`RunDigest`].
#[derive(Debug, Clone)]
pub struct DigestProbe {
    window: usize,
    seq: u64,
    window_start: u64,
    window_state: u64,
    checkpoints: Vec<WindowDigest>,
    root: u64,
    end: Option<SimTime>,
}

impl DigestProbe {
    /// A probe sealing a checkpoint every `window` events.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "digest window must be positive");
        DigestProbe {
            window,
            seq: 0,
            window_start: 0,
            window_state: digest::chain(WINDOW_SEED, 0),
            checkpoints: Vec::new(),
            root: ROOT_SEED,
            end: None,
        }
    }

    /// A probe with the [`DEFAULT_DIGEST_WINDOW`].
    #[must_use]
    pub fn with_default_window() -> Self {
        Self::new(DEFAULT_DIGEST_WINDOW)
    }

    /// Clears all accumulated state so the probe can fold another run.
    pub fn reset(&mut self) {
        *self = DigestProbe::new(self.window);
    }

    /// Total packet events folded so far.
    #[must_use]
    pub const fn events(&self) -> u64 {
        self.seq
    }

    fn seal_window(&mut self) {
        let index = self.checkpoints.len() as u64;
        self.checkpoints.push(WindowDigest {
            index,
            start_seq: self.window_start,
            events: self.seq - self.window_start,
            digest: digest::hex64(self.window_state),
        });
        self.root = digest::chain(self.root, self.window_state);
        self.window_start = self.seq;
        self.window_state = digest::chain(WINDOW_SEED, index + 1);
    }

    /// Seals the partial terminal window (if any) and extracts the
    /// serializable [`RunDigest`]. The probe itself is left untouched,
    /// so `finish` can be called mid-run for an interim snapshot.
    #[must_use]
    pub fn finish(&self) -> RunDigest {
        let mut sealed = self.clone();
        if sealed.seq > sealed.window_start {
            sealed.seal_window();
        }
        RunDigest {
            window: sealed.window as u64,
            events: sealed.seq,
            end_time: sealed.end.map_or(0.0, SimTime::as_units),
            root: digest::hex64(sealed.root),
            checkpoints: sealed.checkpoints,
        }
    }
}

/// FNV-style multiply-xor fold of one tuple field. Order-sensitive and
/// cheap (one multiply per field); the full splitmix64 avalanche is
/// applied once per event by [`digest::chain`], not once per field —
/// the hot-path economy that keeps the probe's overhead in the low
/// single digits.
#[inline]
const fn fold_field(acc: u64, value: u64) -> u64 {
    (acc ^ value).wrapping_mul(0x0000_0100_0000_01b3)
}

impl SimProbe for DigestProbe {
    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        match event {
            ProbeEvent::Packet(event) => {
                let mut word = now.ticks();
                word = fold_field(word, self.seq);
                word = fold_field(word, kind_code(event.kind()));
                word = fold_field(word, event.node() as u64);
                word = fold_field(word, event.packet());
                self.window_state = digest::chain(self.window_state, word);
                self.seq += 1;
                if self.seq - self.window_start == self.window as u64 {
                    self.seal_window();
                }
            }
            ProbeEvent::RunEnd { .. } => self.end = Some(now),
            _ => {}
        }
    }
}

/// The first point where two checkpoint streams part ways.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// Index of the first divergent window.
    pub window: u64,
    /// Global sequence number of the first event in that window.
    pub start_seq: u64,
    /// Events the window spans (the larger of the two sides, so a
    /// bisect re-capture is guaranteed to cover the divergence).
    pub events: u64,
    /// The left stream's window digest (`"-"` when the left stream
    /// ended before this window).
    pub left: String,
    /// The right stream's window digest (`"-"` when the right stream
    /// ended before this window).
    pub right: String,
}

/// Outcome of [`diff`]: either the streams match or the first divergent
/// window is named.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffReport {
    /// `true` when roots, event counts, and every checkpoint agree.
    pub identical: bool,
    /// The first divergent window, when not identical.
    pub divergence: Option<Divergence>,
}

/// Compares two checkpoint streams and reports the first divergent
/// window.
///
/// # Errors
///
/// Returns a message when the streams were recorded with different
/// window sizes — their checkpoints are not comparable.
pub fn diff(left: &RunDigest, right: &RunDigest) -> Result<DiffReport, String> {
    if left.window != right.window {
        return Err(format!(
            "digest streams are incomparable: window {} vs {}",
            left.window, right.window
        ));
    }
    let n = left.checkpoints.len().max(right.checkpoints.len());
    for i in 0..n {
        let l = left.checkpoints.get(i);
        let r = right.checkpoints.get(i);
        let same = match (l, r) {
            (Some(a), Some(b)) => a.digest == b.digest && a.events == b.events,
            _ => false,
        };
        if !same {
            let start_seq = l.or(r).map_or(0, |c| c.start_seq);
            let events = l.map_or(0, |c| c.events).max(r.map_or(0, |c| c.events));
            return Ok(DiffReport {
                identical: false,
                divergence: Some(Divergence {
                    window: i as u64,
                    start_seq,
                    events,
                    left: l.map_or_else(|| "-".to_string(), |c| c.digest.clone()),
                    right: r.map_or_else(|| "-".to_string(), |c| c.digest.clone()),
                }),
            });
        }
    }
    // Every checkpoint agrees; roots must too (prefix consistency).
    debug_assert_eq!(left.root, right.root);
    Ok(DiffReport {
        identical: left.root == right.root && left.events == right.events,
        divergence: None,
    })
}

/// One event retained by a [`WindowCapture`]: the full tuple the digest
/// folds, so two captures can be compared element-wise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapturedEvent {
    /// Global sequence number in the run's packet event stream.
    pub seq: u64,
    /// Event time in simulation time units.
    pub t: f64,
    /// What happened.
    pub kind: PacketEventKind,
    /// Sequential packet id.
    pub packet: u64,
    /// Flow index.
    pub flow: usize,
    /// Node index.
    pub node: usize,
}

/// A [`SimProbe`] retaining the full event tuple for one sequence
/// window `[lo, hi)` — the bisect re-run: after [`diff`] names the
/// first divergent window, re-running each side with a `WindowCapture`
/// over that window and calling [`first_divergent_event`] pinpoints the
/// exact first differing event.
#[derive(Debug, Clone)]
pub struct WindowCapture {
    lo: u64,
    hi: u64,
    seq: u64,
    events: Vec<CapturedEvent>,
}

impl WindowCapture {
    /// Captures events whose global sequence number falls in `[lo, hi)`.
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> Self {
        WindowCapture {
            lo,
            hi,
            seq: 0,
            events: Vec::new(),
        }
    }

    /// The retained events, in stream order.
    #[must_use]
    pub fn events(&self) -> &[CapturedEvent] {
        &self.events
    }

    /// Consumes the capture, yielding the retained events.
    #[must_use]
    pub fn into_events(self) -> Vec<CapturedEvent> {
        self.events
    }
}

impl SimProbe for WindowCapture {
    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        let ProbeEvent::Packet(event) = event else {
            return;
        };
        if self.seq >= self.lo && self.seq < self.hi {
            self.events.push(CapturedEvent {
                seq: self.seq,
                t: now.as_units(),
                kind: event.kind(),
                packet: event.packet(),
                flow: event.flow(),
                node: event.node(),
            });
        }
        self.seq += 1;
    }
}

/// The first element-wise mismatch between two captured windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventDivergence {
    /// Position within the captures where the sides first differ.
    pub position: u64,
    /// The left side's event (`None` when its capture ended first).
    pub left: Option<CapturedEvent>,
    /// The right side's event (`None` when its capture ended first).
    pub right: Option<CapturedEvent>,
}

/// Compares two captured windows element-wise and returns the first
/// mismatch, or `None` when the windows agree exactly.
#[must_use]
pub fn first_divergent_event(
    left: &[CapturedEvent],
    right: &[CapturedEvent],
) -> Option<EventDivergence> {
    let n = left.len().max(right.len());
    for i in 0..n {
        let l = left.get(i);
        let r = right.get(i);
        if l != r {
            return Some(EventDivergence {
                position: i as u64,
                left: l.cloned(),
                right: r.cloned(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::PacketEvent;
    use proptest::prelude::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn ev(packet: u64, node: usize) -> ProbeEvent {
        ProbeEvent::Packet(PacketEvent::Enqueued {
            packet,
            flow: 0,
            node,
        })
    }

    fn fold_events(window: usize, events: &[(f64, u64, usize)]) -> RunDigest {
        let mut probe = DigestProbe::new(window);
        for &(at, packet, node) in events {
            probe.on_event(t(at), ev(packet, node));
        }
        let end = ProbeEvent::RunEnd {
            events: 0,
            peak_fes: 0,
            queue_footprint: 0,
            queue_compactions: 0,
        };
        probe.on_event(t(1000.0), end);
        probe.finish()
    }

    #[test]
    fn identical_streams_share_root_and_checkpoints() {
        let events: Vec<_> = (0..25u64)
            .map(|i| (i as f64, i, (i % 5) as usize))
            .collect();
        let a = fold_events(8, &events);
        let b = fold_events(8, &events);
        assert_eq!(a, b);
        assert_eq!(a.checkpoints.len(), 4, "3 full windows + 1 partial");
        assert_eq!(a.events, 25);
        assert_eq!(a.checkpoints[3].events, 1);
    }

    #[test]
    fn root_folds_from_checkpoints() {
        let events: Vec<_> = (0..100u64).map(|i| (i as f64, i, 1)).collect();
        let run = fold_events(16, &events);
        assert_eq!(run.root, fold_root(&run.checkpoints));
    }

    #[test]
    fn every_field_of_the_tuple_is_digested() {
        let base = fold_events(8, &[(1.0, 7, 3)]);
        assert_ne!(base, fold_events(8, &[(2.0, 7, 3)]), "time");
        assert_ne!(base, fold_events(8, &[(1.0, 8, 3)]), "packet");
        assert_ne!(base, fold_events(8, &[(1.0, 7, 4)]), "node");
        let mut kind = DigestProbe::new(8);
        kind.on_event(
            t(1.0),
            ProbeEvent::Packet(PacketEvent::Departed {
                packet: 7,
                flow: 0,
                node: 3,
            }),
        );
        assert_ne!(base.root, kind.finish().root, "kind");
    }

    #[test]
    fn diff_names_the_exact_first_divergent_window() {
        // 64 events, window 8: sides agree through window 4, then event
        // 37 (window 4 spans seqs 32..40) differs.
        let mut left: Vec<_> = (0..64u64).map(|i| (i as f64, i, 1)).collect();
        let mut right = left.clone();
        right[37].2 = 2;
        left[59].0 = 99.0; // a later divergence must not mask the first
        right[59].0 = 98.0;
        let a = fold_events(8, &left);
        let b = fold_events(8, &right);
        let report = diff(&a, &b).unwrap();
        assert!(!report.identical);
        let d = report.divergence.unwrap();
        assert_eq!(d.window, 4);
        assert_eq!(d.start_seq, 32);
        assert_eq!(d.events, 8);
        assert_ne!(d.left, d.right);
    }

    #[test]
    fn diff_flags_a_truncated_stream() {
        let events: Vec<_> = (0..40u64).map(|i| (i as f64, i, 1)).collect();
        let a = fold_events(8, &events);
        let b = fold_events(8, &events[..24]);
        let report = diff(&a, &b).unwrap();
        let d = report.divergence.unwrap();
        assert_eq!(d.window, 3);
        assert_eq!(d.right, "-");
    }

    #[test]
    fn diff_rejects_mismatched_window_sizes() {
        let events: Vec<_> = (0..10u64).map(|i| (i as f64, i, 1)).collect();
        let a = fold_events(8, &events);
        let b = fold_events(4, &events);
        assert!(diff(&a, &b).unwrap_err().contains("incomparable"));
    }

    #[test]
    fn identical_runs_diff_as_identical() {
        let events: Vec<_> = (0..30u64).map(|i| (i as f64, i, 1)).collect();
        let a = fold_events(8, &events);
        let b = fold_events(8, &events);
        let report = diff(&a, &b).unwrap();
        assert!(report.identical);
        assert!(report.divergence.is_none());
    }

    #[test]
    fn window_capture_retains_only_its_window() {
        let mut cap = WindowCapture::new(8, 16);
        for i in 0..32u64 {
            cap.on_event(t(i as f64), ev(i, 1));
        }
        let events = cap.events();
        assert_eq!(events.len(), 8);
        assert_eq!(events[0].seq, 8);
        assert_eq!(events[7].seq, 15);
        assert_eq!(events[0].packet, 8);
    }

    #[test]
    fn first_divergent_event_pinpoints_the_mismatch() {
        let run = |tweak: bool| {
            let mut cap = WindowCapture::new(0, 16);
            for i in 0..16u64 {
                let node = if tweak && i == 11 { 9 } else { 1 };
                cap.on_event(t(i as f64), ev(i, node));
            }
            cap.into_events()
        };
        let a = run(false);
        let b = run(true);
        let d = first_divergent_event(&a, &b).unwrap();
        assert_eq!(d.position, 11);
        assert_eq!(d.left.unwrap().node, 1);
        assert_eq!(d.right.unwrap().node, 9);
        assert!(first_divergent_event(&a, &a).is_none());
    }

    #[test]
    fn first_divergent_event_handles_length_mismatch() {
        let mut cap = WindowCapture::new(0, 4);
        for i in 0..4u64 {
            cap.on_event(t(i as f64), ev(i, 1));
        }
        let a = cap.into_events();
        let d = first_divergent_event(&a, &a[..3]).unwrap();
        assert_eq!(d.position, 3);
        assert!(d.right.is_none());
    }

    #[test]
    fn reset_restores_a_fresh_probe() {
        let mut probe = DigestProbe::new(4);
        for i in 0..10u64 {
            probe.on_event(t(i as f64), ev(i, 1));
        }
        probe.reset();
        assert_eq!(probe.events(), 0);
        let fresh = probe.finish();
        assert!(fresh.checkpoints.is_empty());
        assert_eq!(fresh.root, fold_root(&[]));
    }

    #[test]
    fn run_digest_round_trips_through_json() {
        let events: Vec<_> = (0..20u64).map(|i| (i as f64, i, 1)).collect();
        let run = fold_events(8, &events);
        let json = serde_json::to_string(&run).unwrap();
        let back: RunDigest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, run);
    }

    #[test]
    fn content_digest_matches_the_legacy_wire_form() {
        // The exact byte-for-byte behavior the runtime cache shipped
        // with: 16 lowercase hex chars of FNV-1a.
        let d = digest::content_digest(b"fig2:config:seed=7");
        assert_eq!(d.len(), 16);
        assert!(d.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(d, digest::content_digest(b"fig2:config:seed=7"));
        assert_ne!(d, digest::content_digest(b"fig2:config:seed=8"));
        assert_eq!(
            digest::parse_hex64(&d),
            Some(digest::fnv64(b"fig2:config:seed=7"))
        );
    }

    #[test]
    fn streaming_fnv_agrees_with_one_shot() {
        let mut h = digest::Fnv64::new();
        h.update(b"tempo");
        h.update(b"ral privacy");
        assert_eq!(h.finish(), digest::fnv64(b"temporal privacy"));
    }

    proptest! {
        /// Prefix consistency: for any event stream and window size,
        /// folding the checkpoint digests reproduces the run root.
        #[test]
        fn window_digests_are_prefix_consistent(
            n in 0usize..200,
            window in 1usize..32,
            seed in 0u64..1000,
        ) {
            let events: Vec<_> = (0..n as u64)
                .map(|i| {
                    let v = tempriv_sim::rng::splitmix64(seed.wrapping_add(i));
                    ((v % 1000) as f64, v % 50, (v % 7) as usize)
                })
                .collect();
            let run = fold_events(window, &events);
            prop_assert_eq!(run.root.clone(), fold_root(&run.checkpoints));
            prop_assert_eq!(run.events, n as u64);
            // Checkpoint bookkeeping: windows tile the stream exactly.
            let total: u64 = run.checkpoints.iter().map(|c| c.events).sum();
            prop_assert_eq!(total, n as u64);
            for (i, cp) in run.checkpoints.iter().enumerate() {
                prop_assert_eq!(cp.index, i as u64);
                prop_assert_eq!(cp.start_seq, (i * window) as u64);
            }
        }

        /// A single perturbed event always changes its window digest and
        /// the run root, and diff finds exactly that window.
        #[test]
        fn any_single_perturbation_is_located(
            n in 1usize..150,
            window in 1usize..16,
            flip in 0usize..150,
        ) {
            let flip = flip % n;
            let base: Vec<_> = (0..n as u64).map(|i| (i as f64, i, 1usize)).collect();
            let mut tweaked = base.clone();
            tweaked[flip].2 = 2;
            let a = fold_events(window, &base);
            let b = fold_events(window, &tweaked);
            prop_assert_ne!(a.root.clone(), b.root.clone());
            let report = diff(&a, &b).unwrap();
            let d = report.divergence.unwrap();
            prop_assert_eq!(d.window, (flip / window) as u64);
        }
    }
}
