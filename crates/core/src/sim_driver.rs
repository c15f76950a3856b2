//! The event-driven network simulation (paper §5).
//!
//! Wires the substrates together: sources create packets on a traffic
//! schedule; every packet is buffered for a random delay at each node on
//! its route (source and forwarders — the sink does not delay), crosses
//! each link in τ time units, and is observed by the adversary tap when it
//! reaches the sink. Finite buffers apply their [`BufferPolicy`]: drops
//! for drop-tail, victim preemption for RCAD.
//!
//! Runs are deterministic: a given [`NetworkSimulation`] and seed always
//! produce the identical [`SimOutcome`].

use tempriv_net::ids::{FlowId, NodeId};
use tempriv_net::link::LinkModel;
use tempriv_net::routing::RoutingTree;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::engine::{Engine, Scheduler};
use tempriv_sim::profile::{NoopPhaseTimer, Phase, PhaseTimer};
use tempriv_sim::rng::{RngFactory, SimRng};
use tempriv_sim::stats::{Histogram, OnlineStats};
use tempriv_sim::time::SimTime;
use tempriv_telemetry::{NullProbe, PacketEvent, ProbeEvent, SimProbe};

use crate::adversary::{AdversaryKnowledge, Observation};
use crate::buffer::BufferPolicy;
use crate::delay::DelayPlan;
use crate::metrics::{FlowOutcome, SimOutcome};
use crate::node_table::NodeTable;
use crate::sharded::CreationSchedule;
use crate::store::PacketStore;

/// RNG stream namespaces (one per stochastic component class).
///
/// `DELAY` and `TRAFFIC` substreams are indexed per node / per flow;
/// `VICTIM`, `LINK`, and `READING` are indexed per *shard* — a serial run
/// is the one-shard case and draws from substream index 0.
pub(crate) mod streams {
    pub const DELAY: u64 = 1;
    pub const TRAFFIC: u64 = 2;
    pub const VICTIM: u64 = 3;
    pub const LINK: u64 = 4;
    pub const READING: u64 = 5;
}

/// How sources create packets: a stochastic model shared by every flow,
/// or explicit per-flow creation schedules (trace-driven workloads, e.g.
/// detections produced by [`tempriv_net::mobility`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Every flow samples inter-arrival gaps from the same model and
    /// creates `packets_per_source` packets.
    Model(TrafficModel),
    /// Flow `i` creates one packet at each instant of `schedules[i]`
    /// (`packets_per_source` is ignored).
    Schedules(Vec<Vec<SimTime>>),
}

/// A fully specified simulation: topology, workload, and privacy
/// mechanism. Construct it, then call [`NetworkSimulation::run`].
///
/// # Examples
///
/// ```
/// use tempriv_core::buffer::BufferPolicy;
/// use tempriv_core::delay::DelayPlan;
/// use tempriv_core::sim_driver::NetworkSimulation;
/// use tempriv_net::convergecast::Convergecast;
/// use tempriv_net::traffic::{TrafficModel, TrafficSampler};
///
/// let layout = Convergecast::paper_figure1();
/// let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
///     .traffic(TrafficModel::periodic(2.0))
///     .packets_per_source(50)
///     .delay_plan(DelayPlan::shared_exponential(30.0))
///     .buffer_policy(BufferPolicy::paper_rcad())
///     .seed(1)
///     .build()
///     .unwrap();
/// let outcome = sim.run();
/// assert_eq!(outcome.total_delivered(), 200); // RCAD never drops
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSimulation {
    pub(crate) routing: RoutingTree,
    pub(crate) sources: Vec<NodeId>,
    pub(crate) workload: Workload,
    pub(crate) packets_per_source: u32,
    pub(crate) delay_plan: DelayPlan,
    pub(crate) buffer_policy: BufferPolicy,
    pub(crate) link: LinkModel,
    pub(crate) seed: u64,
    pub(crate) latency_range: (f64, f64),
}

/// Builder for [`NetworkSimulation`].
#[derive(Debug, Clone)]
pub struct NetworkSimulationBuilder {
    routing: RoutingTree,
    sources: Vec<NodeId>,
    workload: Workload,
    packets_per_source: u32,
    delay_plan: DelayPlan,
    buffer_policy: BufferPolicy,
    link: LinkModel,
    seed: u64,
    latency_range: (f64, f64),
}

impl NetworkSimulationBuilder {
    /// Sets the per-source traffic model (default: periodic, interval 2 —
    /// the paper's fastest rate).
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.workload = Workload::Model(traffic);
        self
    }

    /// Replaces the stochastic workload with explicit per-flow creation
    /// schedules (one `Vec<SimTime>` per flow, in flow order). A schedule
    /// need not be sorted: [`build`](Self::build) sorts each one.
    #[must_use]
    pub fn schedules(mut self, schedules: Vec<Vec<SimTime>>) -> Self {
        self.workload = Workload::Schedules(schedules);
        self
    }

    /// Sets how many packets each source creates (default 1000, as in the
    /// paper).
    #[must_use]
    pub fn packets_per_source(mut self, n: u32) -> Self {
        self.packets_per_source = n;
        self
    }

    /// Sets the delay plan (default: shared exponential, mean 30).
    #[must_use]
    pub fn delay_plan(mut self, plan: DelayPlan) -> Self {
        self.delay_plan = plan;
        self
    }

    /// Sets the buffer policy (default: RCAD with 10 slots).
    #[must_use]
    pub fn buffer_policy(mut self, policy: BufferPolicy) -> Self {
        self.buffer_policy = policy;
        self
    }

    /// Sets the link model (default: lossless, τ = 1).
    #[must_use]
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Sets the master RNG seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the latency-histogram range (default `[0, 2000)` time units;
    /// out-of-range latencies land in overflow and still count toward
    /// the mean, only quantiles saturate).
    ///
    /// # Panics
    ///
    /// Panics (at build) if `lo >= hi`.
    #[must_use]
    pub fn latency_range(mut self, lo: f64, hi: f64) -> Self {
        self.latency_range = (lo, hi);
        self
    }

    /// Validates and builds the simulation. Explicit creation schedules
    /// come out sorted: a packet is created at each listed instant, in
    /// time order, whatever order the instants were listed in.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if a source is unknown or is the sink, no
    /// sources were given, the buffer policy is invalid, or the packet
    /// budget is zero.
    pub fn build(mut self) -> Result<NetworkSimulation, BuildError> {
        if self.sources.is_empty() {
            return Err(BuildError::NoSources);
        }
        for (i, &src) in self.sources.iter().enumerate() {
            if src.index() >= self.routing.len() {
                return Err(BuildError::UnknownSource {
                    flow: FlowId(i as u32),
                    source: src,
                });
            }
            if src == self.routing.sink() {
                return Err(BuildError::SourceIsSink { source: src });
            }
        }
        if let Err(reason) = self.buffer_policy.validate() {
            return Err(BuildError::InvalidBuffer { reason });
        }
        match &mut self.workload {
            Workload::Model(_) => {
                if self.packets_per_source == 0 {
                    return Err(BuildError::NoPackets);
                }
            }
            Workload::Schedules(schedules) => {
                if schedules.len() != self.sources.len() {
                    return Err(BuildError::ScheduleMismatch {
                        flows: self.sources.len(),
                        schedules: schedules.len(),
                    });
                }
                if schedules.iter().all(Vec::is_empty) {
                    return Err(BuildError::NoPackets);
                }
                for schedule in schedules {
                    schedule.sort();
                }
            }
        }
        let range_valid = self.latency_range.0.is_finite()
            && self.latency_range.1.is_finite()
            && self.latency_range.0 < self.latency_range.1;
        if !range_valid {
            return Err(BuildError::InvalidBuffer {
                reason: format!(
                    "latency histogram range [{}, {}) is empty",
                    self.latency_range.0, self.latency_range.1
                ),
            });
        }
        Ok(NetworkSimulation {
            routing: self.routing,
            sources: self.sources,
            workload: self.workload,
            packets_per_source: self.packets_per_source,
            delay_plan: self.delay_plan,
            buffer_policy: self.buffer_policy,
            link: self.link,
            seed: self.seed,
            latency_range: self.latency_range,
        })
    }
}

/// Errors from [`NetworkSimulationBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// No traffic sources were configured.
    NoSources,
    /// A source node is not part of the routing tree.
    UnknownSource {
        /// The flow whose source is unknown.
        flow: FlowId,
        /// The offending node id.
        source: NodeId,
    },
    /// A source coincides with the sink.
    SourceIsSink {
        /// The offending node id.
        source: NodeId,
    },
    /// The buffer policy failed validation.
    InvalidBuffer {
        /// Why.
        reason: String,
    },
    /// `packets_per_source` was zero (or every schedule was empty).
    NoPackets,
    /// Explicit schedules did not line up with the flow list.
    ScheduleMismatch {
        /// Number of flows configured.
        flows: usize,
        /// Number of schedules provided.
        schedules: usize,
    },
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::NoSources => write!(f, "at least one source is required"),
            BuildError::UnknownSource { flow, source } => {
                write!(f, "flow {flow} source {source} is not in the routing tree")
            }
            BuildError::SourceIsSink { source } => {
                write!(f, "source {source} is the sink")
            }
            BuildError::InvalidBuffer { reason } => write!(f, "invalid buffer policy: {reason}"),
            BuildError::NoPackets => write!(f, "packets_per_source must be positive"),
            BuildError::ScheduleMismatch { flows, schedules } => write!(
                f,
                "got {schedules} creation schedule(s) for {flows} flow(s)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A source creates its next packet.
    Create { flow: FlowId },
    /// A packet finishes crossing a link into `node`. The payload is a
    /// [`PacketStore`] slot — 4 bytes through the queue instead of a
    /// by-value packet.
    Arrive { node: NodeId, slot: u32 },
    /// A buffered packet's delay timer fires at `node`.
    Release { node: NodeId, slot: u32 },
}

impl NetworkSimulation {
    /// Starts a builder for the given routing tree and per-flow sources.
    #[must_use]
    pub fn builder(routing: RoutingTree, sources: Vec<NodeId>) -> NetworkSimulationBuilder {
        NetworkSimulationBuilder {
            routing,
            sources,
            workload: Workload::Model(TrafficModel::periodic(2.0)),
            packets_per_source: 1000,
            delay_plan: DelayPlan::shared_exponential(30.0),
            buffer_policy: BufferPolicy::paper_rcad(),
            link: LinkModel::paper_default(),
            seed: 0,
            latency_range: (0.0, 2_000.0),
        }
    }

    /// The routing tree.
    #[must_use]
    pub const fn routing(&self) -> &RoutingTree {
        &self.routing
    }

    /// Source node per flow.
    #[must_use]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The configured delay plan.
    #[must_use]
    pub const fn delay_plan(&self) -> &DelayPlan {
        &self.delay_plan
    }

    /// The configured buffer policy.
    #[must_use]
    pub const fn buffer_policy(&self) -> BufferPolicy {
        self.buffer_policy
    }

    /// What a deployment-aware adversary knows about this network
    /// (Kerckhoff's principle, §2): hop counts, τ, the advertised delay
    /// mean, and buffer sizes. For per-node delay plans the advertised
    /// mean is the average over each flow's path, matching an adversary
    /// that integrates the advertised per-node distributions.
    #[must_use]
    pub fn adversary_knowledge(&self) -> AdversaryKnowledge {
        let flow_hops: Vec<u32> = self
            .sources
            .iter()
            .map(|&s| self.routing.hops(s).expect("validated source"))
            .collect();
        // Mean per-hop delay as the adversary computes it: path average.
        let delay_mean = match &self.delay_plan {
            DelayPlan::Shared(s) => s.mean(),
            DelayPlan::PerNode { .. } => {
                let mut total = 0.0;
                let mut hops = 0u32;
                for &src in &self.sources {
                    let path = self.routing.path(src);
                    // Delaying nodes: all but the sink.
                    for &node in &path[..path.len() - 1] {
                        total += self.delay_plan.for_node(node).mean();
                        hops += 1;
                    }
                }
                if hops == 0 {
                    0.0
                } else {
                    total / f64::from(hops)
                }
            }
        };
        let flow_paths: Vec<Vec<NodeId>> = self
            .sources
            .iter()
            .map(|&src| {
                let mut path = self.routing.path(src);
                path.pop(); // the sink does not delay
                path
            })
            .collect();
        let path_delay_means: Vec<f64> = flow_paths
            .iter()
            .map(|path| self.delay_plan.path_mean_delay(path.iter()))
            .collect();
        AdversaryKnowledge {
            tau: self.link.mean_delay(),
            delay_mean,
            buffer_slots: self.buffer_policy.capacity(),
            flow_hops,
            converging_flows: (0..self.sources.len() as u32).map(FlowId).collect(),
            flow_paths,
            path_delay_means,
        }
    }

    /// The configured workload.
    #[must_use]
    pub const fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Runs the simulation to completion (all packets created and either
    /// delivered, dropped, or lost) and returns the outcome.
    #[must_use]
    pub fn run(&self) -> SimOutcome {
        self.run_probed(&mut NullProbe)
    }

    /// Runs the simulation on the sharded conservative-parallel engine
    /// and returns the outcome.
    ///
    /// The convergecast tree is cut into `shards` partitions at trunk
    /// edges ([`crate::sharded::ShardPlan`]); each shard simulates its
    /// subtrees on a private event queue and store, exchanging packets at
    /// conservative time-window barriers (lookahead = the link delay τ).
    /// `workers` is the number of OS threads driving the shards; the
    /// outcome is byte-identical for every worker count, including 1
    /// (which runs the shards inline with no threads at all).
    ///
    /// Shard-indexed RNG streams make `shards` itself part of the random
    /// configuration: `run_sharded(1, _)` reproduces [`run`] exactly
    /// (only [`SimOutcome::shards`] differs: a serial run leaves it
    /// empty), and higher shard counts reproduce it whenever no
    /// stochastic component draws from a shared global stream (lossless
    /// links, deterministic victim policies — e.g. the paper's
    /// configurations).
    ///
    /// # Panics
    ///
    /// Panics if the link's constant delay is zero (no conservative
    /// lookahead exists) or `shards == 0`.
    ///
    /// [`run`]: NetworkSimulation::run
    #[must_use]
    pub fn run_sharded(&self, shards: u32, workers: usize) -> SimOutcome {
        self.run_sharded_profiled(shards, workers, &mut NoopPhaseTimer)
    }

    /// [`run_sharded`](NetworkSimulation::run_sharded) with the
    /// load-balanced cut ([`crate::sharded::ShardPlan::cut_balanced`]):
    /// subtrees are carved by transit load, so a single giant
    /// sink-subtree (a corner-sink geometric field, the Figure-1 shared
    /// trunk) spreads across every shard instead of collapsing onto one.
    ///
    /// The price is bit-exactness against [`run`]: handoffs can target
    /// interior buffering nodes, where same-instant arrival ties resolve
    /// by queue insertion order the barrier merge cannot replicate.
    /// Worker-count invariance and packet conservation still hold
    /// unconditionally; use this mode for throughput at scale, the exact
    /// cut when cross-checking digests against the serial engine.
    ///
    /// # Panics
    ///
    /// Panics if the link's constant delay is zero or `shards == 0`.
    ///
    /// [`run`]: NetworkSimulation::run
    #[must_use]
    pub fn run_sharded_balanced(&self, shards: u32, workers: usize) -> SimOutcome {
        crate::sharded::run_sharded(
            self,
            shards,
            workers,
            crate::sharded::CutStrategy::Balanced,
            &mut NoopPhaseTimer,
        )
    }

    /// [`run_sharded`](NetworkSimulation::run_sharded) with a coordinator
    /// phase timer attached: wall-time at the window barrier (waiting for
    /// shards and merging handoffs) is attributed to
    /// [`Phase::BarrierWait`], shard execution to [`Phase::EngineLoop`].
    /// Per-event phases inside shards are not attributed — shard drivers
    /// run with [`NoopPhaseTimer`], so the timer never perturbs the run.
    #[must_use]
    pub fn run_sharded_profiled<T: PhaseTimer>(
        &self,
        shards: u32,
        workers: usize,
        timer: &mut T,
    ) -> SimOutcome {
        crate::sharded::run_sharded(
            self,
            shards,
            workers,
            crate::sharded::CutStrategy::Exact,
            timer,
        )
    }

    /// Runs the simulation with a telemetry probe attached.
    ///
    /// The probe observes event boundaries (occupancy transitions,
    /// preemptions, drops, flushes, deliveries) but cannot perturb the
    /// run: probes receive no access to the scheduler or RNGs, so
    /// `run_probed` produces exactly the [`SimOutcome`] that
    /// [`NetworkSimulation::run`] does. The method is generic so the
    /// [`NullProbe`] path monomorphizes to straight-line code with no
    /// probe overhead.
    #[must_use]
    pub fn run_probed<P: SimProbe>(&self, probe: &mut P) -> SimOutcome {
        self.run_profiled(probe, &mut NoopPhaseTimer)
    }

    /// Runs the simulation with a telemetry probe *and* a phase timer.
    ///
    /// The timer is the engine self-profiler hook: the driver calls
    /// [`PhaseTimer::switch`] at phase boundaries (event dispatch per
    /// event kind, future-event scheduling, RCAD victim selection, probe
    /// clusters) and the timer attributes wall-time between switches to
    /// phases. Like probes, timers observe and never act: they see no
    /// scheduler and no RNGs, so the [`SimOutcome`] is byte-identical
    /// with any timer attached. [`NoopPhaseTimer`] monomorphizes every
    /// switch to nothing, keeping the `run`/`run_probed` hot path free
    /// of profiling overhead.
    ///
    /// Every serial run lands here: the sharded runner's one-shard case
    /// ([`crate::sharded`]), with the whole field on one engine run to
    /// completion without windows, so a zero link delay is fine.
    #[must_use]
    pub fn run_profiled<P: SimProbe, T: PhaseTimer>(
        &self,
        probe: &mut P,
        timer: &mut T,
    ) -> SimOutcome {
        crate::sharded::run_serial(self, probe, timer)
    }
}

/// Orders sink observations canonically: by arrival instant, then flow,
/// then packet id. Arrivals on the same quantized tick have no
/// physically observable order (RCAD preemption cascades make such ties
/// common), so both the serial and the sharded runner normalize tie
/// order the same way and their observation logs — and therefore
/// outcome digests — stay comparable.
pub(crate) fn canonicalize(mut observations: Vec<Observation>) -> Vec<Observation> {
    observations.sort_unstable_by_key(|o| (o.arrival, o.flow.0, o.packet.0));
    observations
}

/// Per-flow delivery tables. Only the driver that owns the sink records
/// deliveries, so only it sizes them; other shards keep them empty.
#[derive(Debug, Default)]
pub(crate) struct SinkTables {
    latency: Vec<OnlineStats>,
    latency_hist: Vec<Histogram>,
    delivered: Vec<u64>,
}

impl SinkTables {
    /// One empty row per flow of `sim`.
    fn new(sim: &NetworkSimulation) -> SinkTables {
        let n_flows = sim.sources.len();
        SinkTables {
            latency: vec![OnlineStats::new(); n_flows],
            latency_hist: (0..n_flows)
                .map(|_| Histogram::new(sim.latency_range.0, sim.latency_range.1, 400))
                .collect(),
            delivered: vec![0; n_flows],
        }
    }

    /// Records one delivery of `flow` with end-to-end `latency`.
    #[inline]
    fn record(&mut self, flow: usize, latency: f64) {
        self.latency[flow].record(latency);
        self.latency_hist[flow].record(latency);
        self.delivered[flow] += 1;
    }

    /// One [`FlowOutcome`] per flow; `created(i)` is flow `i`'s creation
    /// count, kept by whichever driver homes its source.
    pub(crate) fn into_flows(
        self,
        sim: &NetworkSimulation,
        created: impl Fn(usize) -> u64,
    ) -> Vec<FlowOutcome> {
        self.latency
            .into_iter()
            .zip(self.latency_hist)
            .zip(self.delivered)
            .enumerate()
            .map(
                |(i, ((latency, latency_histogram), delivered))| FlowOutcome {
                    flow: FlowId(i as u32),
                    source: sim.sources[i],
                    hops: sim.routing.hops(sim.sources[i]).expect("validated"),
                    created: created(i),
                    delivered,
                    latency,
                    latency_histogram,
                },
            )
            .collect()
    }
}

pub(crate) struct Driver<'a, P: SimProbe, T: PhaseTimer> {
    pub(crate) sim: &'a NetworkSimulation,
    pub(crate) probe: &'a mut P,
    pub(crate) timer: &'a mut T,
    /// Cached per-run invariants, hoisted out of the per-event path.
    pub(crate) sink: NodeId,
    pub(crate) capacity: Option<usize>,
    /// Reused flush buffer so threshold-mix batches allocate once per run.
    pub(crate) mix_scratch: Vec<u32>,
    /// The struct-of-arrays data plane every in-flight packet lives in.
    pub(crate) store: PacketStore,
    /// Engine state of every node a packet has touched.
    pub(crate) nodes: NodeTable,
    pub(crate) link_losses: u64,
    /// Packets created so far per flow: also the position of the flow's
    /// next creation in `schedule`.
    pub(crate) seq: Vec<u32>,
    /// Every packet id and creation instant of the run, presampled before
    /// the first event; `on_create` replays it.
    pub(crate) schedule: &'a CreationSchedule,
    pub(crate) observations: Vec<Observation>,
    pub(crate) sink_tables: SinkTables,
    pub(crate) victim_rng: SimRng,
    pub(crate) link_rng: SimRng,
    pub(crate) reading_rng: SimRng,
    /// Sharded mode only: the shard each node belongs to. `None` keeps
    /// every forward local (serial).
    pub(crate) shard_of: Option<&'a [u32]>,
    pub(crate) my_shard: u32,
    /// Cross-shard arrivals emitted this window, in emission order.
    pub(crate) outbox: Vec<crate::sharded::Handoff>,
    /// Lifetime count of cross-shard handoffs this shard emitted.
    pub(crate) handoffs_out: u64,
}

/// Reports one event at `now` to the probe, with its time charged to
/// [`Phase::Probe`]. `event` builds the event only for an active probe;
/// an inactive one ([`NullProbe`], `None`) skips the build, the report
/// and the two phase switches, so it neither costs nor shows a probe
/// segment.
#[inline(always)]
fn observe<P: SimProbe, T: PhaseTimer>(
    probe: &mut P,
    timer: &mut T,
    now: SimTime,
    event: impl FnOnce() -> ProbeEvent,
) {
    if P::ACTIVE && probe.is_active() {
        let prev = timer.switch(Phase::Probe);
        probe.on_event(now, event());
        timer.switch(prev);
    }
}

impl<'a, P: SimProbe, T: PhaseTimer> Driver<'a, P, T> {
    /// Driver state for one simulation run: the whole run when `shard`
    /// is `None`, else shard `idx` of the cut `shard_of`. Shard-indexed
    /// RNG streams draw from substream `idx` (the serial run is index 0).
    /// Creations replay `schedule`; the per-flow sink tables are sized
    /// only if this driver owns the sink.
    pub(crate) fn new(
        sim: &'a NetworkSimulation,
        schedule: &'a CreationSchedule,
        probe: &'a mut P,
        timer: &'a mut T,
        shard: Option<(u32, &'a [u32])>,
    ) -> Self {
        let factory = RngFactory::new(sim.seed);
        let sink = sim.routing.sink();
        let my_shard = shard.map_or(0, |(idx, _)| idx);
        let shard_of = shard.map(|(_, shard_of)| shard_of);
        let owns_sink = shard_of.is_none_or(|of| of[sink.index()] == my_shard);
        Driver {
            sim,
            probe,
            timer,
            sink,
            capacity: sim.buffer_policy.capacity(),
            mix_scratch: Vec::new(),
            store: PacketStore::new(),
            nodes: NodeTable::new(sim),
            link_losses: 0,
            seq: vec![0; sim.sources.len()],
            schedule,
            observations: Vec::new(),
            sink_tables: if owns_sink {
                SinkTables::new(sim)
            } else {
                SinkTables::default()
            },
            victim_rng: factory.substream(streams::VICTIM, u64::from(my_shard)),
            link_rng: factory.substream(streams::LINK, u64::from(my_shard)),
            reading_rng: factory.substream(streams::READING, u64::from(my_shard)),
            shard_of,
            my_shard,
            outbox: Vec::new(),
            handoffs_out: 0,
        }
    }

    /// Total RNG draws across every stream this driver owns (the traffic
    /// streams belong to the schedule).
    pub(crate) fn rng_draws(&self) -> u64 {
        self.nodes.rng_draws()
            + self.victim_rng.draws()
            + self.link_rng.draws()
            + self.reading_rng.draws()
    }

    /// Accepts a cross-shard handoff: materializes the packet in this
    /// shard's store and schedules its arrival. Called between windows,
    /// never while the engine is running.
    pub(crate) fn accept(&mut self, engine: &mut Engine<Ev>, h: &crate::sharded::Handoff) {
        // The reading rides only for privacy sealing at creation; it is
        // unobservable downstream, so handoffs do not ship it.
        let slot = self.store.alloc(h.pid, h.flow, h.origin, h.created_at, 0.0);
        self.store.set_hop_count(slot, h.hop_count);
        let n = self.nodes.touch(self.sim, h.node);
        self.nodes[n].rx += 1;
        engine
            .schedule_at(h.at, Ev::Arrive { node: h.node, slot })
            .expect("handoffs arrive at or after the window barrier");
    }

    #[inline]
    pub(crate) fn handle(&mut self, sched: &mut Scheduler<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Create { flow } => {
                self.timer.switch(Phase::Create);
                self.on_create(sched, flow);
            }
            Ev::Arrive { node, slot } => {
                self.timer.switch(Phase::Arrive);
                self.process_at(sched, node, slot);
            }
            Ev::Release { node, slot } => {
                self.timer.switch(Phase::Release);
                self.on_release(sched, node, slot);
            }
        }
        // Time between here and the next dispatch is the engine's own
        // pop/peek/heap work.
        self.timer.switch(Phase::EngineLoop);
    }

    fn on_create(&mut self, sched: &mut Scheduler<'_, Ev>, flow: FlowId) {
        let i = flow.index();
        let source = self.sim.sources[i];
        let (id, next_at) = self.schedule.creation(i, self.seq[i]);
        self.seq[i] += 1;
        debug_assert_eq!(
            self.schedule.instant(id),
            sched.now(),
            "creations replay the schedule"
        );
        if let Some(next_at) = next_at {
            let prev = self.timer.switch(Phase::QueuePush);
            sched
                .schedule_at(next_at, Ev::Create { flow })
                .expect("creation schedules are time-ordered");
            self.timer.switch(prev);
        }
        let reading = self.reading_rng.sample_uniform(0.0, 100.0);
        let slot = self.store.alloc(id, flow, source, sched.now(), reading);
        observe(self.probe, self.timer, sched.now(), || {
            ProbeEvent::Packet(PacketEvent::Created {
                packet: id.0,
                flow: i,
                node: source.index(),
            })
        });
        self.process_at(sched, source, slot);
    }

    /// A packet is now present at `node`: deliver, forward, or buffer.
    #[inline]
    fn process_at(&mut self, sched: &mut Scheduler<'_, Ev>, node: NodeId, slot: u32) {
        if node == self.sink {
            self.deliver(sched.now(), slot);
            return;
        }
        let n = self.nodes.touch(self.sim, node);
        // Threshold mixes batch instead of delaying: the delay plan is
        // ignored at mix nodes.
        if let BufferPolicy::ThresholdMix { threshold } = self.sim.buffer_policy {
            observe(self.probe, self.timer, sched.now(), || {
                ProbeEvent::Packet(PacketEvent::Enqueued {
                    packet: self.store.pid(slot).0,
                    flow: self.store.flow(slot).index(),
                    node: node.index(),
                })
            });
            self.store.park(slot, sched.now(), SimTime::MAX, None);
            let state = &mut self.nodes[n];
            state.buffer.insert(&self.store, slot);
            let depth = state.buffer.len() as u64;
            state.occupancy.transition(sched.now(), depth);
            observe(self.probe, self.timer, sched.now(), || {
                ProbeEvent::Occupancy {
                    node: node.index(),
                    depth,
                }
            });
            if state.buffer.len() >= threshold {
                state.flushes += 1;
                let batch = state.buffer.len() as u64;
                observe(self.probe, self.timer, sched.now(), || ProbeEvent::Flush {
                    node: node.index(),
                    batch,
                });
                let mut scratch = std::mem::take(&mut self.mix_scratch);
                state.buffer.drain_slots_into(&mut scratch);
                for batched in scratch.drain(..) {
                    self.forward(sched, n, node, batched);
                }
                self.mix_scratch = scratch;
                self.nodes[n].occupancy.transition(sched.now(), 0);
                observe(self.probe, self.timer, sched.now(), || {
                    ProbeEvent::Occupancy {
                        node: node.index(),
                        depth: 0,
                    }
                });
            }
            return;
        }
        let state = &mut self.nodes[n];
        let strategy = state.strategy;
        if strategy.is_none() {
            self.forward(sched, n, node, slot);
            return;
        }
        let delay = strategy.sample(&mut state.rng);
        // Full buffer? Apply the policy before inserting.
        if let Some(cap) = self.capacity {
            if state.buffer.len() >= cap {
                match self.sim.buffer_policy {
                    BufferPolicy::DropTail { .. } => {
                        state.drops += 1;
                        observe(self.probe, self.timer, sched.now(), || {
                            ProbeEvent::Packet(PacketEvent::Dropped {
                                packet: self.store.pid(slot).0,
                                flow: self.store.flow(slot).index(),
                                node: node.index(),
                            })
                        });
                        self.store.release(slot);
                        return;
                    }
                    BufferPolicy::Rcad { victim, .. } => {
                        let prev = self.timer.switch(Phase::VictimSelect);
                        let victim_id = state
                            .buffer
                            .select_victim(victim, &mut self.victim_rng)
                            .expect("full buffer has a victim");
                        let victim_slot = state
                            .buffer
                            .remove(&self.store, victim_id)
                            .expect("victim is buffered");
                        let timer = self
                            .store
                            .timer(victim_slot)
                            .expect("timed entries outside mixes");
                        let cancelled = sched.cancel(timer);
                        debug_assert!(cancelled, "victim timer must be pending");
                        self.timer.switch(prev);
                        state.preemptions += 1;
                        observe(self.probe, self.timer, sched.now(), || {
                            ProbeEvent::Packet(PacketEvent::Preempted {
                                packet: victim_id.0,
                                flow: self.store.flow(victim_slot).index(),
                                node: node.index(),
                                victim_policy: victim.name(),
                            })
                        });
                        let depth = state.buffer.len() as u64;
                        state.occupancy.transition(sched.now(), depth);
                        observe(self.probe, self.timer, sched.now(), || {
                            ProbeEvent::Occupancy {
                                node: node.index(),
                                depth,
                            }
                        });
                        // "Transmit it immediately rather than drop packets."
                        self.forward(sched, n, node, victim_slot);
                    }
                    _ => unreachable!("mix and unlimited never hit the full-buffer path"),
                }
            }
        }
        let release_at = sched.now() + delay;
        let prev = self.timer.switch(Phase::QueuePush);
        let timer = sched.schedule_in(delay, Ev::Release { node, slot });
        self.timer.switch(prev);
        observe(self.probe, self.timer, sched.now(), || {
            ProbeEvent::Packet(PacketEvent::Enqueued {
                packet: self.store.pid(slot).0,
                flow: self.store.flow(slot).index(),
                node: node.index(),
            })
        });
        self.store.park(slot, sched.now(), release_at, Some(timer));
        let state = &mut self.nodes[n];
        state.buffer.insert(&self.store, slot);
        let depth = state.buffer.len() as u64;
        state.occupancy.transition(sched.now(), depth);
        observe(self.probe, self.timer, sched.now(), || {
            ProbeEvent::Occupancy {
                node: node.index(),
                depth,
            }
        });
    }

    #[inline]
    fn on_release(&mut self, sched: &mut Scheduler<'_, Ev>, node: NodeId, slot: u32) {
        let n = self.nodes.touch(self.sim, node);
        let state = &mut self.nodes[n];
        let pid = self.store.pid(slot);
        let removed = state
            .buffer
            .remove(&self.store, pid)
            .expect("release timers fire only for buffered packets");
        debug_assert_eq!(removed, slot, "buffer entry must map back to its slot");
        let depth = state.buffer.len() as u64;
        state.occupancy.transition(sched.now(), depth);
        observe(self.probe, self.timer, sched.now(), || {
            ProbeEvent::Occupancy {
                node: node.index(),
                depth,
            }
        });
        self.forward(sched, n, node, slot);
    }

    /// Transmits `slot` from `node`, whose record is `self.nodes[n]`.
    #[inline]
    fn forward(&mut self, sched: &mut Scheduler<'_, Ev>, n: usize, node: NodeId, slot: u32) {
        observe(self.probe, self.timer, sched.now(), || {
            ProbeEvent::Packet(PacketEvent::Departed {
                packet: self.store.pid(slot).0,
                flow: self.store.flow(slot).index(),
                node: node.index(),
            })
        });
        self.store.record_hop(slot);
        let next = self
            .sim
            .routing
            .next_hop(node)
            .expect("non-sink nodes have a next hop");
        self.nodes[n].tx += 1;
        match self.sim.link.transmit(&mut self.link_rng) {
            Some(delay) => {
                if let Some(shard_of) = self.shard_of {
                    if shard_of[next.index()] != self.my_shard {
                        // Crossing a shard boundary: ship the packet's
                        // columns; the receiving shard re-materializes it
                        // and counts the reception.
                        self.handoffs_out += 1;
                        self.outbox.push(crate::sharded::Handoff {
                            at: sched.now() + delay,
                            node: next,
                            pid: self.store.pid(slot),
                            flow: self.store.flow(slot),
                            origin: self.store.origin(slot),
                            hop_count: self.store.hop_count(slot),
                            created_at: self.store.created_at(slot),
                        });
                        self.store.release(slot);
                        return;
                    }
                }
                let m = self.nodes.touch(self.sim, next);
                self.nodes[m].rx += 1;
                let prev = self.timer.switch(Phase::QueuePush);
                sched.schedule_in(delay, Ev::Arrive { node: next, slot });
                self.timer.switch(prev);
            }
            None => {
                self.link_losses += 1;
                self.store.release(slot);
            }
        }
    }

    #[inline]
    fn deliver(&mut self, now: SimTime, slot: u32) {
        let flow = self.store.flow(slot);
        let pid = self.store.pid(slot);
        let created = self.store.created_at(slot);
        let latency = (now - created).as_units();
        self.sink_tables.record(flow.index(), latency);
        observe(self.probe, self.timer, now, || {
            ProbeEvent::Packet(PacketEvent::ArrivedAtSink {
                packet: pid.0,
                flow: flow.index(),
                node: self.sim.routing.sink().index(),
                created_at: created,
            })
        });
        self.observations.push(Observation {
            arrival: now,
            origin: self.store.origin(slot),
            hop_count: self.store.hop_count(slot),
            flow,
            packet: pid,
        });
        self.store.release(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::VictimPolicy;
    use tempriv_net::convergecast::Convergecast;
    use tempriv_net::topology::Topology;

    fn line_sim(hops: u32) -> NetworkSimulationBuilder {
        let topo = Topology::line(hops as usize + 1);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        NetworkSimulation::builder(routing, vec![NodeId(hops)])
    }

    #[test]
    fn no_delay_latency_is_exactly_hops_tau() {
        let sim = line_sim(15)
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(100)
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 100);
        let lat = &out.flows[0].latency;
        assert!((lat.mean() - 15.0).abs() < 1e-9, "latency {}", lat.mean());
        assert!(lat.population_variance() < 1e-12);
        assert_eq!(out.total_preemptions(), 0);
    }

    #[test]
    fn unlimited_buffer_latency_matches_h_tau_plus_delay() {
        let sim = line_sim(15)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(2000)
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 2000);
        // Expected: 15 * (1 + 30) = 465, sd of mean ~ sqrt(15*900/2000) ~ 2.6.
        let mean = out.flows[0].latency.mean();
        assert!((mean - 465.0).abs() < 10.0, "latency {mean}");
        assert_eq!(out.total_preemptions(), 0);
        assert_eq!(out.total_drops(), 0);
    }

    #[test]
    fn hop_count_in_observations_matches_route() {
        let sim = line_sim(7).packets_per_source(10).build().unwrap();
        let out = sim.run();
        for obs in &out.observations {
            assert_eq!(obs.hop_count, 7);
            assert_eq!(obs.origin, NodeId(7));
        }
    }

    #[test]
    fn rcad_never_drops() {
        let sim = line_sim(10)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(500)
            .buffer_policy(BufferPolicy::Rcad {
                capacity: 5,
                victim: VictimPolicy::ShortestRemaining,
            })
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 500);
        assert!(out.total_preemptions() > 0, "rho = 15 >> 5 must preempt");
        assert_eq!(out.total_drops(), 0);
    }

    #[test]
    fn drop_tail_loses_packets_at_saturation() {
        let sim = line_sim(10)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(500)
            .buffer_policy(BufferPolicy::DropTail { capacity: 5 })
            .build()
            .unwrap();
        let out = sim.run();
        assert!(out.total_drops() > 0);
        assert!(out.total_delivered() < 500);
        assert_eq!(
            out.total_delivered() + out.total_drops(),
            500,
            "every packet is delivered or dropped"
        );
    }

    #[test]
    fn outcome_stores_only_the_nodes_a_packet_reached() {
        use crate::metrics::NodeReport;
        use std::borrow::Cow;
        // An 11-node line whose one source sits mid-line: nodes 6..=10
        // lie beyond it and never see a packet.
        let topo = Topology::line(11);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        let out = NetworkSimulation::builder(routing, vec![NodeId(5)])
            .packets_per_source(40)
            .build()
            .unwrap()
            .run();
        assert_eq!(out.field_nodes, 11);
        let stored: Vec<NodeId> = out.reached.iter().map(|n| n.node).collect();
        assert_eq!(stored, (0..=5).map(NodeId).collect::<Vec<_>>());
        for id in (6..11).map(NodeId) {
            let report = out.node(id);
            assert!(matches!(report, Cow::Owned(_)), "node {id} is not stored");
            assert_eq!(*report, NodeReport::idle(id, out.end_time));
            assert_eq!(report.occupancy_pmf, vec![(0, 1.0)]);
        }
        assert_eq!(*out.node(NodeId(5)), out.reached[5]);

        let all: Vec<NodeReport> = out.field_reports().map(Cow::into_owned).collect();
        assert_eq!(all.len(), 11);
        assert!(all.iter().enumerate().all(|(i, n)| n.node.index() == i));
        assert_eq!(all[..6], out.reached[..]);
        // Storing the idle reports too hashes the same bytes.
        let mut dense = out.clone();
        dense.reached = all;
        assert_eq!(dense.digest(), out.digest());

        let json = serde_json::to_string(&out).unwrap();
        let back: SimOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
        assert_eq!(back.digest(), out.digest());
    }

    #[test]
    fn rcad_caps_occupancy_at_capacity() {
        let sim = line_sim(5)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(300)
            .buffer_policy(BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::ShortestRemaining,
            })
            .build()
            .unwrap();
        let out = sim.run();
        for node in out.field_reports() {
            assert!(
                node.peak_occupancy <= 10,
                "node {} peak {}",
                node.node,
                node.peak_occupancy
            );
        }
    }

    #[test]
    fn rcad_reduces_latency_under_saturation() {
        let base = line_sim(15)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(1000);
        let unlimited = base
            .clone()
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap()
            .run();
        let rcad = base
            .buffer_policy(BufferPolicy::paper_rcad())
            .build()
            .unwrap()
            .run();
        let lu = unlimited.flows[0].latency.mean();
        let lr = rcad.flows[0].latency.mean();
        assert!(
            lr < 0.8 * lu,
            "RCAD latency {lr} should sit well below unlimited {lu}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let layout = Convergecast::paper_figure1();
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .traffic(TrafficModel::periodic(4.0))
                .packets_per_source(200)
                .seed(42)
                .build()
                .unwrap()
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a, b);
    }

    #[test]
    fn profiler_is_invisible_to_the_simulation() {
        // The phase timer must not perturb the run: identical outcome,
        // identical RNG draw counts, yet a non-trivial phase breakdown.
        let build = || {
            let layout = Convergecast::paper_figure1();
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .traffic(TrafficModel::periodic(2.0))
                .packets_per_source(150)
                .seed(7)
                .build()
                .unwrap()
        };
        let plain = build().run();
        let mut profiler = tempriv_telemetry::PhaseProfiler::with_batch(8);
        let profiled = build().run_profiled(&mut NullProbe, &mut profiler);
        assert_eq!(plain, profiled);
        assert_eq!(plain.rng_draws, profiled.rng_draws);
        let breakdown = profiler.finish();
        assert!(breakdown.total_secs >= 0.0);
        let dispatched: u64 = breakdown
            .phases
            .iter()
            .filter(|p| p.phase != "engine_loop")
            .map(|p| p.count)
            .sum();
        assert!(dispatched > 0, "switch sites must have fired");
    }

    #[test]
    fn inactive_probes_switch_no_probe_phase() {
        // NullProbe and an empty Option skip the probe hook and its phase
        // switch; an active probe still gets its segments. None of it
        // moves the outcome.
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(150)
            .buffer_policy(BufferPolicy::paper_rcad())
            .seed(7)
            .build()
            .unwrap();
        let plain = sim.run();
        let probe_segments = |breakdown: &tempriv_telemetry::PhaseBreakdown| -> u64 {
            breakdown
                .phases
                .iter()
                .filter(|p| p.phase == Phase::Probe.name())
                .map(|p| p.count)
                .sum()
        };
        let mut profiler = tempriv_telemetry::PhaseProfiler::with_batch(8);
        let null = sim.run_profiled(&mut NullProbe, &mut profiler);
        assert_eq!(probe_segments(&profiler.finish()), 0);
        let mut profiler = tempriv_telemetry::PhaseProfiler::with_batch(8);
        let none = sim.run_profiled(
            &mut None::<tempriv_telemetry::RecordingProbe>,
            &mut profiler,
        );
        assert_eq!(probe_segments(&profiler.finish()), 0);
        let mut profiler = tempriv_telemetry::PhaseProfiler::with_batch(8);
        let mut recording = Some(tempriv_telemetry::RecordingProbe::new(sim.routing().len()));
        let recorded = sim.run_profiled(&mut recording, &mut profiler);
        assert!(probe_segments(&profiler.finish()) > 0);
        for out in [&null, &none, &recorded] {
            assert_eq!(out.digest(), plain.digest());
            assert_eq!(out.rng_draws, plain.rng_draws);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let layout = Convergecast::paper_figure1();
        let mk = |seed| {
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .packets_per_source(100)
                .seed(seed)
                .build()
                .unwrap()
                .run()
        };
        assert_ne!(mk(1).observations, mk(2).observations);
    }

    #[test]
    fn figure1_all_flows_deliver_everything_under_rcad() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(300)
            .build()
            .unwrap();
        let out = sim.run();
        for f in &out.flows {
            assert_eq!(f.delivered, 300, "flow {}", f.flow);
            assert_eq!(f.delivery_ratio(), 1.0);
        }
        // Trunk nodes (ids 1..=8) carry 4x traffic: they must preempt.
        let trunk_preempt: u64 = (1..=8).map(|i| out.node(NodeId(i)).preemptions).sum();
        assert!(trunk_preempt > 0);
    }

    #[test]
    fn lossy_links_lose_packets() {
        let sim = line_sim(5)
            .link(LinkModel::paper_default().with_loss(0.05))
            .packets_per_source(500)
            .build()
            .unwrap();
        let out = sim.run();
        assert!(out.link_losses > 0);
        assert_eq!(out.total_delivered() + out.link_losses, 500);
    }

    #[test]
    fn adversary_knowledge_reflects_configuration() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .build()
            .unwrap();
        let k = sim.adversary_knowledge();
        assert_eq!(k.flow_hops, vec![15, 22, 9, 11]);
        assert_eq!(k.tau, 1.0);
        assert_eq!(k.delay_mean, 30.0);
        assert_eq!(k.buffer_slots, Some(10));
        assert_eq!(k.converging_flows.len(), 4);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let topo = Topology::line(3);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![]).build(),
            Err(BuildError::NoSources)
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![NodeId(0)]).build(),
            Err(BuildError::SourceIsSink { .. })
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![NodeId(9)]).build(),
            Err(BuildError::UnknownSource { .. })
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing.clone(), vec![NodeId(2)])
                .packets_per_source(0)
                .build(),
            Err(BuildError::NoPackets)
        ));
        assert!(matches!(
            NetworkSimulation::builder(routing, vec![NodeId(2)])
                .buffer_policy(BufferPolicy::DropTail { capacity: 0 })
                .build(),
            Err(BuildError::InvalidBuffer { .. })
        ));
    }

    #[test]
    fn explicit_schedules_drive_creation_times() {
        let topo = Topology::line(4);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        let schedule = vec![
            SimTime::from_units(5.0),
            SimTime::from_units(9.0),
            SimTime::from_units(50.0),
        ];
        let sim = NetworkSimulation::builder(routing, vec![NodeId(3)])
            .schedules(vec![schedule.clone()])
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.flows[0].created, 3);
        assert_eq!(out.total_delivered(), 3);
        let created: Vec<SimTime> = out.truth.iter().map(|t| t.created_at).collect();
        assert_eq!(created, schedule);
        // With no delay, arrivals follow creations by exactly h*tau = 3.
        for obs in &out.observations {
            let truth = out.creation_time(obs.packet);
            assert_eq!(
                obs.arrival - truth,
                tempriv_sim::time::SimDuration::from_units(3.0)
            );
        }
    }

    #[test]
    fn unsorted_schedules_run_as_their_sorted_copy() {
        // Flow 0 lists its instants out of order, with a tie of its own;
        // flow 1 ties with it at 5 and 9.
        let layout = Convergecast::builder()
            .trunk_hops(2)
            .flows([4, 6])
            .build()
            .unwrap();
        let at = |units: &[f64]| -> Vec<SimTime> {
            units.iter().map(|&u| SimTime::from_units(u)).collect()
        };
        let build = |schedules: Vec<Vec<SimTime>>| {
            NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
                .schedules(schedules)
                .buffer_policy(BufferPolicy::Rcad {
                    capacity: 2,
                    victim: VictimPolicy::ShortestRemaining,
                })
                .seed(3)
                .build()
                .unwrap()
        };
        let unsorted = build(vec![
            at(&[9.0, 5.0, 50.0, 5.0, 20.0]),
            at(&[5.0, 9.0, 30.0, 40.0]),
        ]);
        let sorted = build(vec![
            at(&[5.0, 5.0, 9.0, 20.0, 50.0]),
            at(&[5.0, 9.0, 30.0, 40.0]),
        ]);
        assert_eq!(unsorted.workload(), sorted.workload());
        let serial = unsorted.run();
        assert_eq!(serial, unsorted.run_sharded(1, 1));
        assert_eq!(serial, sorted.run());
        assert_eq!(serial.total_delivered(), 9);
        let created: Vec<(u32, f64)> = serial
            .truth
            .iter()
            .map(|t| (t.flow.0, t.created_at.as_units()))
            .collect();
        assert_eq!(
            created,
            [
                (0, 5.0),
                (0, 5.0),
                (1, 5.0),
                (0, 9.0),
                (1, 9.0),
                (0, 20.0),
                (1, 30.0),
                (1, 40.0),
                (0, 50.0)
            ]
        );
    }

    #[test]
    fn schedule_mismatch_rejected() {
        let topo = Topology::line(3);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        let err = NetworkSimulation::builder(routing.clone(), vec![NodeId(2)])
            .schedules(vec![])
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::ScheduleMismatch { .. }));
        let err = NetworkSimulation::builder(routing, vec![NodeId(2)])
            .schedules(vec![vec![]])
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::NoPackets));
    }

    #[test]
    fn threshold_mix_batches_and_strands() {
        let sim = line_sim(3)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(100)
            .buffer_policy(BufferPolicy::ThresholdMix { threshold: 8 })
            .build()
            .unwrap();
        let out = sim.run();
        // 100 packets in batches of 8: 12 full batches per node; the
        // remaining 4 strand at the first mix node.
        assert!(out.total_flushes() > 0);
        assert_eq!(
            out.total_delivered() + out.total_stranded(),
            100,
            "mix conservation"
        );
        assert!(out.total_stranded() > 0 && out.total_stranded() < 8);
        assert_eq!(out.total_preemptions(), 0);
        assert_eq!(out.total_drops(), 0);
        // Peak occupancy equals the threshold at flush instants.
        assert!(out.field_reports().any(|n| n.peak_occupancy == 8));
        assert!(out.field_reports().all(|n| n.peak_occupancy <= 8));
    }

    #[test]
    fn threshold_one_mix_is_immediate_forwarding() {
        let sim = line_sim(5)
            .traffic(TrafficModel::periodic(3.0))
            .packets_per_source(50)
            .buffer_policy(BufferPolicy::ThresholdMix { threshold: 1 })
            .build()
            .unwrap();
        let out = sim.run();
        assert_eq!(out.total_delivered(), 50);
        assert_eq!(out.total_stranded(), 0);
        // Latency is exactly h*tau: every batch flushes instantly.
        assert!((out.flows[0].latency.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn mix_batch_members_arrive_together() {
        let sim = line_sim(1)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(40)
            .buffer_policy(BufferPolicy::ThresholdMix { threshold: 5 })
            .build()
            .unwrap();
        let out = sim.run();
        // Arrivals come in bursts of 5 sharing one arrival instant.
        let mut by_time: std::collections::BTreeMap<_, usize> = Default::default();
        for obs in &out.observations {
            *by_time.entry(obs.arrival).or_default() += 1;
        }
        assert!(by_time.values().all(|&c| c == 5), "{by_time:?}");
    }

    #[test]
    fn energy_accounting_counts_every_hop() {
        use tempriv_net::energy::EnergyModel;
        let sim = line_sim(5)
            .traffic(TrafficModel::periodic(4.0))
            .packets_per_source(100)
            .delay_plan(DelayPlan::shared_exponential(10.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap();
        let out = sim.run();
        // 100 packets x 5 hops: 500 transmissions; the sink receives 100
        // of the 500 receptions.
        let tx: u64 = out.field_reports().map(|n| n.transmissions).sum();
        let rx: u64 = out.field_reports().map(|n| n.receptions).sum();
        assert_eq!(tx, 500);
        assert_eq!(rx, 500);
        assert_eq!(out.node(NodeId(0)).receptions, 100); // the sink
        assert_eq!(out.node(NodeId(0)).transmissions, 0);
        let model = EnergyModel::mica2();
        let expected = 500.0 * (model.tx_cost + model.rx_cost);
        assert!((out.total_energy(&model) - expected).abs() < 1e-9);
        assert!((out.energy_per_delivered(&model) - expected / 100.0).abs() < 1e-9);
    }

    #[test]
    fn delays_cost_no_extra_energy_but_drops_waste_it() {
        use tempriv_net::energy::EnergyModel;
        let model = EnergyModel::mica2();
        let base = line_sim(10)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(300);
        let no_delay = base
            .clone()
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap()
            .run();
        let rcad = base
            .clone()
            .buffer_policy(BufferPolicy::paper_rcad())
            .build()
            .unwrap()
            .run();
        let droptail = base
            .buffer_policy(BufferPolicy::DropTail { capacity: 10 })
            .build()
            .unwrap()
            .run();
        // RCAD delivers everything with exactly the no-delay energy.
        assert_eq!(no_delay.total_energy(&model), rcad.total_energy(&model));
        assert_eq!(
            no_delay.energy_per_delivered(&model),
            rcad.energy_per_delivered(&model)
        );
        // Drop-tail wastes the upstream transmissions of dropped packets.
        assert!(droptail.total_drops() > 0);
        assert!(
            droptail.energy_per_delivered(&model) > rcad.energy_per_delivered(&model),
            "droptail {} vs rcad {}",
            droptail.energy_per_delivered(&model),
            rcad.energy_per_delivered(&model)
        );
    }

    #[test]
    fn latency_percentiles_are_consistent() {
        let sim = line_sim(15)
            .traffic(TrafficModel::periodic(4.0))
            .packets_per_source(2000)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .build()
            .unwrap();
        let out = sim.run();
        let flow = &out.flows[0];
        let p50 = flow.latency_p50().unwrap();
        let p95 = flow.latency_p95().unwrap();
        // Erlang(15) latency: median below mean, p95 well above.
        assert!(
            p50 < flow.latency.mean(),
            "p50 {p50} vs mean {}",
            flow.latency.mean()
        );
        assert!(p95 > flow.latency.mean());
        assert!(p50 >= 15.0, "nothing beats h*tau");
        // Analytic p95 of 15 * (tau + Exp(30)) is ~672; allow slack for
        // histogram resolution.
        assert!((p95 - 672.0).abs() < 40.0, "p95 {p95}");
    }

    #[test]
    fn custom_latency_range_applies() {
        let sim = line_sim(3)
            .packets_per_source(50)
            .delay_plan(DelayPlan::no_delay())
            .buffer_policy(BufferPolicy::Unlimited)
            .latency_range(0.0, 10.0)
            .build()
            .unwrap();
        let out = sim.run();
        // All latencies are exactly 3: well inside the custom range.
        assert_eq!(out.flows[0].latency_histogram.overflow(), 0);
        assert!((out.flows[0].latency_p50().unwrap() - 3.0).abs() < 0.1);
        // Degenerate range is rejected.
        let err = line_sim(3).latency_range(5.0, 5.0).build().unwrap_err();
        assert!(matches!(err, BuildError::InvalidBuffer { .. }));
    }

    #[test]
    fn observations_arrive_in_time_order() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .packets_per_source(200)
            .build()
            .unwrap();
        let out = sim.run();
        for w in out.observations.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }
}
