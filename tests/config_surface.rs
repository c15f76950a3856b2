//! The serialized-config surface: every mechanism shipped by the library
//! must be reachable from a JSON `ExperimentConfig` (what the CLI and any
//! external tooling drive), and round-trip faithfully.

use temporal_privacy::core::{
    BufferPolicy, ConfigError, DelayPlan, DelayStrategy, ExperimentConfig, LayoutSpec, VictimPolicy,
};
use temporal_privacy::net::TrafficModel;

fn run_roundtrip(cfg: &ExperimentConfig) -> temporal_privacy::core::SimOutcome {
    let json = serde_json::to_string_pretty(cfg).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, cfg, "config must round-trip through JSON");
    let a = cfg.build().unwrap().run();
    let b = back.build().unwrap().run();
    assert_eq!(a, b, "rebuilt config must reproduce the run");
    a
}

#[test]
fn per_node_delay_plans_are_configurable_from_json() {
    let cfg = ExperimentConfig {
        layout: LayoutSpec::Line { hops: 4 },
        traffic: TrafficModel::periodic(5.0),
        packets_per_source: 120,
        delay: DelayPlan::PerNode {
            strategies: vec![
                DelayStrategy::None,
                DelayStrategy::exponential(5.0),
                DelayStrategy::Uniform { mean: 10.0 },
                DelayStrategy::Constant { delay: 2.0 },
                DelayStrategy::exponential(20.0),
            ],
            fallback: DelayStrategy::None,
        },
        buffer: BufferPolicy::Unlimited,
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed: 11,
    };
    let out = run_roundtrip(&cfg);
    // Expected latency: 4*tau + (5 + 10 + 2 + 20) per-node means along
    // the path (the source is node 4, sink node 0 does not delay).
    let expected = 4.0 + 37.0;
    assert!(
        (out.flows[0].latency.mean() - expected).abs() < 6.0,
        "latency {}",
        out.flows[0].latency.mean()
    );
}

#[test]
fn threshold_mix_is_configurable_from_json() {
    let cfg = ExperimentConfig {
        layout: LayoutSpec::Line { hops: 2 },
        traffic: TrafficModel::periodic(3.0),
        packets_per_source: 90,
        delay: DelayPlan::no_delay(),
        buffer: BufferPolicy::ThresholdMix { threshold: 9 },
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed: 13,
    };
    let out = run_roundtrip(&cfg);
    assert!(out.total_flushes() > 0);
    assert_eq!(out.total_delivered() + out.total_stranded(), 90);
}

#[test]
fn on_off_traffic_is_configurable_from_json() {
    let cfg = ExperimentConfig {
        layout: LayoutSpec::PaperFigure1,
        traffic: TrafficModel::on_off(2.0, 30, 300.0),
        packets_per_source: 120,
        delay: DelayPlan::shared_exponential(30.0),
        buffer: BufferPolicy::paper_rcad(),
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed: 17,
    };
    let out = run_roundtrip(&cfg);
    assert_eq!(out.total_delivered(), 480);
}

#[test]
fn every_victim_policy_is_configurable_from_json() {
    for victim in [
        VictimPolicy::ShortestRemaining,
        VictimPolicy::LongestRemaining,
        VictimPolicy::Random,
        VictimPolicy::Oldest,
    ] {
        let cfg = ExperimentConfig {
            layout: LayoutSpec::Line { hops: 6 },
            traffic: TrafficModel::periodic(2.0),
            packets_per_source: 150,
            delay: DelayPlan::shared_exponential(30.0),
            buffer: BufferPolicy::Rcad {
                capacity: 5,
                victim,
            },
            link_delay: 1.0,
            link_loss: 0.0,
            link_jitter: 0.0,
            seed: 19,
        };
        let out = run_roundtrip(&cfg);
        assert_eq!(out.total_delivered(), 150, "{victim:?}");
        assert!(out.total_preemptions() > 0, "{victim:?}");
    }
}

#[test]
fn jitter_and_loss_are_configurable_from_json() {
    let cfg = ExperimentConfig {
        layout: LayoutSpec::Line { hops: 8 },
        traffic: TrafficModel::periodic(4.0),
        packets_per_source: 300,
        delay: DelayPlan::no_delay(),
        buffer: BufferPolicy::Unlimited,
        link_delay: 1.0,
        link_loss: 0.03,
        link_jitter: 0.4,
        seed: 23,
    };
    let out = run_roundtrip(&cfg);
    assert!(out.link_losses > 0);
    // Mean per-hop time 1.2: latency ~ 9.6 for survivors.
    assert!((out.flows[0].latency.mean() - 9.6).abs() < 0.3);
}

#[test]
fn legacy_configs_without_new_fields_still_parse() {
    // link_jitter was added after 0.1.0-dev configs were written; serde
    // defaults keep old JSON working.
    let legacy = r#"{
        "layout": "PaperFigure1",
        "traffic": { "Periodic": { "interval": 4.0 } },
        "packets_per_source": 50,
        "delay": { "Shared": { "Exponential": { "mean": 30.0 } } },
        "buffer": { "Rcad": { "capacity": 10, "victim": "ShortestRemaining" } },
        "link_delay": 1.0,
        "link_loss": 0.0,
        "seed": 7
    }"#;
    let cfg: ExperimentConfig = serde_json::from_str(legacy).unwrap();
    assert_eq!(cfg.link_jitter, 0.0);
    let out = cfg.build().unwrap().run();
    assert_eq!(out.total_delivered(), 200);
}

#[test]
fn out_of_range_link_settings_are_config_errors() {
    let base = ExperimentConfig {
        packets_per_source: 20,
        ..ExperimentConfig::paper_default()
    };
    let rejects = |field: &str, set: &dyn Fn(&mut ExperimentConfig)| {
        let mut cfg = base.clone();
        set(&mut cfg);
        let err = cfg.build().map(|_| ()).unwrap_err();
        assert!(matches!(err, ConfigError::Link(_)), "{field}: {err}");
        assert!(err.to_string().contains(field), "{err}");
    };
    rejects("link_delay", &|c| c.link_delay = -1.0);
    rejects("link_delay", &|c| c.link_delay = 1e300);
    rejects("link_delay", &|c| c.link_delay = f64::NAN);
    rejects("link_delay", &|c| c.link_delay = f64::INFINITY);
    rejects("link_loss", &|c| c.link_loss = 1.5);
    rejects("link_loss", &|c| c.link_loss = -0.1);
    rejects("link_loss", &|c| c.link_loss = 1.0);
    rejects("link_jitter", &|c| c.link_jitter = -1.0);
    rejects("link_jitter", &|c| c.link_jitter = f64::INFINITY);
    // A zero link delay still builds and runs serially.
    let mut cfg = base;
    cfg.link_delay = 0.0;
    assert_eq!(cfg.build().unwrap().run().total_delivered(), 80);
}
