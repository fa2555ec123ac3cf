//! End-to-end tests of the observability layer (DESIGN.md §8): a real
//! ArbMIS run must surface every pipeline phase span and the promised
//! histograms/gauges through both sinks, the CONGEST engine must expose
//! per-round histograms, and attaching a recorder must never perturb
//! results.

use arbmis::congest::Simulator;
use arbmis::core::arb_mis::{arb_mis_with, ArbMisConfig};
use arbmis::core::protocols::MetivierProtocol;
use arbmis::graph::gen::{GraphFamily, GraphSpec};
use arbmis::obs::Recorder;
use rand::SeedableRng;

fn graph(fam: GraphFamily, n: usize, seed: u64) -> arbmis::graph::Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    GraphSpec::new(fam, n).generate(&mut rng)
}

/// The acceptance surface: one ArbMIS run exports every pipeline phase
/// span and the degree/joiner histograms in both JSONL and Prometheus.
#[test]
fn arbmis_run_exports_phase_spans_and_histograms() {
    use arbmis::core::params::ParamMode;

    // The bad-set machinery (forest_decomp + cole_vishkin) only runs when
    // shattering leaves a nonempty B — which Theorem 3.6 makes vanishingly
    // rare under the default schedule. Starve the schedule (Λ = 1
    // iteration per scale, the public lambda_scale ablation knob) on a
    // geometric graph, whose dense local clusters then survive a scale
    // intact and violate the Invariant: this seed deterministically
    // leaves one bad component, so every pipeline span is exercised.
    let g = graph(GraphFamily::Geometric { radius: 0.03 }, 8000, 21);
    let cfg = ArbMisConfig {
        mode: ParamMode::Practical { lambda_scale: 1e-9 },
        degree_reduction: false,
        ..ArbMisConfig::new(8, 1)
    };
    let rec = Recorder::deterministic();
    let out = arb_mis_with(&g, &cfg, &rec);
    assert!(arbmis::core::check_mis(&g, &out.in_mis).is_ok());

    let snap = rec.snapshot();
    let jsonl = snap.to_jsonl();
    let prom = snap.to_prometheus();

    assert!(!out.bad_component_sizes.is_empty());
    for span in [
        "arbmis",
        "arbmis/degree_reduction",
        "arbmis/shattering",
        "arbmis/vlo",
        "arbmis/vhi",
        "arbmis/bad_components",
        "arbmis/bad_components/forest_decomp",
        "arbmis/bad_components/cole_vishkin",
    ] {
        assert!(snap.has_span(span), "missing span {span}");
        assert!(
            jsonl.contains(&format!("\"path\":\"{span}\"")),
            "JSONL missing span {span}"
        );
    }

    // Histograms and gauges in the Prometheus exposition.
    for series in [
        "# TYPE arbmis_node_degree histogram",
        "# TYPE arbmis_scale_joiners histogram",
        "# TYPE arbmis_bad_component_size histogram",
        "# TYPE arbmis_invariant_headroom gauge",
        "# TYPE arbmis_mis_size gauge",
        "# TYPE arbmis_rounds counter",
    ] {
        assert!(prom.contains(series), "Prometheus missing {series:?}");
    }
    assert_eq!(
        snap.histogram("arbmis_node_degree").unwrap().count(),
        g.n() as u64
    );
    // Step 2(b) enforces the Invariant, so recorded headroom is ≥ 0.
    for (name, v) in &snap.gauges {
        if name.starts_with("arbmis_invariant_headroom") {
            assert!(*v >= 0.0, "{name} = {v}");
        }
    }
}

/// The CONGEST engine exports per-round message/bit histograms, plus a
/// per-round wall-time histogram when wall-clock timing is on.
#[test]
fn congest_engine_exports_round_histograms() {
    let g = graph(GraphFamily::GnpAvgDegree { d: 5.0 }, 200, 22);
    let rec = Recorder::deterministic();
    let run = Simulator::new(&g, 7)
        .with_recorder(rec.clone())
        .run(&MetivierProtocol, 50_000)
        .unwrap();
    let snap = rec.snapshot();
    let rounds_hist = snap.histogram("congest_round_messages").unwrap();
    assert_eq!(rounds_hist.count(), run.metrics.rounds);
    assert_eq!(rounds_hist.sum(), run.metrics.messages);
    let bits_hist = snap.histogram("congest_round_bits").unwrap();
    assert_eq!(bits_hist.sum(), run.metrics.bits);
    let msg_hist = snap.histogram("congest_message_bits").unwrap();
    assert_eq!(msg_hist.count(), run.metrics.messages);
    assert_eq!(msg_hist.max(), run.metrics.max_message_bits);
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE congest_round_messages histogram"));
    assert!(prom.contains("# TYPE congest_message_bits histogram"));
    // Deterministic recorder: no timing-class series leak into the sinks.
    assert!(!prom.contains("_ns"));

    // Timing recorder: the per-round wall-time histogram appears.
    let rec = Recorder::new();
    Simulator::new(&g, 7)
        .with_recorder(rec.clone())
        .run(&MetivierProtocol, 50_000)
        .unwrap();
    assert!(rec
        .snapshot()
        .to_prometheus()
        .contains("# TYPE congest_round_time_ns histogram"));
}

/// Observability on/off never changes a traced run: digests and metrics
/// are bit-identical (acceptance criterion).
#[test]
fn digests_and_metrics_identical_with_observability_on_and_off() {
    let g = graph(GraphFamily::Apollonian, 250, 23);
    let (off, t_off) = Simulator::new(&g, 3)
        .run_traced(&MetivierProtocol, 50_000)
        .unwrap();
    let (on, t_on) = Simulator::new(&g, 3)
        .with_recorder(Recorder::new())
        .run_traced(&MetivierProtocol, 50_000)
        .unwrap();
    assert_eq!(t_on.digest(), t_off.digest());
    assert_eq!(on.metrics, off.metrics);
}

/// The Monte-Carlo driver reports trial batches through the process-wide
/// recorder (this is the only test in the binary that touches the global;
/// every other test passes explicit recorders).
#[test]
fn montecarlo_reports_trial_batches() {
    let rec = Recorder::deterministic();
    arbmis::obs::set_global(rec.clone());
    let e = arbmis::readk::montecarlo::estimate(5_000, |t| {
        arbmis::congest::rng::draw(3, 0, t, 0).is_multiple_of(2)
    });
    arbmis::obs::set_global(Recorder::disabled());
    assert_eq!(e.trials, 5_000);
    let snap = rec.snapshot();
    assert!(snap.counter("readk_mc_trials").unwrap_or(0) >= 5_000);
    assert!(snap.histogram("readk_mc_batch_trials").is_some());
    assert!(snap.to_jsonl().contains("\"name\":\"readk_mc_batch\""));
}
