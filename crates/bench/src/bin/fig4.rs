//! Figure 4: one realisation of both queue processes under LBP-1 and
//! LBP-2.
//!
//! The two policies run on the *same* churn sample path (common random
//! numbers — the engine draws failure/recovery times from policy-
//! independent streams), so the flat "down" segments line up, as in the
//! paper's figure. LBP-2's queues additionally show the downward/upward
//! jumps of the Eq. 8 transfers at failure instants.

use churnbal_bench::presets::{mc_config, FIG3_WORKLOAD};
use churnbal_bench::table::TextTable;
use churnbal_bench::Args;
use churnbal_cluster::{simulate, SimOptions};
use churnbal_core::{Lbp1, Lbp2};

fn main() {
    let args = Args::parse();
    let m0 = FIG3_WORKLOAD;
    let cfg = mc_config(m0);
    let opts = SimOptions {
        record_trace: true,
        ..SimOptions::default()
    };

    // Paper settings: LBP-1 with its optimal gain, LBP-2 with K = 1.
    let mut lbp1 = Lbp1::optimal(&cfg);
    let out1 = simulate(&cfg, &mut lbp1, args.seed, opts);
    let mut lbp2 = Lbp2::new(1.0);
    let out2 = simulate(&cfg, &mut lbp2, args.seed, opts);

    let tr1 = out1.trace.as_ref().expect("trace recorded");
    let tr2 = out2.trace.as_ref().expect("trace recorded");
    let t_max = out1.completion_time.max(out2.completion_time);
    let points = 71;

    println!(
        "Figure 4 — queue sizes over time, one realisation (seed {})",
        args.seed
    );
    println!(
        "LBP-1: K = {:.2} ({} tasks, node {} -> node {}), completion {:.2} s",
        lbp1.gain(),
        lbp1.tasks(),
        lbp1.sender() + 1,
        lbp1.receiver() + 1,
        out1.completion_time
    );
    println!(
        "LBP-2: K = 1.00, completion {:.2} s, {} failure-compensation transfers\n",
        out2.completion_time,
        out2.metrics.counters.transfers.saturating_sub(1)
    );

    let mut t = TextTable::new([
        "time (s)",
        "LBP1 q1 (Crusoe)",
        "LBP1 q2 (P4)",
        "LBP2 q1 (Crusoe)",
        "LBP2 q2 (P4)",
    ]);
    for i in 0..points {
        let time = t_max * f64::from(i) / f64::from(points - 1);
        t.row([
            format!("{time:.1}"),
            tr1.queue_at(0, time).to_string(),
            tr1.queue_at(1, time).to_string(),
            tr2.queue_at(0, time).to_string(),
            tr2.queue_at(1, time).to_string(),
        ]);
    }
    t.print();

    // Down intervals (the flat segments of the figure).
    for (label, tr) in [("LBP-1", tr1), ("LBP-2", tr2)] {
        for node in 0..2 {
            let downs: Vec<String> = tr
                .state_series(node)
                .windows(2)
                .filter_map(|w| match w {
                    [(t0, false), (t1, true)] => Some(format!("[{t0:.1}, {t1:.1}]")),
                    _ => None,
                })
                .collect();
            println!(
                "{label} node {} down intervals: {}",
                node + 1,
                downs.join(" ")
            );
        }
    }
}
