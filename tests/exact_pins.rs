//! Bit pins of the exact-CTMC answers that the perfreport pins (LBP-1 from
//! both-up) leave out: a down initial work state, LBP-2 with and without
//! an initial transfer, the moments, an n-node failure response and one
//! Eq. 5 CDF. The literals were computed by the hand-written two-node and
//! n-node chains that the one chain builder replaced.

use churnbal::model::exact::{lbp1_mean_exact, lbp2_mean_exact};
use churnbal::model::{
    lbp1_cdf, lbp1_moments, lbp2_moments, multinode_mean_exact, DelayModel, MultiNodeParams,
    TwoNodeParams, WorkState,
};
use churnbal::stochastic::digest_f64s;

#[test]
fn exact_answers_keep_their_bits() {
    let p = TwoNodeParams::paper();
    let (up, up0) = (WorkState::BOTH_UP, WorkState::new(true, false));
    let lbp1_down = lbp1_mean_exact(&p, [6, 4], 0, 2, WorkState::new(false, true));
    let lbp2 = lbp2_mean_exact(&p, [6, 3], [2, 3], None, up, 200_000);
    let lbp2_xfer = lbp2_mean_exact(&p, [6, 3], [2, 3], Some((0, 2)), up0, 200_000);
    let m1 = lbp1_moments(&p, [5, 3], 0, 2, WorkState::new(false, false));
    let m2 = lbp2_moments(&p, [5, 3], [2, 2], Some((0, 1)), up, 200_000);
    let three = MultiNodeParams::new(
        [1.08, 1.86, 1.08],
        [0.0, 0.05, 0.05],
        [0.0, 0.05, 0.1],
        DelayModel::per_task(0.02),
    );
    let respond = |j| vec![((j + 1) % 3, 1), ((j + 2) % 3, 2)];
    let n3 = multinode_mean_exact(&three, [4, 2, 1], &[(1, 1)], respond, 2_000_000);
    let pins = [
        ("lbp1 mean from (0,1)", lbp1_down, 0x4031_b734_e11d_96fb),
        ("lbp2 mean", lbp2, 0x401f_38f9_8839_db7d),
        (
            "lbp2 mean from (1,0), transfer",
            lbp2_xfer,
            0x4038_bf58_b2f7_db50,
        ),
        ("lbp1 mean from (0,0)", m1.mean, 0x403d_4995_8c6b_225c),
        ("lbp1 sd from (0,0)", m1.std_dev, 0x4035_a3de_65f9_fc6f),
        ("lbp2 mean with a transfer", m2.mean, 0x4017_efac_411d_1155),
        ("lbp2 sd with a transfer", m2.std_dev, 0x4020_9ce4_7935_3e82),
        (
            "3-node mean with a failure response",
            n3,
            0x4010_2668_10d4_e1bd,
        ),
    ];
    for (what, x, bits) in pins {
        assert_eq!(x.to_bits(), bits, "{what}: {x}");
    }

    let times: Vec<f64> = (0..=30).map(|i| f64::from(i) * 2.0).collect();
    let cdf = lbp1_cdf(&p, [6, 4], 0, 2, up, &times);
    assert_eq!(digest_f64s(&cdf.values), 0x2f36_ae2a_45cc_b60c);
}
