//! Smoke tests over the figure harnesses (quick mode): every figure
//! must compute, and its headline claims must hold in reduced form.

use nca_bench::figures;

#[test]
fn fig02_overhead_near_24_percent() {
    let rows = figures::fig02::rows();
    assert_eq!(rows.len(), 2);
    let overhead = rows[1].total() as f64 / rows[0].total() as f64 - 1.0;
    assert!(
        (0.22..=0.27).contains(&overhead),
        "sPIN overhead {overhead}"
    );
    // end-to-end simulation within 10% of the component sum
    let sim = figures::fig02::simulated_spin_total() as f64;
    let sum = rows[1].total() as f64;
    assert!((sim - sum).abs() / sum < 0.10, "sim {sim} vs sum {sum}");
}

#[test]
fn fig08_specialized_wins_large_blocks_host_wins_tiny() {
    let rows = figures::fig08::rows(true);
    let tiny = rows.first().expect("tiny block row");
    let large = rows.last().expect("large block row");
    // tiny (16 B in quick mode): host competitive or better vs general
    assert!(
        tiny.host > tiny.offloaded[3],
        "host must beat HPU-local at tiny blocks"
    );
    // large (2 KiB): specialized near line rate and above host
    assert!(
        large.offloaded[0] > 150.0,
        "specialized {:.1}",
        large.offloaded[0]
    );
    assert!(large.offloaded[0] > large.host);
}

#[test]
fn fig09c_reaches_line_rate_at_256b() {
    let rows = figures::fig09c::rows();
    assert!(rows[0].0 == 256 && rows[0].1 >= 170.0);
    assert!(rows.iter().skip(1).all(|&(_, bw)| bw >= 200.0));
}

#[test]
fn fig10_crossover_between_128_and_512() {
    let rows = figures::fig10::rows();
    let at = |b: u64| rows.iter().find(|r| r.0 == b).expect("row");
    assert!(at(64).1 < at(64).2, "PULP must trail ARM at 64 B");
    assert!(at(512).1 > at(512).2, "PULP must beat ARM at 512 B");
}

#[test]
fn fig11_ipc_band() {
    for (b, ipc) in figures::fig11::rows() {
        assert!((0.08..=0.40).contains(&ipc), "block {b}: IPC {ipc}");
    }
}

#[test]
fn fig12_breakdown_shapes() {
    let rows = figures::fig12::rows(true);
    let cell = |s: &str, g: u64| {
        *rows
            .iter()
            .find(|r| r.strategy == s && r.gamma == g)
            .expect("cell")
    };
    // RW-CP within ~3x of specialized at γ=16.
    let rw = cell("RW-CP", 16);
    let sp = cell("Specialized", 16);
    let ratio = (rw.init_us + rw.setup_us + rw.proc_us) / (sp.init_us + sp.setup_us + sp.proc_us);
    assert!((1.2..=3.5).contains(&ratio), "ratio {ratio}");
    // HPU-local dominated by setup (catch-up).
    let hl = cell("HPU-local", 16);
    assert!(hl.setup_us > 0.7 * (hl.init_us + hl.setup_us + hl.proc_us));
    // RO-CP dominated by init (checkpoint copy) at γ=1.
    let ro = cell("RO-CP", 1);
    assert!(ro.init_us > ro.proc_us);
}

#[test]
fn fig13_nic_memory_trends() {
    let by_block = figures::fig13::nicmem_vs_block(true);
    // Specialized memory is flat; RW-CP grows with block size.
    let first = by_block.first().expect("first");
    let last = by_block.last().expect("last");
    assert_eq!(first.1[0], last.1[0], "specialized NIC state is O(1)");
    assert!(
        last.1[1] >= first.1[1],
        "RW-CP checkpoints grow with block size"
    );
    let by_hpus = figures::fig13::nicmem_vs_hpus(true);
    let f = by_hpus.first().expect("first");
    let l = by_hpus.last().expect("last");
    assert!(l.1[3] > f.1[3], "HPU-local memory grows with HPUs");
    assert!(l.1[1] >= f.1[1], "RW-CP memory grows with HPUs");
}

#[test]
fn fig14_total_writes_scale_with_gamma() {
    let rows = figures::fig14::rows(true);
    assert!(rows.last().expect("last").total_writes > rows[0].total_writes * 8);
}

#[test]
fn fig15_timelines_have_host_overhead_for_checkpointed() {
    let ts = figures::fig15::timelines(true);
    let rocp = ts.iter().find(|t| t.strategy == "RO-CP").expect("RO-CP");
    assert!(rocp.host_overhead > 0);
    for t in &ts {
        assert!(!t.series.is_empty(), "{} has no DMA activity", t.strategy);
    }
}

#[test]
fn fig16_headline_claims() {
    let rows = ncmt::scenario::fig16::rows_filtered(Some(512), &ncmt::sim::Pool::from_env(None));
    assert!(rows.len() >= 20);
    let best = rows
        .iter()
        .map(|r| r.speedup[0].max(r.speedup[1]))
        .fold(0.0f64, f64::max);
    assert!(best > 4.0, "peak offload speedup {best}");
    // SPEC-OC (γ≈512) must NOT benefit from offload.
    let oc = rows
        .iter()
        .find(|r| r.label.starts_with("SPEC-OC"))
        .expect("SPEC-OC");
    assert!(
        oc.speedup[0] < 1.0,
        "SPEC-OC RW-CP speedup {}",
        oc.speedup[0]
    );
    // iovec NIC state is linear in regions and far larger than RW-CP's
    // for fine-grained types.
    assert!(oc.nic_kib[2] > oc.nic_kib[0]);
}

#[test]
fn fig17_offload_moves_less_data() {
    let rows = figures::fig17::rows(true);
    for (label, off, host) in &rows {
        assert!(host > off, "{label}: host {host} must exceed offload {off}");
    }
}

#[test]
fn fig18_majority_amortize_quickly() {
    let rows = figures::fig18::rows(true);
    let finite: Vec<f64> = rows.iter().map(|r| r.1).filter(|v| v.is_finite()).collect();
    let under4 = finite.iter().filter(|&&v| v < 4.0).count();
    assert!(
        under4 as f64 / finite.len() as f64 > 0.5,
        "{under4}/{} amortize in <4 reuses",
        finite.len()
    );
}

#[test]
fn fig19_offload_speedup_positive_and_bounded() {
    let rows = figures::fig19::rows(true);
    for (p, host, rwcp, s) in rows {
        assert!(rwcp < host, "P={p}");
        assert!((0.0..=60.0).contains(&s), "P={p}: speedup {s}%");
    }
}

#[test]
fn sender_strategies_ordering() {
    let rows = figures::sender::rows(true);
    for (b, inject, cpu) in rows {
        assert!(inject[1] <= inject[0], "streaming ≤ pack at block {b}");
        assert!(
            cpu[2] < cpu[1] / 10.0,
            "outbound sPIN frees the CPU at block {b}"
        );
    }
}
