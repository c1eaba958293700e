//! Ablation studies beyond the paper's figures (DESIGN.md §4): UDP loss
//! vs the retry discipline, the QoS-table lock across instance sizes,
//! DNS-LB skew, modulo-vs-consistent-hash remapping, and the server's
//! two admission data planes (live loopback run).

use janus_bench::live::{admission_variants, run_admission_variant, AdmissionPoint};
use janus_bench::{fmt_krps, fmt_pct, fmt_us, print_table, FigureCli};
use janus_hash::keygen::{KeyFamily, KeyGenerator};
use janus_hash::routing::{remap_fraction, ConsistentRing, ModuloRouter};
use janus_sim::experiments::{dns_skew, lock_sweep, loss_sweep, skew_sweep};

struct Output {
    loss: Vec<janus_sim::experiments::LossPoint>,
    lock: Vec<janus_sim::experiments::LockPoint>,
    skew: Vec<janus_sim::experiments::SkewPoint>,
    tenant_skew: Vec<janus_sim::experiments::SkewLoadPoint>,
    remap: Vec<RemapPoint>,
    admission: Vec<AdmissionPoint>,
}

janus_types::impl_to_json!(Output {
    loss,
    lock,
    skew,
    tenant_skew,
    remap,
    admission,
});

struct RemapPoint {
    from: usize,
    to: usize,
    modulo_fraction: f64,
    ring_fraction: f64,
}

janus_types::impl_to_json!(RemapPoint {
    from,
    to,
    modulo_fraction,
    ring_fraction,
});

fn remap_table(seed: u64) -> Vec<RemapPoint> {
    let mut gen = KeyGenerator::new(KeyFamily::Uuid, seed);
    let keys: Vec<_> = (0..20_000).map(|_| gen.next_key()).collect();
    [(5usize, 6usize), (10, 11), (20, 21), (10, 20)]
        .iter()
        .map(|&(from, to)| RemapPoint {
            from,
            to,
            modulo_fraction: remap_fraction(
                &ModuloRouter::new(from),
                &ModuloRouter::new(to),
                &keys,
            ),
            ring_fraction: remap_fraction(
                &ConsistentRing::new(from),
                &ConsistentRing::new(to),
                &keys,
            ),
        })
        .collect()
}

fn admission_table(quick: bool) -> Vec<AdmissionPoint> {
    // Unlike ablations 1-5 this one runs live: a real QoS server per
    // variant, hammered over loopback by 8 concurrent client tasks.
    let per_client = if quick { 300 } else { 2_000 };
    admission_variants()
        .iter()
        .map(|variant| run_admission_variant(variant, 8, per_client))
        .collect()
}

fn main() {
    let cli = FigureCli::parse();
    let f = cli.fidelity();
    let output = Output {
        loss: loss_sweep(cli.seed, f),
        lock: lock_sweep(cli.seed, f),
        skew: dns_skew(cli.seed, f),
        tenant_skew: skew_sweep(cli.seed, f),
        remap: remap_table(cli.seed),
        admission: admission_table(cli.quick),
    };

    cli.emit(&output, |out| {
        print_table(
            "Ablation 1: UDP loss vs the 100us x 5-retry discipline (light load)",
            &["loss", "avg latency", "P99 latency", "default-reply rate"],
            &out.loss
                .iter()
                .map(|p| {
                    vec![
                        fmt_pct(p.loss),
                        fmt_us(p.average_us),
                        fmt_us(p.p99_us),
                        fmt_pct(p.default_rate),
                    ]
                })
                .collect::<Vec<_>>(),
        );

        print_table(
            "Ablation 2: synchronized vs sharded QoS table (5 x c3.8xlarge routers)",
            &["QoS server", "vCPU", "synchronized", "sharded", "sync CPU"],
            &out.lock
                .iter()
                .map(|p| {
                    vec![
                        p.instance.to_string(),
                        p.vcpus.to_string(),
                        fmt_krps(p.synchronized_rps),
                        fmt_krps(p.sharded_rps),
                        fmt_pct(p.synchronized_cpu),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!("the global lock binds only on big instances — the paper's Fig. 10b effect.");

        print_table(
            "Ablation 3: DNS-LB skew (4 routers, client-side TTL caching)",
            &["client hosts", "idle routers", "max/mean CPU"],
            &out.skew
                .iter()
                .map(|p| {
                    vec![
                        p.clients.to_string(),
                        format!("{}/{}", p.idle_routers, p.routers),
                        format!("{:.2}x", p.imbalance),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!("with fewer client hosts than routers, whole routers idle per TTL cycle (§V-A).");

        print_table(
            "Ablation 4: tenant-popularity skew (Zipf over 8 QoS partitions)",
            &["zipf s", "throughput", "hottest QoS CPU", "coldest QoS CPU"],
            &out.tenant_skew
                .iter()
                .map(|p| {
                    vec![
                        format!("{:.1}", p.exponent),
                        fmt_krps(p.throughput_rps),
                        fmt_pct(p.hottest_cpu),
                        fmt_pct(p.coldest_cpu),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "mod-N cannot split a hot tenant across partitions: skewed tenant mixes \
             saturate one QoS server while the rest idle — the limit of the paper's \
             uniform-workload evaluation."
        );

        print_table(
            "Ablation 5: keys remapped when the QoS fleet resizes",
            &["fleet change", "modulo", "consistent ring"],
            &out.remap
                .iter()
                .map(|p| {
                    vec![
                        format!("{} -> {}", p.from, p.to),
                        fmt_pct(p.modulo_fraction),
                        fmt_pct(p.ring_fraction),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "mod-N loses most buckets on any resize — why the paper replaces failed \
             servers 1:1 instead of shrinking the fleet; the ring is the resize-friendly \
             alternative."
        );

        print_table(
            "Ablation 6: admission data plane (live loopback, 8 clients)",
            &["mode", "krps", "completed", "timed_out", "shed"],
            &out.admission
                .iter()
                .map(|p| {
                    vec![
                        p.mode.clone(),
                        fmt_krps(p.krps * 1_000.0),
                        p.completed.to_string(),
                        p.timed_out.to_string(),
                        (p.shed_full + p.shed_expired + p.shed_sojourn).to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "listener+sharded is the paper plane (one listener, one FIFO, N workers); \
             per_core drops the FIFO hop for per-core sockets, one frame per datagram \
             throughout (DESIGN.md ablations 9 and 12)."
        );
    });
}
