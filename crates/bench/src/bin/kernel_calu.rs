//! Kernel-layer performance record: achieved GFLOP/s of `gemm`, `trsm`
//! (Left/Lower/Unit), `getf2` and `rgetf2` on `nb × nb` operands, in `f64`
//! and `f32`, written as `BENCH_kernels.json`.
//!
//! `gemm` and `trsm` run once per kernel variant the host supports
//! (`avx512f`, `avx2`, `portable`), each called through
//! `blas3::{gemm,trsm}_with_variant`. `getf2` is BLAS-2 code that no
//! variant touches, and `rgetf2` reaches `gemm`/`trsm` only through the
//! library's own dispatch, so those two run once, on the detected variant.
//!
//! Every rate stands beside a stated per-core **ceiling**: the variant's
//! register-tile k-loop alone on packed panels that stay in L1
//! (`blas3::tile_loop_gflops`), labelled as such in the record and
//! measured right before the variant's rates at each size. It is what the
//! micro-kernel does when packing, cache misses and edge tiles cost
//! nothing, not the chip's peak; `gemm` at a deep `k` can come within a
//! few percent of it, and a host whose clock drifts between the two
//! measurements can push a share past 100%.
//!
//! Each rate is the median of repeated single-threaded calls over a time
//! budget, each on a fresh copy of its operand (the copy is untimed).
//!
//! Usage: `kernel_calu [--nb LIST] [--budget S] [--out PATH] [--csv]`
//! (defaults: nb=32,64,128,256, budget=0.2 s per rate,
//! out=BENCH_kernels.json).

use calu_bench::{write_record, HostInfo, Table};
use calu_matrix::blas3::{
    gemm_with_variant, kernel_variant, kernel_variants, tile_loop_gflops, trsm_with_variant,
};
use calu_matrix::lapack::{getf2, rgetf2};
use calu_matrix::{gen, Diag, Matrix, NoObs, Scalar, Side, Uplo};
use calu_netsim::machine::{flops_gemm, flops_getf2, flops_trsm_left};
use calu_obs::JsonValue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

struct Args {
    nbs: Vec<usize>,
    budget: f64,
    out: String,
    csv: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        nbs: vec![32, 64, 128, 256],
        budget: 0.2,
        out: "BENCH_kernels.json".into(),
        csv: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}; try --help");
                std::process::exit(2);
            })
        };
        let bad = |v: &str| -> ! {
            eprintln!("bad numeric value {v:?}; try --help");
            std::process::exit(2);
        };
        match flag.as_str() {
            "--nb" => {
                let v = val();
                args.nbs = v
                    .split(',')
                    .map(|s| s.parse().ok().filter(|&nb| nb > 0).unwrap_or_else(|| bad(&v)))
                    .collect();
            }
            "--budget" => {
                let v = val();
                args.budget = v.parse().ok().filter(|&b: &f64| b > 0.0).unwrap_or_else(|| bad(&v));
            }
            "--out" => args.out = val(),
            "--csv" => args.csv = true,
            "--help" | "-h" => {
                eprintln!("usage: kernel_calu [--nb LIST] [--budget S] [--out PATH] [--csv]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Median seconds of `call` over at least `budget` seconds and five calls,
/// re-running `prepare` untimed before each call.
fn time_call<S>(budget: f64, mut prepare: impl FnMut() -> S, mut call: impl FnMut(S)) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || start.elapsed().as_secs_f64() < budget {
        let state = prepare();
        let t = Instant::now();
        call(state);
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One measured rate.
struct Rate {
    precision: &'static str,
    variant: &'static str,
    kernel: &'static str,
    nb: usize,
    gflops: f64,
    ceiling: f64,
}

/// Measures every kernel at every `nb` at precision `T`. Each variant's
/// ceiling is measured right before its rates, so a host whose speed
/// drifts (turbo, other guests) compares rates with a ceiling of the same
/// moment.
fn measure<T: Scalar>(args: &Args, out: &mut Vec<Rate>) {
    let mut rng = StdRng::seed_from_u64(13);
    for &nb in &args.nbs {
        let a: Matrix<T> = gen::randn(&mut rng, nb, nb);
        let b: Matrix<T> = gen::randn(&mut rng, nb, nb);
        let c: Matrix<T> = gen::randn(&mut rng, nb, nb);
        // A unit lower triangle with small entries keeps repeated solves
        // well scaled.
        let scale = T::from_usize(nb);
        let l = Matrix::from_fn(nb, nb, |i, j| if i > j { a[(i, j)] / scale } else { T::ZERO });
        let mut push = |variant, kernel, flops: f64, secs: f64, ceiling| {
            let gflops = flops / secs / 1e9;
            out.push(Rate { precision: T::NAME, variant, kernel, nb, gflops, ceiling });
        };
        let detected = kernel_variant();
        let mut detected_ceiling = f64::NAN;
        for v in kernel_variants() {
            let ceiling = tile_loop_gflops::<T>(v, args.budget);
            if v == detected {
                detected_ceiling = ceiling;
            }
            let secs = time_call(
                args.budget,
                || c.clone(),
                |mut c| {
                    gemm_with_variant(v, -T::ONE, a.view(), b.view(), T::ONE, c.view_mut());
                    black_box(c);
                },
            );
            push(v, "gemm", flops_gemm(nb, nb, nb), secs, ceiling);
            let secs = time_call(
                args.budget,
                || b.clone(),
                |mut x| {
                    let (s, u, d) = (Side::Left, Uplo::Lower, Diag::Unit);
                    trsm_with_variant(v, s, u, d, T::ONE, l.view(), x.view_mut());
                    black_box(x);
                },
            );
            push(v, "trsm_llu", flops_trsm_left(nb, nb), secs, ceiling);
        }
        let secs = time_call(
            args.budget,
            || (a.clone(), vec![0usize; nb]),
            |(mut p, mut ipiv)| {
                getf2(p.view_mut(), &mut ipiv, &mut NoObs).expect("random tile is nonsingular");
                black_box((p, ipiv));
            },
        );
        push(detected, "getf2", flops_getf2(nb, nb), secs, detected_ceiling);
        let secs = time_call(
            args.budget,
            || (a.clone(), vec![0usize; nb]),
            |(mut p, mut ipiv)| {
                rgetf2(p.view_mut(), &mut ipiv, &mut NoObs).expect("random tile is nonsingular");
                black_box((p, ipiv));
            },
        );
        push(detected, "rgetf2", flops_getf2(nb, nb), secs, detected_ceiling);
    }
}

fn main() {
    let args = parse_args();
    let host = HostInfo::detect(1);
    println!(
        "kernel_calu: nb={:?}, variants={:?} (detected {}), budget={} s per rate",
        args.nbs,
        kernel_variants(),
        kernel_variant(),
        args.budget
    );

    let mut rates = Vec::new();
    measure::<f64>(&args, &mut rates);
    measure::<f32>(&args, &mut rates);

    let mut table =
        Table::new(&["precision", "variant", "kernel", "nb", "GFLOP/s", "ceiling", "% ceiling"]);
    for r in &rates {
        table.row(vec![
            r.precision.into(),
            r.variant.into(),
            r.kernel.into(),
            r.nb.to_string(),
            format!("{:.2}", r.gflops),
            format!("{:.2}", r.ceiling),
            format!("{:.0}", 100.0 * r.gflops / r.ceiling),
        ]);
    }
    table.print(args.csv);

    let rate_rows: JsonValue = rates
        .iter()
        .map(|r| {
            JsonValue::obj()
                .set("precision", r.precision)
                .set("variant", r.variant)
                .set("kernel", r.kernel)
                .set("nb", r.nb)
                .set("gflops", r.gflops)
                .set("ceiling_gflops", r.ceiling)
                .set("share_of_ceiling", r.gflops / r.ceiling)
        })
        .collect();
    let record = host
        .stamp(JsonValue::obj().set("bench", "kernel_calu"))
        .set("variants", kernel_variants().into_iter().collect::<JsonValue>())
        .set("budget_s", args.budget)
        .set(
            "ceiling",
            "per core, per variant: the register tile's k-loop alone on packed \
             panels 128 k-steps deep that stay in L1 (no packing, no cache misses, \
             no edge tiles), fastest of its 100-tile bursts, measured right before the \
             variant's rates at each nb; not the chip's peak",
        )
        .set(
            "note",
            "gemm is C -= A B and trsm_llu is Left/Lower/Unit with nb right-hand \
             sides, both per variant; getf2 and rgetf2 factor an nb x nb tile on the \
             detected variant (rgetf2 reaches gemm/trsm through the library's dispatch)",
        )
        .set("rates", rate_rows);
    write_record(&args.out, &record);
}
