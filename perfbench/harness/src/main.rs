//! `perfbench-harness`: the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` drives it; each subcommand but `churn-unit` prints
//! one JSON record (see [`report::Record`]) as its last stdout line.
//!
//! ```sh
//! perfbench-harness planar-trace --input FILE --seed S --seconds T --cli PATH
//! perfbench-harness flat-trace --n N --seed S --seconds T [--trace-out FILE]
//! perfbench-harness churn  --n N --seed S --seconds T --reps K --trace 0|1 --unit FILE
//!                          [--unit-ops U] [--trace-out FILE]
//! perfbench-harness churn-unit --n N --seed S --ops U --out FILE
//! perfbench-harness suite-trace --seconds T --threads W --expect FILE [--exp E1,E9]
//! ```

mod churn;
mod flat;
mod planar;
mod report;
mod suite;
mod trace;

use arbmis_graph::Graph;
use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` flags of one subcommand.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    /// A required flag.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// A flag parsed as `T`, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} {v:?}")),
        }
    }

    /// An optional flag.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }
}

/// Whether `in_mis` is a maximal independent set of `g` — the output
/// check behind every op's pass/fail tally. Always untimed.
pub fn mis_ok(g: &Graph, in_mis: &[bool]) -> bool {
    arbmis_core::check_mis(g, in_mis).is_ok()
}

/// Bytes of `g`'s CSR arrays (offsets plus directed adjacency).
pub fn csr_bytes(g: &Graph) -> usize {
    let (offsets, adj) = g.as_csr();
    std::mem::size_of_val(offsets) + std::mem::size_of_val(adj)
}

/// Per-op seed `i` of a run seeded with `seed`.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    arbmis_congest::rng::draw(seed, i as usize, 0, 0x5045_5246)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!(
            "usage: perfbench-harness <planar-trace|flat-trace|churn|churn-unit|suite-trace> --flags"
        );
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "planar-trace" => planar::trace(&args).map(Some),
        "flat-trace" => flat::trace(&args).map(Some),
        "churn" => churn::run(&args).map(Some),
        "churn-unit" => churn::write(&args).map(|()| None),
        "suite-trace" => suite::trace(&args).map(Some),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(record) => {
            if let Some(record) = record {
                println!("{}", record.to_json());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbmis_graph::gen;
    use rand::SeedableRng;

    #[test]
    fn a_verified_mis_with_one_bit_flipped_fails_the_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let g = gen::apollonian(300, &mut rng);
        let out = arbmis_core::arb_mis(&g, &arbmis_core::ArbMisConfig::new(3, 9));
        assert!(mis_ok(&g, &out.in_mis));
        for v in [0, 17, 299] {
            let mut flipped = out.in_mis.clone();
            flipped[v] = !flipped[v];
            assert!(!mis_ok(&g, &flipped), "flipping node {v} must be caught");
            let mut rec = report::Record::default();
            rec.op(mis_ok(&g, &flipped));
            assert_eq!((rec.attempted, rec.failed), (1, 1));
        }
    }

    #[test]
    fn op_seeds_differ_per_op_and_repeat_per_seed() {
        assert_ne!(op_seed(1, 0), op_seed(1, 1));
        assert_ne!(op_seed(1, 0), op_seed(2, 0));
        assert_eq!(op_seed(3, 5), op_seed(3, 5));
    }
}
