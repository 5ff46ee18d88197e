//! Prints Table IV: EILID software overhead on the seven evaluation
//! applications (compile time, binary size, running time).
//!
//! Compile times are per-side medians over 51 iterations (the paper
//! averages 50); pass `--quick` to use 7.

use eilid_bench::{measure_all, Table4Options};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let options = if quick {
        Table4Options::quick()
    } else {
        Table4Options::default()
    };
    eprintln!(
        "measuring {} workloads with {} compile iterations each...",
        eilid_workloads::WorkloadId::ALL.len(),
        options.compile_iterations
    );
    let table = measure_all(&options);
    println!("{}", table.render());
}
