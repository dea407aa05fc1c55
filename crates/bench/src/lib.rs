//! # athena-bench
//!
//! Criterion microbenchmarks for the Athena reproduction. The `microbench` suite times
//! the performance-critical primitives: cache lookups, DRAM accesses, QVStore SARSA
//! updates, Bloom filter operations, trace generation, a whole single-core simulation
//! step, and the engine's job-dispatch overhead.
//!
//! Run with `cargo bench -p athena-bench --bench microbench`. Whole-run timing lives in
//! the repository's benchmark (`benchmark/`, see its README), and per-phase cost inside
//! a cell in `figures --profile` → `BENCH_sim.json`. This library target holds no code:
//! Cargo needs one for a package whose only other target is a bench.
