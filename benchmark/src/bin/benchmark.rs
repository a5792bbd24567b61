//! End-to-end metrics: tracing off, system allocator. See the library
//! documentation for usage.

fn main() -> std::process::ExitCode {
    hwdbg_benchmark::main(false)
}
