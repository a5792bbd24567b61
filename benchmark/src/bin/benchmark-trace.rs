//! Per-layer metrics: every layer call in a span, simulator counters on,
//! allocations counted. See the library documentation for usage.

#[global_allocator]
static ALLOC: hwdbg_obs::CountingAlloc = hwdbg_obs::CountingAlloc;

fn main() -> std::process::ExitCode {
    hwdbg_benchmark::main(true)
}
