// Shared wiring of the sweep-driven benches: every table/figure binary
// registers the same backend and telemetry flags, times its sweep with a
// steady clock, and prints the same "sweep: ..." wall-time footer.
// SweepHarness owns that boilerplate so each bench only contains its own
// sweep (a serial loop over the sched:: report functions) and table.
//
// Every bench also gains the telemetry flags: --trace-json=<path> attaches
// a global trace sink for the harness's lifetime and writes the runtime
// span timeline (wall-clock us: sweep spans, parallel_fors) on exit;
// --stats-json=<path> dumps the metrics registry (pool counters,
// per-layer histograms); --profile-json=<path> attaches a
// ProfileCollector and writes span wall-clock statistics (exact
// p50/p90/p99, self vs child time). All three are silent — stdout and CSV
// output stay byte-identical whether or not the flags are set.
//
// Usage:
//   util::CliFlags flags;
//   ...bench-specific flags...
//   bench::SweepHarness harness(flags);   // registers the shared flags
//   flags.parse(argc, argv);
//   harness.start(flags);                 // applies flags, starts clock
//   ...the sweep...
//   harness.stop();                       // freeze wall time (optional)
//   table.print(std::cout);
//   harness.print_footer();               // "sweep: W ms, kernels=..."
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "util/cli.hpp"

namespace fuse::util {
class ProfileCollector;
class TraceSink;
}

namespace fuse::bench {

/// Registers --trace-json/--stats-json/--profile-json on `flags` (all
/// default empty = off). SweepHarness calls this; standalone tools can
/// reuse it.
void add_telemetry_flags(util::CliFlags& flags);

/// Registers --kernel-backend (fast|reference, default: current, i.e.
/// FUSE_KERNEL_BACKEND or fast), --kernel-isa (scalar|avx2|auto,
/// default: current, i.e. FUSE_KERNEL_ISA or the best available), and
/// --kernel-threads (total threads for the fast kernels' parallel_for,
/// default: current). SweepHarness calls this; standalone tools can
/// reuse the set.
void add_kernel_flags(util::CliFlags& flags);

/// Applies the parsed kernel flags to the process-wide backend state.
void apply_kernel_flags(const util::CliFlags& flags);

/// Registers --sim-backend (fast|reference, default: current, i.e.
/// FUSE_SIM_BACKEND or fast). SweepHarness calls this; the sim-driven
/// examples reuse it.
void add_sim_flags(util::CliFlags& flags);

/// Applies the parsed sim flags to the process-wide simulator state.
void apply_sim_flags(const util::CliFlags& flags);

/// Registers --sched-mode (per-layer|fused, default: current, i.e.
/// FUSE_SCHED_MODE or per-layer). Controls whether network_roofline /
/// network_latency use the per-layer schedule or the fused NetworkPlan
/// (sched/netplan.hpp). SweepHarness calls this; standalone tools can
/// reuse the pair.
void add_sched_flags(util::CliFlags& flags);

/// Applies the parsed sched flags to the process-wide schedule mode.
void apply_sched_flags(const util::CliFlags& flags);

/// RAII wiring of the parsed telemetry flags for any tool: attaches a
/// global TraceSink (--trace-json) and ProfileCollector (--profile-json)
/// for its lifetime, then detaches and silently writes the requested
/// files — including the --stats-json metrics dump — on destruction (or
/// at an explicit finalize()). Construct AFTER flags.parse(). Stdout is
/// untouched, so golden outputs stay byte-identical with the flags off.
class TelemetryScope {
 public:
  explicit TelemetryScope(const util::CliFlags& flags);
  ~TelemetryScope();

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  /// Detaches and writes now; idempotent.
  void finalize();

 private:
  std::unique_ptr<util::TraceSink> sink_;
  std::unique_ptr<util::ProfileCollector> collector_;
  std::string trace_path_;
  std::string stats_path_;
  std::string profile_path_;
  bool finalized_ = false;
};

class SweepHarness {
 public:
  /// Registers the telemetry, kernel, sim and sched flags on `flags`.
  /// Call before parse().
  explicit SweepHarness(util::CliFlags& flags);

  /// Detaches the trace sink and writes any requested telemetry files if
  /// print_footer() never ran.
  ~SweepHarness();

  /// Applies the parsed backend flags and starts the wall clock. When
  /// --trace-json is set, also attaches the process-wide trace sink so the
  /// sweep's spans land in the file. Call once, after flags.parse().
  void start(const util::CliFlags& flags);

  /// Freezes the wall-clock measurement; later calls are no-ops, so the
  /// timed window ends at the first stop() (or at print_footer()).
  void stop();

  /// Prints the footer — the sweep's wall time plus the kernel, sim and
  /// sched modes that produced the run (stops the clock first if
  /// running) — then silently writes --trace-json/--stats-json if
  /// requested.
  void print_footer();

 private:
  void finalize();  // detach sink + write files; idempotent, silent

  std::chrono::steady_clock::time_point start_;
  double wall_ms_ = -1.0;
  std::optional<TelemetryScope> telemetry_;
};

}  // namespace fuse::bench
