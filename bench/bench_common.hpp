// Shared flag wiring of the bench and example binaries. SweepHarness
// owns the boilerplate of the sweep-driven benches: the telemetry flags,
// a steady-clock wall time for the sweep, and the "sweep: W ms" footer,
// so each bench only contains its own sweep (a serial loop over the
// sched:: report functions) and table. The kernel and simulator flags
// are registered only by the binaries whose output they can change: the
// ones that dispatch nn kernels, and the simulator-driven examples.
//
// Every bench also gains the telemetry flags: --trace-json=<path> attaches
// a global trace sink for the harness's lifetime and writes the runtime
// span timeline (wall-clock us: sweep spans) on exit;
// --stats-json=<path> dumps the metrics registry (counters, per-layer
// histograms); --profile-json=<path> attaches a
// ProfileCollector and writes span wall-clock statistics (exact
// p50/p90/p99, self vs child time). All three are silent — stdout and CSV
// output stay byte-identical whether or not the flags are set.
//
// Usage:
//   util::CliFlags flags;
//   ...bench-specific flags...
//   bench::SweepHarness harness(flags);   // registers the shared flags
//   flags.parse(argc, argv);
//   harness.start(flags);                 // attaches telemetry, starts clock
//   ...the sweep...
//   harness.stop();                       // freeze wall time (optional)
//   table.print(std::cout);
//   harness.print_footer();               // "sweep: W ms"
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "systolic/sim.hpp"
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

/// Registers --kernel-backend (fast|reference, default fast) and
/// --kernel-isa (scalar|avx2|auto, default the best available), for the
/// binaries that dispatch kernels.
void add_kernel_flags(util::CliFlags& flags);

/// Applies the parsed kernel flags to the process-wide backend state.
void apply_kernel_flags(const util::CliFlags& flags);

/// Registers --sim-backend (fast|reference, default fast) for the
/// simulator-driven examples.
void add_sim_flags(util::CliFlags& flags);

/// The simulator engine the parsed --sim-backend names, to pass to
/// SystolicArraySim or execute_layer_on_array.
systolic::SimBackend sim_backend_flag(const util::CliFlags& flags);

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
  /// Registers the telemetry flags on `flags`. Call before parse().
  explicit SweepHarness(util::CliFlags& flags);

  /// Detaches the trace sink and writes any requested telemetry files if
  /// print_footer() never ran.
  ~SweepHarness();

  /// Starts the wall clock. When --trace-json is set, also attaches the
  /// process-wide trace sink so the sweep's spans land in the file. Call
  /// once, after flags.parse().
  void start(const util::CliFlags& flags);

  /// Freezes the wall-clock measurement; later calls are no-ops, so the
  /// timed window ends at the first stop() (or at print_footer()).
  void stop();

  /// Prints the footer — the sweep's wall time (stops the clock first if
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
