#include "bench_common.hpp"

#include <cstdio>

#include "systolic/sim.hpp"
#include "util/check.hpp"
#include "util/cpu_features.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"
#include "util/trace_sink.hpp"

namespace fuse::bench {

void add_telemetry_flags(util::CliFlags& flags) {
  flags.add_string("trace-json", "",
                   "write runtime span timeline here (Perfetto JSON)");
  flags.add_string("stats-json", "",
                   "write the metrics registry here as JSON");
  flags.add_string("profile-json", "",
                   "write span wall-clock stats (exact p50/p90/p99, "
                   "self vs child time) here as JSON");
}

void add_kernel_flags(util::CliFlags& flags) {
  const nn::KernelChoice defaults;
  flags.add_string("kernel-backend", nn::kernel_backend_name(defaults.backend),
                   "functional kernel backend: fast or reference");
  flags.add_string("kernel-isa", nn::kernel_isa_name(defaults.isa),
                   "fast-kernel instruction set: scalar, avx2, or auto");
}

nn::KernelChoice kernel_choice_flags(const util::CliFlags& flags) {
  nn::KernelChoice choice;
  const std::string name = flags.get_string("kernel-backend");
  FUSE_CHECK(nn::parse_kernel_backend(name, &choice.backend))
      << "--kernel-backend must be 'fast' or 'reference', got '" << name
      << "'";
  const std::string isa_name = flags.get_string("kernel-isa");
  FUSE_CHECK(nn::parse_kernel_isa(isa_name, &choice.isa))
      << "--kernel-isa must be 'scalar', 'avx2', or 'auto', got '" << isa_name
      << "'";
  FUSE_CHECK(nn::kernel_isa_available(choice.isa))
      << "--kernel-isa=" << isa_name
      << " is not available on this machine (cpu: "
      << util::cpu_features().to_string() << ")";
  return choice;
}

void add_sim_flags(util::CliFlags& flags) {
  flags.add_string("sim-backend",
                   systolic::sim_backend_name(systolic::SimBackend::kFast),
                   "cycle-accurate simulator engine: fast or reference");
}

systolic::SimBackend sim_backend_flag(const util::CliFlags& flags) {
  const std::string name = flags.get_string("sim-backend");
  systolic::SimBackend backend;
  FUSE_CHECK(systolic::parse_sim_backend(name, &backend))
      << "--sim-backend must be 'fast' or 'reference', got '" << name << "'";
  return backend;
}

TelemetryScope::TelemetryScope(const util::CliFlags& flags)
    : trace_path_(flags.get_string("trace-json")),
      stats_path_(flags.get_string("stats-json")),
      profile_path_(flags.get_string("profile-json")) {
  if (!trace_path_.empty() && util::telemetry_enabled()) {
    sink_ = std::make_unique<util::TraceSink>();
    sink_->process_name("fuseconv sweep (ts unit = wall us)");
    util::set_global_trace_sink(sink_.get());
  }
  if (!profile_path_.empty() && util::telemetry_enabled()) {
    collector_ = std::make_unique<util::ProfileCollector>();
    util::set_global_profile_collector(collector_.get());
  }
}

TelemetryScope::~TelemetryScope() { finalize(); }

void TelemetryScope::finalize() {
  if (finalized_) {
    return;
  }
  finalized_ = true;
  if (sink_) {
    // Detach before writing so nothing appends mid-serialization. No
    // parallel work is in flight here: parallel_for blocks its caller, and
    // a serving engine (constructed after this scope) waits for its
    // payloads before it is destroyed.
    util::set_global_trace_sink(nullptr);
    sink_->write_json_file(trace_path_);
  }
  if (collector_) {
    util::set_global_profile_collector(nullptr);
    collector_->write_json_file(profile_path_);
  }
  if (!profile_path_.empty() && !collector_) {
    // FUSE_TELEMETRY off: still honor the flag with an empty document.
    util::ProfileCollector().write_json_file(profile_path_);
  }
  if (!stats_path_.empty()) {
    util::metrics().write_json_file(stats_path_);
  }
}

SweepHarness::SweepHarness() : start_(std::chrono::steady_clock::now()) {}

void SweepHarness::stop() {
  if (wall_ms_ < 0.0) {
    wall_ms_ = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
  }
}

void SweepHarness::print_footer() {
  stop();
  // Wall time on one footer line (filtered out of golden comparisons by
  // its "sweep:" prefix).
  std::printf("\nsweep: %s ms\n", util::fixed(wall_ms_, 2).c_str());
}

}  // namespace fuse::bench
