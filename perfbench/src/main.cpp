// perfbench: the repository benchmark.
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   perfbench --workload=<sweep|host_infer|array_sim|serve_tensor>
//             --seed=N --seconds=S --trace=0|1 [--out=DIR] [--root=DIR]
//             [--commit=ID] [--perturb-expected]
//
// One run: set the workload up several times (setup_s is the median),
// verify every item once against the library's oracles, then time whole
// passes of items for --seconds. The end-to-end times are CPU times of the
// whole process tree: on a shared virtual machine the host takes the
// virtual CPUs away for whole stretches, which wall time counts and CPU
// time does not. Wall time is kept per unit and reported beside them.
// --trace=0 reports the end-to-end metrics;
// --trace=1 splits the window into an untraced and a traced half and
// reports the per-layer metrics, the tracing overhead, a Perfetto trace
// and per-layer CSV artifacts under --out. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/trace_sink.hpp"

#ifdef PERFBENCH_HAVE_MODE_GETTERS
#include "nn/kernels.hpp"
#include "sched/netplan.hpp"
#include "systolic/sim.hpp"
#endif

extern char** environ;

namespace perfbench {
namespace {

// Set-ups are short (0.05-0.2 s), so one slowed by another tenant weighs
// a lot; the median of nine is steady.
constexpr int kSetupRepeats = 9;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// CPU seconds used so far by every thread of this process and by its
/// waited-for children. The guest kernel leaves out the time the host
/// gave the virtual CPUs to other tenants (steal), which wall time keeps.
double cpu_seconds() {
  timespec self{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  const timeval& user = children.ru_utime;
  const timeval& sys = children.ru_stime;
  return static_cast<double>(self.tv_sec + user.tv_sec + sys.tv_sec) +
         1e-9 * static_cast<double>(self.tv_nsec) +
         1e-6 * static_cast<double>(user.tv_usec + sys.tv_usec);
}

/// Times and outcome of one timed window.
struct Window {
  std::vector<std::vector<std::vector<std::int64_t>>> unit_ns;  // [item][unit][pass]
  std::vector<std::vector<double>> cpu_ms;                     // [item][pass]
  std::vector<double> pass_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double seconds = 0.0;

  /// CPU ms per item of the mix: each item's least over the passes (the
  /// pass least slowed by other tenants sharing the cores and caches),
  /// averaged over the items.
  double cpu_ms_per_item() const {
    double sum = 0.0;
    for (const std::vector<double>& samples : cpu_ms) {
      sum += *std::min_element(samples.begin(), samples.end());
    }
    return sum / static_cast<double>(cpu_ms.size());
  }

  /// Each item's uncontended wall ms: the sum over its units of each
  /// unit's fastest time in the window.
  std::vector<double> best_item_ms() const {
    std::vector<double> out;
    for (const auto& units : unit_ns) {
      double ns = 0.0;
      for (const std::vector<std::int64_t>& samples : units) {
        ns += samples.empty() ? 0.0
                              : static_cast<double>(*std::min_element(
                                    samples.begin(), samples.end()));
      }
      out.push_back(ns / 1e6);
    }
    return out;
  }
};

/// Wall-clock view of a window: items per second, the median item and the
/// p90 item (nearest rank; the slowest when the mix has fewer than ten),
/// each item at its uncontended time.
struct WallFigures {
  double items_per_s = 0.0;
  double item_ms_p50 = 0.0;
  double item_ms_tail = 0.0;

  explicit WallFigures(const Window& window) {
    std::vector<double> items = window.best_item_ms();
    std::sort(items.begin(), items.end());
    double ms = 0.0;
    for (const double m : items) {
      ms += m;
    }
    items_per_s = 1e3 * static_cast<double>(items.size()) / ms;
    item_ms_p50 = median(items);
    item_ms_tail = items[(9 * items.size() + 9) / 10 - 1];  // ceil(0.9 n)
  }
};

/// Runs whole passes until `seconds` have elapsed (at least one pass), so
/// every run measures the same item mix, and keeps every item's CPU time
/// and every unit's wall time.
Window run_window(Workload& workload, double seconds) {
  Window window;
  window.unit_ns.resize(workload.items());
  window.cpu_ms.resize(workload.items());
  std::vector<std::int64_t> units;
  const Clock::time_point begin = Clock::now();
  do {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < workload.items(); ++i) {
      units.clear();
      const double cpu_start = cpu_seconds();
      const Clock::time_point start = Clock::now();
      bool ok = workload.run_item(i, units);
      const Clock::time_point end = Clock::now();
      window.cpu_ms[i].push_back(1e3 * (cpu_seconds() - cpu_start));
      if (units.empty()) {
        units.push_back(elapsed_ns(start, end));
      }
      auto& samples = window.unit_ns[i];
      if (samples.empty()) {
        samples.resize(units.size());
      }
      // An item whose units changed (a failed child, say) has failed.
      ok = ok && samples.size() == units.size();
      for (std::size_t u = 0; ok && u < units.size(); ++u) {
        samples[u].push_back(units[u]);
      }
      ++window.attempted;
      window.failed += ok ? 0 : 1;
    }
    const Clock::time_point pass_end = Clock::now();
    window.pass_s.push_back(
        static_cast<double>(elapsed_ns(pass_start, pass_end)) / 1e9);
    window.seconds = static_cast<double>(elapsed_ns(begin, pass_end)) / 1e9;
  } while (window.seconds < seconds);
  return window;
}

/// Build and machine facts that decide what a number means.
std::string provenance(const std::string& commit) {
  using fuse::util::json_escape;
  std::string out = "{\"cores\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"cpu_isa\": \"" +
                    fuse::util::cpu_features().to_string() +
                    "\", \"compiler\": \"" + json_escape(kCompiler) +
                    "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                    "\", \"commit\": \"" +
                    json_escape(commit) + "\"";
#ifdef PERFBENCH_HAVE_MODE_GETTERS
  namespace nn = fuse::nn;
  namespace systolic = fuse::systolic;
  out += std::string(", \"kernel_backend\": \"") +
         nn::kernel_backend_name(nn::kernel_backend()) +
         "\", \"kernel_isa\": \"" + nn::kernel_isa_name(nn::kernel_isa()) +
         "\", \"kernel_threads\": " + std::to_string(nn::kernel_threads()) +
         ", \"sim_backend\": \"" +
         systolic::sim_backend_name(systolic::sim_backend()) +
         "\", \"sim_threads\": " + std::to_string(systolic::sim_threads()) +
         ", \"sched_mode\": \"" +
         fuse::sched::sched_mode_name(fuse::sched::sched_mode()) + "\"";
#else
  out += ", \"library_modes\": \"no process-wide mode getters\"";
#endif
  return out + "}";
}

/// The library reads six FUSE_* variables into process-wide modes; any of
/// them would silently change what is measured.
bool fuse_environment_clean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "FUSE_", 5) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      clean = false;
    }
  }
  return clean;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

using Factory = std::unique_ptr<Workload> (*)(const Options&);
const std::map<std::string, Factory> kWorkloads = {
    {"sweep", make_sweep},
    {"host_infer", make_host_infer},
    {"array_sim", make_array_sim},
    {"serve_tensor", make_serve_tensor},
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  fuse::util::CliFlags flags;
  flags.add_string("workload", "", "sweep|host_infer|array_sim|serve_tensor");
  flags.add_int("seed", 1, "workload seed (inputs, weights, traces)");
  flags.add_double("seconds", 10.0, "length of the timed window");
  flags.add_int("trace", 0, "1 = traced run reporting per-layer metrics");
  flags.add_string("out", ".bench_out", "directory for trace artifacts");
  flags.add_string("root", ".", "repository checkout holding results/");
  flags.add_string("commit", "unknown", "source revision, for provenance");
  flags.add_bool("perturb-expected", false,
                 "negative test: corrupt one expected value");
  flags.parse(argc, argv);

  if (!fuse_environment_clean()) {
    return 2;
  }
  const std::string name = flags.get_string("workload");
  Options options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.perturb_expected = flags.get_bool("perturb-expected");
  options.root = flags.get_string("root");
  options.self_exe = std::filesystem::read_symlink("/proc/self/exe").string();
  const bool trace = flags.get_int("trace") != 0;
  const double seconds = flags.get_double("seconds");
  const auto factory = kWorkloads.find(name);
  if (factory == kWorkloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n%s",
                 name.c_str(), flags.usage(argv[0]).c_str());
    return 2;
  }
  std::printf("provenance %s\n", provenance(flags.get_string("commit")).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", name.c_str(),
              static_cast<unsigned long long>(options.seed), seconds,
              trace ? 1 : 0);

  // Set-up, several times: the reported figure is the median.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < kSetupRepeats; ++r) {
    workload.reset();
    const double cpu_start = cpu_seconds();
    const Clock::time_point start = Clock::now();
    workload = factory->second(options);
    setup_wall_s.push_back(
        static_cast<double>(elapsed_ns(start, Clock::now())) / 1e9);
    setup_cpu_s.push_back(cpu_seconds() - cpu_start);
  }
  std::printf("set-up: median %.4f CPU s, %.4f wall s, over %d set-ups\n",
              median(setup_cpu_s), median(setup_wall_s), kSetupRepeats);

  const std::size_t verify_failed = workload->verify();
  std::printf("verify: %zu of %zu items failed\n", verify_failed,
              workload->items());
  std::size_t attempted = workload->items();
  std::size_t failed = verify_failed;

  std::vector<Metric> metrics;
  if (trace) {
    const Window plain = run_window(*workload, seconds / 2);
    workload->tracer.enable();
    const Window traced = run_window(*workload, seconds / 2);
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    metrics = per_layer_catalog();
    workload->layer_metrics(traced.seconds, metrics);
    const WallFigures wall(plain);
    set_metric(metrics, "wall.items_per_s", wall.items_per_s);
    set_metric(metrics, "wall.item_ms_p50", wall.item_ms_p50);
    set_metric(metrics, "wall.item_ms_tail", wall.item_ms_tail);
    const double plain_cpu = plain.cpu_ms_per_item();
    const double traced_cpu = traced.cpu_ms_per_item();
    set_metric(metrics, "trace.overhead_pct",
               100.0 * (traced_cpu - plain_cpu) / plain_cpu);
    const std::string dir = flags.get_string("out");
    std::filesystem::create_directories(dir);
    workload->tracer.write_json(dir + "/" + name + "_trace.json");
    workload->write_artifacts(dir);
    std::FILE* f = std::fopen((dir + "/" + name + "_provenance.json").c_str(),
                              "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", provenance(flags.get_string("commit")).c_str());
      std::fclose(f);
    }
    std::printf("traced window: %zu items, CPU ms per item untraced %.3f, "
                "traced %.3f; artifacts in %s\n",
                traced.attempted, plain_cpu, traced_cpu, dir.c_str());
  } else {
    const Window window = run_window(*workload, seconds);
    attempted += window.attempted;
    failed += window.failed;
    metrics = {
        {"setup_s", median(setup_cpu_s), "s"},
        {"cpu_ms_per_item", window.cpu_ms_per_item(), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    const WallFigures wall(window);
    std::printf("wall, each unit at its fastest over the window: items_per_s "
                "%.4f, item_ms_p50 %.4f, item_ms_tail %.4f (p90 of %zu "
                "items)\n",
                wall.items_per_s, wall.item_ms_p50, wall.item_ms_tail,
                workload->items());
    std::vector<double> passes = window.pass_s;
    std::sort(passes.begin(), passes.end());
    std::printf("%zu passes of %zu items in %.3f s: pass s min %.4f p10 %.4f "
                "p25 %.4f median %.4f max %.4f\n",
                passes.size(), workload->items(), window.seconds,
                passes.front(), passes[passes.size() / 10],
                passes[passes.size() / 4], median(passes), passes.back());
  }
  const bool correct = failed == 0;
  std::printf("items attempted %zu failed %zu\n", attempted, failed);
  print_metrics(metrics);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--sweep-child") == 0) {
    return perfbench::sweep_child_main();
  }
  return perfbench::run(argc, argv);
}
