// Workload `sweep`: one cold report pass per item — Table I on 64x64, the
// Fig. 8(d) scaling sweep for the five paper networks x {FuSe-Full,
// FuSe-Half} over sizes {8..128}, then the design-space explorer with its
// defaults. Each item runs in a fresh process (this binary, spawned with
// --sweep-child), so no memo table carries over between items; the item
// time is the child's whole wall time, as one user invocation costs.
//
// The child prints its results and the wall span of each public call; the
// parent checks the results against the committed goldens
// (results/bench_table1.csv, results/bench_fig8d.csv and the frontier
// rows of results/BENCH_dse.json). The seed has no effect here: the
// pass's inputs are the paper's fixed grid.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dse/explore.hpp"
#include "harness.hpp"
#include "nets/zoo.hpp"
#include "sched/report.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace perfbench {
namespace {

using fuse::core::NetworkVariant;

const std::vector<std::int64_t> kSizes = {8, 16, 32, 64, 128};

/// ExploreResult::memo_hit_pct, or 0 once the explorer has no memo.
template <typename Result>
double memo_hit_pct(const Result& result) {
  if constexpr (requires { result.memo_hit_pct; }) {
    return result.memo_hit_pct;
  } else {
    return 0.0;
  }
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream in(line);
  std::string field;
  while (std::getline(in, field, ',')) {
    fields.push_back(field);
  }
  return fields;
}

/// Lines of a golden file, minus the first `skip`.
std::vector<std::string> read_lines(const std::string& path,
                                    std::size_t skip) {
  std::ifstream in(path);
  FUSE_CHECK(in.good()) << "cannot read " << path;
  std::vector<std::string> lines;
  std::string line;
  for (std::size_t n = 0; std::getline(in, line); ++n) {
    if (n >= skip && !line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// The frontier rows of BENCH_dse.json, trimmed to "{...}".
std::vector<std::string> read_frontier(const std::string& path) {
  std::vector<std::string> rows;
  for (const std::string& line : read_lines(path, 0)) {
    const std::size_t open = line.find("{\"config\"");
    if (open == std::string::npos) {
      continue;
    }
    rows.push_back(line.substr(open, line.rfind('}') - open + 1));
  }
  return rows;
}

/// What one child pass printed, by line tag.
struct PassOutput {
  std::vector<std::string> table1;
  std::map<std::string, std::vector<std::string>> scaling;  // by variant
  std::vector<std::string> frontier;
  double configs = 0.0;
  double memo_pct = 0.0;
  struct Span {
    std::string name;
    std::int64_t offset_ns = 0;
    std::int64_t dur_ns = 0;
  };
  std::vector<Span> spans;
};

PassOutput parse_pass(const std::string& text) {
  PassOutput out;
  std::stringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    const std::string tag = line.substr(0, space);
    const std::string rest = line.substr(space + 1);
    if (tag == "table1") {
      out.table1.push_back(rest);
    } else if (tag == "scaling") {
      const std::size_t split = rest.find(' ');
      out.scaling[rest.substr(0, split)].push_back(rest.substr(split + 1));
    } else if (tag == "frontier") {
      out.frontier.push_back(rest);
    } else if (tag == "configs") {
      out.configs = std::stod(rest);
    } else if (tag == "memo_hit_pct") {
      out.memo_pct = std::stod(rest);
    } else if (tag == "span") {
      PassOutput::Span span;
      std::stringstream fields(rest);
      fields >> span.name >> span.offset_ns >> span.dur_ns;
      out.spans.push_back(span);
    }
  }
  return out;
}

class Sweep : public Workload {
 public:
  explicit Sweep(const Options& options) : self_exe_(options.self_exe) {
    table1_ = read_lines(options.root + "/results/bench_table1.csv", 1);
    fig8d_half_ = read_lines(options.root + "/results/bench_fig8d.csv", 1);
    frontier_ = read_frontier(options.root + "/results/BENCH_dse.json");
    FUSE_CHECK(table1_.size() == 25 && fig8d_half_.size() == 5 &&
               frontier_.size() == 26)
        << "unexpected golden sizes under " << options.root << "/results";
    if (options.perturb_expected) {
      table1_.front() += "0";
    }
    run_once(0);  // warm-up: page cache, binary, allocator
  }

  std::size_t items() const override { return 1; }

  bool run_item(std::size_t /*index*/,
                std::vector<std::int64_t>& unit_ns) override {
    const Clock::time_point start = Clock::now();
    std::string text;
    const bool exited_ok = spawn_child(&text);
    const Clock::time_point end = Clock::now();
    const PassOutput pass = parse_pass(text);
    // Units: the process itself (spawn, start-up, output, exit), then each
    // public call it made.
    unit_ns.push_back(elapsed_ns(start, end));
    for (const PassOutput::Span& span : pass.spans) {
      unit_ns.front() -= span.dur_ns;
      unit_ns.push_back(span.dur_ns);
    }
    if (tracer.enabled()) {
      tracer.span("sweep.pass", "sweep", start, end, 0);
      PerItem item;
      for (const PassOutput::Span& span : pass.spans) {
        const Clock::time_point at =
            start + std::chrono::nanoseconds(span.offset_ns);
        tracer.span(span.name, "sweep", at,
                    at + std::chrono::nanoseconds(span.dur_ns), 0);
        const double ms = static_cast<double>(span.dur_ns) / 1e6;
        if (span.name == "sched.table1_rows") {
          item.table1_ms += ms;
        } else if (span.name == "sched.scaling_sweep") {
          item.scaling_ms += ms;
        } else if (span.name == "dse.explore") {
          item.explore_ms += ms;
        }
      }
      item.configs = pass.configs;
      item.memo_pct = pass.memo_pct;
      layer_.push_back(item);
    }
    return exited_ok && check(pass);
  }

  std::size_t verify() override {
    const bool ok = run_once(0);
    if (!ok) {
      std::fprintf(stderr, "sweep: report pass differs from the goldens\n");
    }
    return ok ? 0 : 1;
  }

  void layer_metrics(double /*seconds*/,
                     std::vector<Metric>& metrics) const override {
    std::vector<double> table1, scaling, explore, cps, memo;
    for (const PerItem& item : layer_) {
      table1.push_back(item.table1_ms);
      scaling.push_back(item.scaling_ms);
      explore.push_back(item.explore_ms);
      cps.push_back(item.configs / (item.explore_ms / 1e3));
      memo.push_back(item.memo_pct);
    }
    set_metric(metrics, "sched.table1_rows.ms", median(table1));
    set_metric(metrics, "sched.scaling_sweep.ms", median(scaling));
    set_metric(metrics, "dse.explore.ms", median(explore));
    set_metric(metrics, "dse.configs_per_s", median(cps));
    set_metric(metrics, "dse.memo_hit_pct", median(memo));
  }

 private:
  struct PerItem {
    double table1_ms = 0.0;
    double scaling_ms = 0.0;  // all ten scaling_sweep calls
    double explore_ms = 0.0;
    double configs = 0.0;
    double memo_pct = 0.0;
  };

  /// Runs one child pass; its stdout lands in `text`.
  bool spawn_child(std::string* text) const {
    int fds[2];
    FUSE_CHECK(pipe(fds) == 0) << "pipe failed";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string arg0 = self_exe_;
    std::string arg1 = "--sweep-child";
    char* argv[] = {arg0.data(), arg1.data(), nullptr};
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self_exe_.c_str(), &actions, nullptr,
                               argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc == 0) {
      char buf[4096];
      ssize_t n = 0;
      while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
        text->append(buf, static_cast<std::size_t>(n));
      }
    }
    close(fds[0]);
    int status = 0;
    return rc == 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
  }

  bool check(const PassOutput& pass) const {
    bool ok = pass.table1 == table1_ && pass.frontier == frontier_;
    const auto half = pass.scaling.find("FuSe-Half");
    ok = ok && half != pass.scaling.end() && half->second == fig8d_half_;
    // FuSe-Full has no golden sweep; its 64x64 point must equal Table I's
    // (golden) FuSe-Full speedup.
    std::map<std::string, std::string> table1_full;
    for (const std::string& line : table1_) {
      const std::vector<std::string> f = split_fields(line);
      if (f[1] == "FuSe-Full") {
        table1_full[f[0]] = f[5];
      }
    }
    const auto full = pass.scaling.find("FuSe-Full");
    ok = ok && full != pass.scaling.end() && full->second.size() == 5;
    if (ok) {
      for (const std::string& line : full->second) {
        const std::vector<std::string> f = split_fields(line);
        ok = ok && f.size() == 1 + kSizes.size() && table1_full[f[0]] == f[4];
      }
    }
    return ok;
  }

  std::string self_exe_;
  std::vector<std::string> table1_;
  std::vector<std::string> fig8d_half_;
  std::vector<std::string> frontier_;
  std::vector<PerItem> layer_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const Options& options) {
  return std::make_unique<Sweep>(options);
}

int sweep_child_main() {
  namespace sched = fuse::sched;
  namespace nets = fuse::nets;
  using fuse::util::fixed;
  const Clock::time_point epoch = Clock::now();
  const auto span = [epoch](const char* name, Clock::time_point start) {
    const Clock::time_point end = Clock::now();
    std::printf("span %s %lld %lld\n", name,
                static_cast<long long>(elapsed_ns(epoch, start)),
                static_cast<long long>(elapsed_ns(start, end)));
  };

  Clock::time_point start = Clock::now();
  const std::vector<sched::Table1Row> rows =
      sched::table1_rows(fuse::systolic::square_array(64));
  span("sched.table1_rows", start);
  for (const sched::Table1Row& r : rows) {
    std::printf("table1 %s,%s,%llu,%llu,%llu,%s,%s,%s,%s,%s\n",
                nets::network_name(r.network).c_str(),
                fuse::core::network_variant_name(r.variant).c_str(),
                static_cast<unsigned long long>(r.macs),
                static_cast<unsigned long long>(r.params),
                static_cast<unsigned long long>(r.cycles),
                fixed(r.speedup, 3).c_str(),
                fixed(r.paper_accuracy, 2).c_str(),
                fixed(r.paper_macs_millions, 1).c_str(),
                fixed(r.paper_params_millions, 2).c_str(),
                fixed(r.paper_speedup, 2).c_str());
  }

  for (const NetworkVariant variant :
       {NetworkVariant::kFuseFull, NetworkVariant::kFuseHalf}) {
    for (const nets::NetworkId id : nets::paper_networks()) {
      start = Clock::now();
      const std::vector<sched::ScalingPoint> points =
          sched::scaling_sweep(id, variant, kSizes);
      span("sched.scaling_sweep", start);
      std::string line = fuse::core::network_variant_name(variant) + " " +
                         nets::network_name(id);
      for (const sched::ScalingPoint& p : points) {
        line += "," + fixed(p.speedup, 3);
      }
      std::printf("scaling %s\n", line.c_str());
    }
  }

  const std::vector<nets::NetworkModel> workload =
      fuse::dse::default_dse_workload();
  start = Clock::now();
  const fuse::dse::ExploreResult result =
      fuse::dse::explore(fuse::dse::DseAxes{}, workload);
  span("dse.explore", start);
  for (const fuse::dse::ParetoEntry& entry : result.front.entries()) {
    std::printf(
        "frontier {\"config\": \"%s\", \"bound_cycles\": %llu, "
        "\"latency_ms\": %.6f, \"area_mm2\": %.6f, \"power_w\": %.6f}\n",
        result.points[entry.id].label().c_str(),
        static_cast<unsigned long long>(result.bound_cycles[entry.id]),
        entry.obj.latency_ms, entry.obj.area_mm2, entry.obj.power_w);
  }
  std::printf("configs %zu\n", result.points.size());
  std::printf("memo_hit_pct %.17g\n", memo_hit_pct(result));
  return 0;
}

}  // namespace perfbench
