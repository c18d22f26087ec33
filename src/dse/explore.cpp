#include "dse/explore.hpp"

#include <cstdio>

#include "core/transform.hpp"
#include "hw/area_power.hpp"
#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::dse {

std::string DesignPoint::label() const {
  std::string s = std::to_string(cfg.rows) + "x" + std::to_string(cfg.cols);
  s += cfg.broadcast_links ? " bcast" : " plain";
  s += " " + systolic::datapath_name(cfg.datapath);
  s += " " + systolic::pipelining_name(cfg.pipelining);
  s += " sram" + std::to_string(mem.sram_bytes / (1024 * 1024)) + "MiB";
  return s;
}

std::vector<DesignPoint> enumerate_design_points(const DseAxes& axes) {
  std::vector<DesignPoint> points;
  for (const auto& [rows, cols] : axes.shapes) {
    for (bool bcast : axes.broadcast) {
      for (systolic::Pipelining pipe : axes.pipelinings) {
        for (systolic::Datapath dp : axes.datapaths) {
          for (std::int64_t sram : axes.sram_bytes) {
            DesignPoint point;
            point.cfg.rows = rows;
            point.cfg.cols = cols;
            point.cfg.broadcast_links = bcast;
            point.cfg.pipelining = pipe;
            point.cfg.datapath = dp;
            point.mem.dtype_bytes = point.cfg.datapath_bytes();
            point.mem.sram_bytes = sram;
            point.mem.dram_bytes_per_cycle = axes.dram_bytes_per_cycle;
            point.cfg.validate();
            point.mem.validate();
            points.push_back(point);
          }
        }
      }
    }
  }
  return points;
}

std::vector<nets::NetworkModel> default_dse_workload() {
  std::vector<nets::NetworkModel> models;
  for (nets::NetworkId id : nets::paper_networks()) {
    const int slots = nets::num_fuse_slots(id);
    models.push_back(nets::build_network(id));
    models.push_back(nets::build_network(
        id, core::uniform_modes(slots, core::FuseMode::kFull)));
    models.push_back(nets::build_network(
        id, core::uniform_modes(slots, core::FuseMode::kHalf)));
  }
  return models;
}

namespace {

/// Latency of `bound_cycles` at the array's post-derate clock, area and
/// power from the component hw model.
Objectives objectives_of(const systolic::ArrayConfig& cfg,
                         std::uint64_t bound_cycles) {
  const hw::ArrayHwReport hw_report =
      hw::array_hw(cfg, hw::nangate45_model());
  Objectives obj;
  obj.latency_ms = static_cast<double>(bound_cycles) /
                   (cfg.effective_freq_mhz() * 1e3);
  obj.area_mm2 = hw_report.area_mm2;
  obj.power_w = hw_report.power_mw * 1e-3;
  return obj;
}

}  // namespace

Objectives evaluate_design_point(
    const DesignPoint& point, const std::vector<nets::NetworkModel>& workload,
    sched::SchedMode mode, std::uint64_t* bound_cycles_out) {
  std::uint64_t bound_cycles = 0;
  for (const nets::NetworkModel& model : workload) {
    const sched::NetworkEval ev =
        sched::eval_network_fast(model, point.cfg, point.mem, mode);
    bound_cycles += ev.roofline.bound_cycles;
  }
  if (bound_cycles_out != nullptr) {
    *bound_cycles_out = bound_cycles;
  }
  return objectives_of(point.cfg, bound_cycles);
}

ExploreResult explore(const DseAxes& axes,
                      const std::vector<nets::NetworkModel>& workload,
                      const ExploreOptions& options) {
  static util::Counter& evaluated =
      util::metrics().counter("dse.configs_evaluated");
  static util::Counter& pruned = util::metrics().counter("dse.points_pruned");

  ExploreResult result;
  result.points = enumerate_design_points(axes);
  result.objectives.resize(result.points.size());
  result.bound_cycles.resize(result.points.size());
  // A LayerCost reads the array and the memory dtype, never the SRAM size
  // or the DRAM bandwidth. SRAM is the innermost axis, so a point whose
  // array and dtype equal the previous point's keeps that point's layer
  // costs and reruns only the schedule (spills and fusion legality read
  // the SRAM size) and the roofline.
  std::vector<std::vector<sched::LayerCost>> costs(workload.size());
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const DesignPoint& point = result.points[i];
    const bool same_costs =
        i > 0 && point.cfg == result.points[i - 1].cfg &&
        point.mem.dtype_bytes == result.points[i - 1].mem.dtype_bytes;
    std::uint64_t bound_cycles = 0;
    for (std::size_t m = 0; m < workload.size(); ++m) {
      if (!same_costs) {
        costs[m].clear();
        for (const nn::LayerDesc& layer : workload[m].layers) {
          costs[m].push_back(
              sched::eval_layer_fast(layer, point.cfg, point.mem));
        }
      }
      const sched::CostSchedule schedule = sched::schedule_costs(
          workload[m], costs[m], point.mem, options.mode);
      bound_cycles +=
          sched::roofline_over(costs[m], schedule.fused_pairs, point.mem)
              .bound_cycles;
    }
    result.bound_cycles[i] = bound_cycles;
    result.objectives[i] = objectives_of(point.cfg, bound_cycles);
    result.front.offer(i, result.objectives[i]);
  }

  evaluated.add(result.points.size());
  pruned.add(result.front.pruned());
  return result;
}

void write_explore_csv(const ExploreResult& result, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FUSE_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f,
               "index,rows,cols,broadcast,pipelining,datapath,sram_mib,"
               "bound_cycles,latency_ms,area_mm2,power_w,frontier\n");
  std::vector<bool> on_front(result.points.size(), false);
  for (const ParetoEntry& entry : result.front.entries()) {
    on_front[entry.id] = true;
  }
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const DesignPoint& p = result.points[i];
    const Objectives& o = result.objectives[i];
    std::fprintf(
        f, "%zu,%lld,%lld,%d,%s,%s,%lld,%llu,%.6f,%.6f,%.6f,%d\n", i,
        static_cast<long long>(p.cfg.rows),
        static_cast<long long>(p.cfg.cols), p.cfg.broadcast_links ? 1 : 0,
        systolic::pipelining_name(p.cfg.pipelining).c_str(),
        systolic::datapath_name(p.cfg.datapath).c_str(),
        static_cast<long long>(p.mem.sram_bytes / (1024 * 1024)),
        static_cast<unsigned long long>(result.bound_cycles[i]),
        o.latency_ms, o.area_mm2, o.power_w, on_front[i] ? 1 : 0);
  }
  std::fclose(f);
}

}  // namespace fuse::dse
