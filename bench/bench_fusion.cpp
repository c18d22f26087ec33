// Extension: what the fused network schedule (sched/netplan.hpp) is worth.
// For every paper network/variant, builds the per-layer and the fused
// NetworkPlan on the same array and compares their rooflines: compute
// cycles are identical by construction (fusion only reorders whole folds),
// so the entire win is the removed DRAM traffic — each legal
// depthwise/FuSe -> pointwise pair keeps the intermediate activation in
// SRAM instead of flushing it and re-streaming it per column-fold. The
// bench FUSE_CHECKs the never-slower contract on every cell: equal compute
// cycles, fused bytes <= per-layer bytes, fused bound <= per-layer bound.
//
// Usage: bench_fusion [--size=64] [--json=<path>] [--csv]
//   --json writes the machine-readable rows consumed by
//   results/BENCH_fusion.json (tools/regenerate_results.sh).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "sched/latency.hpp"
#include "sched/netplan.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

namespace {

struct Row {
  std::string network;
  std::string variant;
  std::size_t pairs = 0;
  std::uint64_t compute_cycles = 0;
  std::uint64_t mem_per_layer = 0;
  std::uint64_t mem_fused = 0;
  std::uint64_t bytes_per_layer = 0;
  std::uint64_t bytes_fused = 0;
  std::uint64_t bound_per_layer = 0;
  std::uint64_t bound_fused = 0;

  double bound_saving_pct() const {
    if (bound_per_layer == 0) {
      return 0.0;
    }
    return 100.0 *
           static_cast<double>(bound_per_layer - bound_fused) /
           static_cast<double>(bound_per_layer);
  }
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                const systolic::ArrayConfig& cfg,
                const systolic::MemoryConfig& mem) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FUSE_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f,
               "{\n  \"bench\": \"bench_fusion\",\n"
               "  \"array\": \"%s\",\n"
               "  \"dram_bytes_per_cycle\": %g,\n  \"rows\": [\n",
               cfg.to_string().c_str(), mem.dram_bytes_per_cycle);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"network\": \"%s\", \"variant\": \"%s\", \"pairs\": %zu, "
        "\"compute_cycles\": %llu, \"mem_cycles_per_layer\": %llu, "
        "\"mem_cycles_fused\": %llu, \"bytes_per_layer\": %llu, "
        "\"bytes_fused\": %llu, \"bound_per_layer\": %llu, "
        "\"bound_fused\": %llu, \"bound_saving_pct\": %.2f}%s\n",
        r.network.c_str(), r.variant.c_str(), r.pairs,
        static_cast<unsigned long long>(r.compute_cycles),
        static_cast<unsigned long long>(r.mem_per_layer),
        static_cast<unsigned long long>(r.mem_fused),
        static_cast<unsigned long long>(r.bytes_per_layer),
        static_cast<unsigned long long>(r.bytes_fused),
        static_cast<unsigned long long>(r.bound_per_layer),
        static_cast<unsigned long long>(r.bound_fused),
        r.bound_saving_pct(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_string("json", "", "write machine-readable rows here");
  flags.add_bool("csv", false, "also write bench_fusion.csv");
  flags.parse(argc, argv);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const systolic::MemoryConfig mem;

  std::printf(
      "Inter-layer fold fusion: per-layer vs fused schedule roofline\n"
      "(%s array, %g B/cycle DRAM, %lld KiB SRAM; compute cycles are\n"
      "identical across modes — the fused win is removed load/flush "
      "traffic)\n\n",
      cfg.to_string().c_str(), mem.dram_bytes_per_cycle,
      static_cast<long long>(mem.sram_bytes / 1024));

  util::TablePrinter table({"Network", "Variant", "Pairs", "Mem cy (layer)",
                            "Mem cy (fused)", "MB saved", "Bound (layer)",
                            "Bound (fused)", "Saved"});
  std::vector<Row> rows;
  const std::vector<nets::NetworkId>& networks = nets::paper_networks();
  for (nets::NetworkId id : networks) {
    for (core::NetworkVariant variant : core::all_network_variants()) {
      const sched::VariantBuild build =
          sched::build_variant(id, variant, cfg);
      const sched::NetworkPlan per_plan = sched::plan_network(
          build.model, cfg, mem, sched::SchedMode::kPerLayer);
      const sched::NetworkPlan fused_plan = sched::plan_network(
          build.model, cfg, mem, sched::SchedMode::kFused);
      const sched::NetworkRoofline per = sched::plan_roofline(per_plan);
      const sched::NetworkRoofline fused = sched::plan_roofline(fused_plan);

      // The never-slower contract, re-proved on every cell.
      FUSE_CHECK(fused.compute_cycles == per.compute_cycles)
          << build.model.name << ": fusion changed compute cycles";
      FUSE_CHECK(fused.total_bytes <= per.total_bytes)
          << build.model.name << ": fusion added traffic";
      FUSE_CHECK(fused.bound_cycles <= per.bound_cycles)
          << build.model.name << ": fused bound above per-layer";

      Row row;
      row.network = nets::network_name(id);
      row.variant = core::network_variant_name(variant);
      row.pairs = fused_plan.fused_pairs.size();
      row.compute_cycles = per.compute_cycles;
      row.mem_per_layer = per.memory_cycles;
      row.mem_fused = fused.memory_cycles;
      row.bytes_per_layer = per.total_bytes;
      row.bytes_fused = fused.total_bytes;
      row.bound_per_layer = per.bound_cycles;
      row.bound_fused = fused.bound_cycles;
      table.add_row(
          {row.network, row.variant, std::to_string(row.pairs),
           util::with_commas(row.mem_per_layer),
           util::with_commas(row.mem_fused),
           util::fixed(static_cast<double>(row.bytes_per_layer -
                                           row.bytes_fused) /
                           1e6,
                       1),
           util::with_commas(row.bound_per_layer),
           util::with_commas(row.bound_fused),
           util::fixed(row.bound_saving_pct(), 1) + "%"});
      rows.push_back(std::move(row));
    }
    if (id != networks.back()) {
      table.add_separator();
    }
  }
  table.print(std::cout);
  std::printf(
      "\nall %zu cells satisfy: equal compute, fused bytes <= per-layer "
      "bytes, fused bound <= per-layer bound\n",
      rows.size());

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    write_json(json_path, rows, cfg, mem);
  }
  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_fusion.csv");
    csv.write_header({"network", "variant", "pairs", "compute_cycles",
                      "mem_cycles_per_layer", "mem_cycles_fused",
                      "bytes_per_layer", "bytes_fused", "bound_per_layer",
                      "bound_fused"});
    for (const Row& r : rows) {
      csv.write_row({r.network, r.variant, std::to_string(r.pairs),
                     std::to_string(r.compute_cycles),
                     std::to_string(r.mem_per_layer),
                     std::to_string(r.mem_fused),
                     std::to_string(r.bytes_per_layer),
                     std::to_string(r.bytes_fused),
                     std::to_string(r.bound_per_layer),
                     std::to_string(r.bound_fused)});
    }
    std::printf("wrote bench_fusion.csv\n");
  }
  return 0;
}
