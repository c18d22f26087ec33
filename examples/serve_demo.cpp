// serve_demo: replay a canned request trace through the serving engine
// and read the telemetry it leaves behind.
//
// The trace mixes two tenants — MobileNet-V1/FuSe-Full@32 (batch-hint
// free) and MobileNet-V2/FuSe-Full@32 (hint 4) — arriving a few hundred
// kilocycles apart against a deliberately small admission bound, so one
// replay exercises every path: batches coalescing under the deadline
// window, early closes at the cap, load shedding, and multi-array
// placement. Everything is virtual-cycle-domain, so the whole printout
// is byte-identical on any machine and at any --workers count.
//
// Output: the engine config, a per-request scheduling table (admission ->
// batch -> array -> completion), the aggregate stats block (p50/p90/p99),
// and the serve.* metrics as JSON straight from the process-wide
// registry (empty when the build pins FUSE_TELEMETRY=OFF — the stats
// block above it is computed engine-side and survives).
//
// Usage: serve_demo [--size=64] [--requests=24] [--window=500000]
//        [--max-batch=4] [--capacity=12] [--arrays=2]
//        [--stats-json=] [--trace-json=]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/model_pool.hpp"
#include "serve/request.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/telemetry.hpp"

using namespace fuse;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_int("requests", 24, "trace length");
  flags.add_int("window", 500000, "batch window (cycles)");
  flags.add_int("max-batch", 4, "batch size cap");
  flags.add_int("capacity", 12, "admission bound (in-system requests)");
  flags.add_int("arrays", 2, "independent virtual arrays");
  bench::add_telemetry_flags(flags);
  flags.parse(argc, argv);
  bench::TelemetryScope telemetry(flags);

  serve::ServeConfig config;
  config.batch_window = static_cast<std::uint64_t>(flags.get_int("window"));
  config.max_batch = flags.get_int32("max-batch");
  config.queue_capacity = flags.get_int32("capacity");
  config.num_arrays = flags.get_int32("arrays");

  const auto cfg = systolic::square_array(flags.get_int("size"));
  serve::ModelPool pool(cfg, {});
  const serve::ShapeKey tenant_v1{nets::NetworkId::kMobileNetV1,
                                  core::NetworkVariant::kFuseFull, 32, -1};
  const serve::ShapeKey tenant_v2{nets::NetworkId::kMobileNetV2,
                                  core::NetworkVariant::kFuseFull, 32, -1};

  std::printf(
      "serve_demo: %lld requests, %s array, window=%llu cycles, cap=%d,\n"
      "capacity=%d, %d arrays\n"
      "tenants: %s (service b1 = %s cycles), %s (hint 4, service b1 = %s "
      "cycles)\n\n",
      static_cast<long long>(flags.get_int("requests")),
      cfg.to_string().c_str(),
      static_cast<unsigned long long>(config.batch_window),
      config.max_batch, config.queue_capacity, config.num_arrays,
      serve::shape_key_name(tenant_v1).c_str(),
      util::with_commas(pool.service_cycles(tenant_v1, 1)).c_str(),
      serve::shape_key_name(tenant_v2).c_str(),
      util::with_commas(pool.service_cycles(tenant_v2, 1)).c_str());

  // The canned trace: V1 twice as popular as V2; V2 carries a batch
  // hint of 4 (its clients cap their own coalescing).
  const std::vector<serve::TraceShape> shapes = {
      serve::TraceShape{tenant_v1, 0, 2},
      serve::TraceShape{tenant_v2, 4, 1},
  };
  const auto trace = serve::make_open_loop_trace(
      flags.get_int("requests"), 100000, shapes, 0xcafef00dULL);

  serve::ServeEngine engine(config, &pool);
  serve::replay_trace(engine, trace);
  engine.drain();

  util::TablePrinter table({"Req", "Tenant", "Status", "Arrival", "Batch",
                            "Size", "Array", "Completed", "Latency"});
  for (std::uint64_t id = 0; id < engine.num_requests(); ++id) {
    const serve::ResponseRecord r = engine.response(id);
    const bool done = r.status == serve::RequestStatus::kCompleted;
    table.add_row(
        {std::to_string(r.id), serve::shape_key_name(r.key),
         serve::request_status_name(r.status),
         util::with_commas(r.arrival_cycle),
         done ? std::to_string(r.batch_id) : "-",
         done ? std::to_string(r.batch_size) : "-",
         done ? std::to_string(r.array_index) : "-",
         done ? util::with_commas(r.completion_cycle) : "-",
         done ? util::with_commas(r.latency_cycles()) : "-"});
  }
  table.print(std::cout);

  const serve::ServeStats stats = engine.stats();
  std::printf(
      "\nstats: %llu submitted, %llu admitted, %llu rejected, %llu "
      "completed in %llu batches (mean size %.2f)\n"
      "latency cycles: p50 %s  p90 %s  p99 %s\n"
      "throughput: %.2f requests/Mcycle over a %s-cycle makespan\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.batches),
      stats.mean_batch_size,
      util::with_commas(static_cast<std::uint64_t>(
          stats.p50_latency_cycles)).c_str(),
      util::with_commas(static_cast<std::uint64_t>(
          stats.p90_latency_cycles)).c_str(),
      util::with_commas(static_cast<std::uint64_t>(
          stats.p99_latency_cycles)).c_str(),
      stats.throughput_per_mcycle,
      util::with_commas(stats.makespan_cycles).c_str());

  // The same story as seen by the process-wide metrics registry
  // (docs/observability.md catalogs the serve.* names). Empty when the
  // build compiled telemetry out.
  std::printf("\nmetrics registry:\n");
  util::metrics().write_json(std::cout);
  std::printf("\n");
  return 0;
}
