// Extension: what dynamic batching is worth when the array is SERVING —
// many independent requests, not one offline batch. Three experiments,
// all in the virtual cycle domain (byte-deterministic for a fixed seed
// and --kernel-isa, on any machine, at any --workers):
//
//   1. Saturation throughput — closed-loop clients (fixed concurrency)
//      drive one shape through a batch-1 engine and a dynamically
//      batching engine sharing the same ModelPool. The speedup is the
//      amortized weight traffic: a batch streams each layer's weights
//      once, so memory-bound shapes (small resolutions, FuSe variants)
//      gain the most. The bench FUSE_CHECKs the headline claim: best
//      scenario >= 2x batch-1 throughput.
//   2. Open-loop rate sweep — a seeded arrival trace at increasing rates
//      against one engine config; reports completed/shed counts and
//      p50/p90/p99 latency, the classic throughput-vs-tail tradeoff.
//   3. Multi-tenant mix — two custom chain models served concurrently in
//      tensor mode (real kernels through the worker pool, on the route
//      --kernel-backend/--kernel-isa name); the response fingerprint pins
//      byte-determinism across --workers values. It mixes the payload
//      checksums, whose bits depend on the ISA, so the committed artifact
//      is pinned to --kernel-isa=scalar.
//
// Usage: bench_serve [--size=64] [--total=96] [--concurrency=16]
//                    [--window=400] [--max-batch=8] [--workers=2]
//                    [--json=<path>] [--csv]
//   --json writes the machine-readable rows consumed by
//   results/BENCH_serve.json (tools/regenerate_results.sh). The artifact
//   declares "metric_families": every metric here is exact — including
//   speedup_vs_b1, which the name-based wall-clock heuristic in
//   tools/bench_compare.py would otherwise treat as noisy.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/layer.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/model_pool.hpp"
#include "serve/request.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;

namespace {

struct SaturationRow {
  std::string scenario;
  std::uint64_t service_b1 = 0;       // batch-1 roofline service cycles
  std::uint64_t service_bmax = 0;     // service cycles at the batch cap
  std::uint64_t makespan_b1 = 0;
  std::uint64_t makespan_batched = 0;
  double mean_batch = 0.0;
  double p99_b1 = 0.0;
  double p99_batched = 0.0;
  double throughput_b1 = 0.0;       // requests per Mcycle
  double throughput_batched = 0.0;
  double speedup = 0.0;             // batched vs batch-1 throughput
};

struct SweepRow {
  std::uint64_t mean_gap = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double mean_batch = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double throughput = 0.0;
};

struct TenantRow {
  std::string mix;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  double mean_batch = 0.0;
  double p99 = 0.0;
  std::string fingerprint;  // FNV-1a over every response record
};

/// Closed-loop run of one (engine config, shape); fills half a row.
struct LoopLeg {
  std::uint64_t makespan = 0;
  double p99 = 0.0;
  double mean_batch = 0.0;
  double throughput = 0.0;
};

LoopLeg run_leg(serve::ModelPool& pool, const serve::ServeConfig& config,
                const serve::ShapeKey& key, int concurrency,
                std::int64_t total) {
  serve::ServeEngine engine(config, &pool);
  const serve::ClosedLoopResult result =
      serve::run_closed_loop(engine, key, 0, concurrency, total);
  FUSE_CHECK(result.completed == static_cast<std::uint64_t>(total))
      << "closed loop shed requests (capacity too small?)";
  const serve::ServeStats stats = engine.stats();
  LoopLeg leg;
  leg.makespan = result.makespan_cycles;
  leg.p99 = stats.p99_latency_cycles;
  leg.mean_batch = stats.mean_batch_size;
  leg.throughput = stats.throughput_per_mcycle;
  return leg;
}

/// FNV-1a over the scheduling fields of every response, as a hex string.
std::string response_fingerprint(const serve::ServeEngine& engine) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  };
  for (std::uint64_t id = 0; id < engine.num_requests(); ++id) {
    const serve::ResponseRecord r = engine.response(id);
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.status));
    mix(r.arrival_cycle);
    mix(r.dispatch_cycle);
    mix(r.start_cycle);
    mix(r.completion_cycle);
    mix(r.batch_id);
    mix(static_cast<std::uint64_t>(r.batch_size));
    mix(static_cast<std::uint64_t>(r.array_index + 1));
    mix(r.checksum);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

nets::NetworkModel tenant_chain_a() {
  nets::NetworkModel model;
  model.name = "tenant-a";
  model.layers.push_back(nn::make_conv("c1", 3, 16, 16, 8, 3, 1, 1));
  model.layers.push_back(nn::make_depthwise("dw1", 8, 16, 16, 3, 1, 1));
  model.layers.push_back(nn::make_pointwise("pw1", 8, 16, 16, 16));
  return model;
}

nets::NetworkModel tenant_chain_b() {
  nets::NetworkModel model;
  model.name = "tenant-b";
  model.layers.push_back(nn::make_depthwise("dw1", 6, 12, 12, 3, 1, 1));
  model.layers.push_back(nn::make_pointwise("pw1", 6, 12, 12, 10));
  return model;
}

void write_json(const std::string& path,
                const std::vector<SaturationRow>& saturation,
                const std::vector<SweepRow>& sweep,
                const std::vector<TenantRow>& tenants,
                const systolic::ArrayConfig& cfg, int max_batch,
                std::uint64_t window) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FUSE_CHECK(f != nullptr) << "cannot write " << path;
  // Every metric is a cycle-domain model output or, in the fingerprint, a
  // checksum at the given --kernel-isa: exact on any machine at one ISA.
  // Declared explicitly because "speedup_vs_b1" would otherwise hit the
  // wall-clock name heuristic in tools/bench_compare.py.
  std::fprintf(f,
               "{\n  \"bench\": \"bench_serve\",\n"
               "  \"array\": \"%s\",\n"
               "  \"max_batch\": %d,\n  \"batch_window\": %llu,\n"
               "  \"metric_families\": {\"exact\": [\"*\"]},\n"
               "  \"rows\": [\n",
               cfg.to_string().c_str(), max_batch,
               static_cast<unsigned long long>(window));
  bool first = true;
  const auto sep = [&first, f]() {
    if (!first) {
      std::fprintf(f, ",\n");
    }
    first = false;
  };
  for (const SaturationRow& r : saturation) {
    sep();
    std::fprintf(
        f,
        "    {\"experiment\": \"saturation\", \"scenario\": \"%s\", "
        "\"service_cycles_b1\": %llu, \"service_cycles_bmax\": %llu, "
        "\"makespan_b1\": %llu, \"makespan_batched\": %llu, "
        "\"mean_batch\": %.4f, \"p99_b1_cycles\": %.1f, "
        "\"p99_batched_cycles\": %.1f, \"throughput_b1_per_mcycle\": %.4f, "
        "\"throughput_batched_per_mcycle\": %.4f, \"speedup_vs_b1\": %.4f}",
        r.scenario.c_str(),
        static_cast<unsigned long long>(r.service_b1),
        static_cast<unsigned long long>(r.service_bmax),
        static_cast<unsigned long long>(r.makespan_b1),
        static_cast<unsigned long long>(r.makespan_batched), r.mean_batch,
        r.p99_b1, r.p99_batched, r.throughput_b1, r.throughput_batched,
        r.speedup);
  }
  for (const SweepRow& r : sweep) {
    sep();
    std::fprintf(
        f,
        "    {\"experiment\": \"rate_sweep\", \"label\": \"gap=%llu\", "
        "\"mean_gap\": %llu, "
        "\"offered\": %llu, \"completed\": %llu, \"rejected\": %llu, "
        "\"mean_batch\": %.4f, \"p50_cycles\": %.1f, \"p90_cycles\": %.1f, "
        "\"p99_cycles\": %.1f, \"throughput_per_mcycle\": %.4f}",
        static_cast<unsigned long long>(r.mean_gap),
        static_cast<unsigned long long>(r.mean_gap),
        static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.rejected), r.mean_batch, r.p50,
        r.p90, r.p99, r.throughput);
  }
  for (const TenantRow& r : tenants) {
    sep();
    std::fprintf(
        f,
        "    {\"experiment\": \"multi_tenant\", \"mix\": \"%s\", "
        "\"offered\": %llu, \"completed\": %llu, \"rejected\": %llu, "
        "\"batches\": %llu, \"mean_batch\": %.4f, \"p99_cycles\": %.1f, "
        "\"fingerprint\": \"%s\"}",
        r.mix.c_str(), static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.rejected),
        static_cast<unsigned long long>(r.batches), r.mean_batch, r.p99,
        r.fingerprint.c_str());
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("size", 64, "systolic array size (SxS)");
  flags.add_int("total", 96, "requests per closed-loop leg");
  flags.add_int("concurrency", 16, "closed-loop outstanding clients");
  flags.add_int("window", 400, "batch window (cycles) for batched legs");
  flags.add_int("max-batch", 8, "batch size cap");
  flags.add_int("workers", 2, "payload worker threads (tensor mode)");
  flags.add_string("json", "", "write machine-readable rows here");
  flags.add_bool("csv", false, "also write bench_serve.csv");
  bench::add_telemetry_flags(flags);
  bench::add_kernel_flags(flags);
  flags.parse(argc, argv);
  const nn::KernelChoice kernels = bench::kernel_choice_flags(flags);
  bench::TelemetryScope telemetry(flags);

  const auto cfg = systolic::square_array(flags.get_int("size"));
  const systolic::MemoryConfig mem;
  const int max_batch = flags.get_int32("max-batch");
  const std::uint64_t window =
      static_cast<std::uint64_t>(flags.get_int("window"));
  const int concurrency = flags.get_int32("concurrency");
  const std::int64_t total = flags.get_int("total");
  const int workers = flags.get_int32("workers");

  serve::ModelPool pool(cfg, mem);

  std::printf(
      "Multi-tenant serving: dynamic batching vs batch-1 on one array\n"
      "(%s array, %g B/cycle DRAM; closed loop, %d clients, %lld requests\n"
      "per leg; batched legs use window=%llu cycles, cap=%d; all times are\n"
      "virtual cycles, so every number is machine-independent)\n\n",
      cfg.to_string().c_str(), mem.dram_bytes_per_cycle, concurrency,
      static_cast<long long>(total),
      static_cast<unsigned long long>(window), max_batch);

  // --- 1. Saturation throughput: batch-1 vs batched, per scenario. ---
  struct Scenario {
    std::string label;
    serve::ShapeKey key;
  };
  const std::vector<Scenario> scenarios = {
      {"MobileNet-V1/Baseline@64",
       {nets::NetworkId::kMobileNetV1, core::NetworkVariant::kBaseline, 64,
        -1}},
      {"MobileNet-V1/FuSe-Full@32",
       {nets::NetworkId::kMobileNetV1, core::NetworkVariant::kFuseFull, 32,
        -1}},
      {"MobileNet-V2/FuSe-Full@32",
       {nets::NetworkId::kMobileNetV2, core::NetworkVariant::kFuseFull, 32,
        -1}},
  };

  serve::ServeConfig batch1;
  batch1.batch_window = 0;
  batch1.max_batch = 1;
  batch1.queue_capacity = 2 * concurrency;
  serve::ServeConfig batched = batch1;
  batched.batch_window = window;
  batched.max_batch = max_batch;

  util::TablePrinter sat_table({"Scenario", "Svc b1", "Svc b" +
                                std::to_string(max_batch),
                                "Mean batch", "p99 b1", "p99 batched",
                                "Thru b1", "Thru batched", "Speedup"});
  std::vector<SaturationRow> sat_rows;
  double best_speedup = 0.0;
  for (const Scenario& scenario : scenarios) {
    SaturationRow row;
    row.scenario = scenario.label;
    row.service_b1 = pool.service_cycles(scenario.key, 1);
    row.service_bmax = pool.service_cycles(scenario.key, max_batch);
    const LoopLeg leg1 =
        run_leg(pool, batch1, scenario.key, concurrency, total);
    const LoopLeg legb =
        run_leg(pool, batched, scenario.key, concurrency, total);
    row.makespan_b1 = leg1.makespan;
    row.makespan_batched = legb.makespan;
    row.mean_batch = legb.mean_batch;
    row.p99_b1 = leg1.p99;
    row.p99_batched = legb.p99;
    row.throughput_b1 = leg1.throughput;
    row.throughput_batched = legb.throughput;
    row.speedup = leg1.makespan == 0
                      ? 0.0
                      : static_cast<double>(leg1.makespan) /
                            static_cast<double>(legb.makespan);
    best_speedup = std::max(best_speedup, row.speedup);
    sat_table.add_row({row.scenario, util::with_commas(row.service_b1),
                       util::with_commas(row.service_bmax),
                       util::fixed(row.mean_batch, 2),
                       util::with_commas(
                           static_cast<std::uint64_t>(row.p99_b1)),
                       util::with_commas(
                           static_cast<std::uint64_t>(row.p99_batched)),
                       util::fixed(row.throughput_b1, 2),
                       util::fixed(row.throughput_batched, 2),
                       util::fixed(row.speedup, 2) + "x"});
    sat_rows.push_back(std::move(row));
  }
  sat_table.print(std::cout);

  // The PR's headline gate: batching must be worth >= 2x somewhere.
  FUSE_CHECK(best_speedup >= 2.0)
      << "dynamic batching best speedup " << best_speedup
      << "x is below the 2x serving gate";
  std::printf(
      "\nbest scenario: %.2fx batch-1 throughput (gate: >= 2x) — the win\n"
      "is weight traffic streamed once per batch instead of once per "
      "request\n\n",
      best_speedup);

  // --- 2. Open-loop rate sweep: throughput vs tail latency. ---
  const serve::ShapeKey sweep_key = scenarios[1].key;
  const std::uint64_t svc = pool.service_cycles(sweep_key, 1);
  // The sweep's batch window scales with the service time (a fixed small
  // window would never coalesce arrivals that are minutes-of-cycles
  // apart): under overload batches fill, under light load they stay
  // near 1 and requests pay only their own service time.
  const std::uint64_t sweep_window = svc;
  util::TablePrinter sweep_table({"Mean gap", "Offered", "Done", "Shed",
                                  "Mean batch", "p50", "p90", "p99",
                                  "Thru/Mcy"});
  std::vector<SweepRow> sweep_rows;
  // Gaps from ~4x overload (svc/4) to comfortable underload (2*svc).
  const std::vector<std::uint64_t> gaps = {svc / 4, svc / 2, svc,
                                           2 * svc};
  for (const std::uint64_t gap : gaps) {
    serve::ServeConfig config = batched;
    config.batch_window = sweep_window;
    config.queue_capacity = 32;
    serve::ServeEngine engine(config, &pool);
    const std::vector<serve::TraceShape> shapes = {
        serve::TraceShape{sweep_key, 0, 1}};
    const auto trace = serve::make_open_loop_trace(
        static_cast<std::int64_t>(total), gap, shapes, 0xfeedULL);
    serve::replay_trace(engine, trace);
    engine.drain();
    const serve::ServeStats stats = engine.stats();
    SweepRow row;
    row.mean_gap = gap;
    row.offered = stats.submitted;
    row.completed = stats.completed;
    row.rejected = stats.rejected;
    row.mean_batch = stats.mean_batch_size;
    row.p50 = stats.p50_latency_cycles;
    row.p90 = stats.p90_latency_cycles;
    row.p99 = stats.p99_latency_cycles;
    row.throughput = stats.throughput_per_mcycle;
    sweep_table.add_row(
        {util::with_commas(row.mean_gap), std::to_string(row.offered),
         std::to_string(row.completed), std::to_string(row.rejected),
         util::fixed(row.mean_batch, 2),
         util::with_commas(static_cast<std::uint64_t>(row.p50)),
         util::with_commas(static_cast<std::uint64_t>(row.p90)),
         util::with_commas(static_cast<std::uint64_t>(row.p99)),
         util::fixed(row.throughput, 2)});
    sweep_rows.push_back(row);
  }
  std::printf("Open-loop rate sweep (%s, window=%llu, cap=%d,\n"
              "queue capacity 32; gap is the mean inter-arrival time):\n",
              scenarios[1].label.c_str(),
              static_cast<unsigned long long>(sweep_window), max_batch);
  sweep_table.print(std::cout);

  // --- 3. Multi-tenant tensor-mode mix through the worker pool. ---
  serve::ModelPool tenant_pool(systolic::square_array(8), mem);
  serve::ShapeKey tenant_a;
  tenant_a.custom = tenant_pool.register_custom(tenant_chain_a());
  serve::ShapeKey tenant_b;
  tenant_b.custom = tenant_pool.register_custom(tenant_chain_b());
  serve::ServeConfig tenant_config;
  tenant_config.mode = serve::ExecMode::kTensor;
  tenant_config.batch_window = 4000;
  tenant_config.max_batch = 4;
  tenant_config.queue_capacity = 16;
  tenant_config.num_arrays = 2;
  tenant_config.workers = workers;
  tenant_config.kernels = kernels;
  serve::ServeEngine tenant_engine(tenant_config, &tenant_pool);
  const std::vector<serve::TraceShape> tenant_shapes = {
      serve::TraceShape{tenant_a, 0, 2},
      serve::TraceShape{tenant_b, 0, 1},
  };
  const auto tenant_trace =
      serve::make_open_loop_trace(64, 2000, tenant_shapes, 0x7e4a47ULL);
  serve::replay_trace(tenant_engine, tenant_trace);
  tenant_engine.drain();
  const serve::ServeStats tenant_stats = tenant_engine.stats();
  TenantRow tenant_row;
  tenant_row.mix = "tenant-a:2 tenant-b:1";
  tenant_row.offered = tenant_stats.submitted;
  tenant_row.completed = tenant_stats.completed;
  tenant_row.rejected = tenant_stats.rejected;
  tenant_row.batches = tenant_stats.batches;
  tenant_row.mean_batch = tenant_stats.mean_batch_size;
  tenant_row.p99 = tenant_stats.p99_latency_cycles;
  tenant_row.fingerprint = response_fingerprint(tenant_engine);
  std::printf(
      "\nMulti-tenant tensor mode (2 chains, 2 arrays, %d workers): %llu/"
      "%llu completed in %llu batches (mean %.2f), p99 %llu cycles\n"
      "response fingerprint: %s (byte-identical for any --workers)\n",
      workers, static_cast<unsigned long long>(tenant_row.completed),
      static_cast<unsigned long long>(tenant_row.offered),
      static_cast<unsigned long long>(tenant_row.batches),
      tenant_row.mean_batch,
      static_cast<unsigned long long>(tenant_row.p99),
      tenant_row.fingerprint.c_str());

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    write_json(json_path, sat_rows, sweep_rows, {tenant_row}, cfg,
               max_batch, window);
  }
  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_serve.csv");
    csv.write_header({"experiment", "label", "offered", "completed",
                      "rejected", "mean_batch", "p99_cycles",
                      "throughput_per_mcycle", "speedup_vs_b1"});
    for (const SaturationRow& r : sat_rows) {
      csv.write_row({"saturation", r.scenario, std::to_string(total),
                     std::to_string(total), "0",
                     util::fixed(r.mean_batch, 4),
                     util::fixed(r.p99_batched, 1),
                     util::fixed(r.throughput_batched, 4),
                     util::fixed(r.speedup, 4)});
    }
    for (const SweepRow& r : sweep_rows) {
      csv.write_row({"rate_sweep", "gap=" + std::to_string(r.mean_gap),
                     std::to_string(r.offered), std::to_string(r.completed),
                     std::to_string(r.rejected),
                     util::fixed(r.mean_batch, 4), util::fixed(r.p99, 1),
                     util::fixed(r.throughput, 4), ""});
    }
    csv.write_row({"multi_tenant", tenant_row.mix,
                   std::to_string(tenant_row.offered),
                   std::to_string(tenant_row.completed),
                   std::to_string(tenant_row.rejected),
                   util::fixed(tenant_row.mean_batch, 4),
                   util::fixed(tenant_row.p99, 1), "", ""});
    std::printf("wrote bench_serve.csv\n");
  }
  return 0;
}
