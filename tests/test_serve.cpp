// Serving-engine contract: deadline-bounded batching, admission control
// and load shedding, clean drains with work in flight, and — the property
// everything else leans on — byte-determinism of every scheduling decision
// and payload checksum across worker thread counts (1/2/4) and beside an
// engine on another kernel ISA (tools/check.sh runs this suite under
// ThreadSanitizer and AddressSanitizer).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nn/layer.hpp"
#include "nn/ops.hpp"
#include "sched/netplan.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/model_pool.hpp"
#include "serve/request.hpp"
#include "systolic/config.hpp"
#include "systolic/memory.hpp"
#include "util/check.hpp"

namespace fuse::serve {
namespace {

using systolic::MemoryConfig;

/// A tiny chain-executable model: conv -> depthwise -> pointwise.
nets::NetworkModel small_chain() {
  nets::NetworkModel model;
  model.name = "chain-a";
  model.layers.push_back(nn::make_conv("c1", 3, 8, 8, 4, 3, 1, 1));
  model.layers.push_back(nn::make_depthwise("dw1", 4, 8, 8, 3, 1, 1));
  model.layers.push_back(nn::make_pointwise("pw1", 4, 8, 8, 6));
  return model;
}

/// A second chain shape (different geometry) for multi-tenant traces.
nets::NetworkModel other_chain() {
  nets::NetworkModel model;
  model.name = "chain-b";
  model.layers.push_back(nn::make_depthwise("dw1", 5, 6, 6, 3, 1, 1));
  model.layers.push_back(nn::make_pointwise("pw1", 5, 6, 6, 3));
  return model;
}

/// Pool over a small array (fast plans, fast simulation).
ModelPool make_pool() {
  return ModelPool(systolic::square_array(8), MemoryConfig{});
}

ShapeKey custom_key(int index) {
  ShapeKey key;
  key.custom = index;
  return key;
}

/// The checksum of request `id`'s standalone nn::conv2d chain on
/// `kernels`.
std::uint64_t standalone_checksum(ModelPool& pool, const ShapeKey& key,
                                  std::uint64_t id,
                                  const nn::KernelChoice& kernels) {
  const ModelEntry& entry = pool.entry(key);
  const std::vector<tensor::Tensor>& weights = pool.weights(key);
  tensor::Tensor activation = request_input(entry, ServeConfig{}.seed, id);
  for (std::size_t l = 0; l < entry.model.layers.size(); ++l) {
    const nn::LayerDesc& layer = entry.model.layers[l];
    nn::Conv2dParams params;
    params.stride_h = layer.stride_h;
    params.stride_w = layer.stride_w;
    params.pad_h = layer.pad_h;
    params.pad_w = layer.pad_w;
    params.groups = layer.groups;
    activation = nn::conv2d(activation, weights[l], nullptr, params, kernels);
  }
  return tensor_checksum(activation);
}

/// Serializes every response field so determinism checks are byte-wise.
std::string fingerprint(const ServeEngine& engine) {
  std::ostringstream out;
  for (std::uint64_t id = 0; id < engine.num_requests(); ++id) {
    const ResponseRecord r = engine.response(id);
    out << r.id << '|' << shape_key_name(r.key) << '|'
        << request_status_name(r.status) << '|' << r.arrival_cycle << '|'
        << r.dispatch_cycle << '|' << r.start_cycle << '|'
        << r.completion_cycle << '|' << r.batch_id << '|' << r.batch_size
        << '|' << r.array_index << '|' << r.checksum << '\n';
  }
  return out.str();
}

TEST(ModelPool, ChainExecutabilityClassification) {
  EXPECT_TRUE(is_chain_executable(small_chain()));
  EXPECT_TRUE(is_chain_executable(other_chain()));
  // Zoo networks carry pool/residual glue, so they serve in cycle mode
  // only.
  EXPECT_FALSE(is_chain_executable(
      nets::build_network(nets::NetworkId::kMobileNetV2)));
}

TEST(ModelPool, ServiceCyclesMatchesRooflineAtBatchOne) {
  ModelPool pool = make_pool();
  const ShapeKey key{nets::NetworkId::kMobileNetV1,
                     core::NetworkVariant::kBaseline, 224, -1};
  const ModelEntry& entry = pool.entry(key);
  // In the default per-layer schedule the batched bound at batch 1 is
  // exactly the plan's roofline bound: same lowering, same traffic model.
  EXPECT_EQ(pool.service_cycles(key, 1),
            sched::plan_roofline(entry.plan).bound_cycles);
  EXPECT_EQ(pool.entries(), 1u);
  pool.entry(key);  // memoized: repeat lookups do not rebuild
  EXPECT_EQ(pool.entries(), 1u);
}

TEST(ModelPool, BatchingAmortizesTheRooflineBound) {
  ModelPool pool = make_pool();
  const ShapeKey key{nets::NetworkId::kMobileNetV1,
                     core::NetworkVariant::kFuseFull, 32, -1};
  const std::uint64_t b1 = pool.service_cycles(key, 1);
  const std::uint64_t b8 = pool.service_cycles(key, 8);
  // Weight traffic streams once per batch, so 8 batched inferences cost
  // strictly less than 8 serial ones (the mechanism bench_serve measures).
  EXPECT_LT(b8, 8 * b1);
  EXPECT_GE(b8, b1);  // still at least one inference's work
}

TEST(ModelPool, ScaledResolutionRejectsUnsupportedNetworks) {
  ModelPool pool = make_pool();
  const ShapeKey key{nets::NetworkId::kMnasNetB1,
                     core::NetworkVariant::kBaseline, 64, -1};
  EXPECT_THROW(pool.entry(key), util::Error);
}

TEST(ServeEngine, ZeroWindowIsPureFifo) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.batch_window = 0;
  config.max_batch = 8;
  ServeEngine engine(config, &pool);
  const std::uint64_t service = pool.service_cycles(key, 1);
  for (int i = 0; i < 4; ++i) {
    engine.submit(key, 0, 0);
  }
  engine.drain();
  for (std::uint64_t id = 0; id < 4; ++id) {
    const ResponseRecord r = engine.response(id);
    EXPECT_EQ(r.status, RequestStatus::kCompleted);
    EXPECT_EQ(r.batch_size, 1) << "zero window must not batch";
    EXPECT_EQ(r.batch_id, id) << "FIFO dispatch order";
    // One array serves back to back: request i starts when i-1 finishes.
    EXPECT_EQ(r.start_cycle, id * service);
    EXPECT_EQ(r.completion_cycle, (id + 1) * service);
  }
}

TEST(ServeEngine, WindowCoalescesAndDeadlineAnchorsToFirstArrival) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.batch_window = 100;
  config.max_batch = 8;
  ServeEngine engine(config, &pool);
  engine.submit(key, 0, 10);
  engine.submit(key, 0, 50);
  engine.submit(key, 0, 90);
  engine.drain();
  for (std::uint64_t id = 0; id < 3; ++id) {
    const ResponseRecord r = engine.response(id);
    EXPECT_EQ(r.status, RequestStatus::kCompleted);
    EXPECT_EQ(r.batch_size, 3);
    EXPECT_EQ(r.batch_id, 0u);
    EXPECT_EQ(r.dispatch_cycle, 110u) << "deadline = first arrival + window";
  }
  // Batched service is the batch-3 roofline bound, not 3x the batch-1 one.
  EXPECT_EQ(engine.response(0).completion_cycle,
            110 + pool.service_cycles(key, 3));
}

TEST(ServeEngine, BatchClosesEarlyAtTheCap) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.batch_window = 1000;
  config.max_batch = 2;
  ServeEngine engine(config, &pool);
  engine.submit(key, 0, 5);
  engine.submit(key, 0, 7);  // cap reached: dispatch now, not at 1005
  engine.submit(key, 0, 8);  // opens a fresh batch
  engine.drain();
  EXPECT_EQ(engine.response(0).dispatch_cycle, 7u);
  EXPECT_EQ(engine.response(1).dispatch_cycle, 7u);
  EXPECT_EQ(engine.response(0).batch_size, 2);
  EXPECT_EQ(engine.response(2).batch_id, 1u);
  EXPECT_EQ(engine.response(2).dispatch_cycle, 1008u);
}

TEST(ServeEngine, PositiveBatchHintTightensTheCap) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.batch_window = 1000;
  config.max_batch = 8;
  ServeEngine engine(config, &pool);
  engine.submit(key, 2, 0);  // hint 2: this batch caps at 2 members
  engine.submit(key, 0, 1);
  engine.submit(key, 0, 2);
  engine.drain();
  EXPECT_EQ(engine.response(0).batch_size, 2);
  EXPECT_EQ(engine.response(1).batch_size, 2);
  EXPECT_EQ(engine.response(0).dispatch_cycle, 1u);
  EXPECT_EQ(engine.response(2).batch_size, 1);
}

TEST(ServeEngine, QueueFullRejectsTheArrival) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.batch_window = 1000;
  config.max_batch = 8;
  config.queue_capacity = 2;
  ServeEngine engine(config, &pool);
  engine.submit(key, 0, 0);
  engine.submit(key, 0, 0);
  const std::uint64_t shed = engine.submit(key, 0, 0);
  EXPECT_EQ(engine.response(shed).status, RequestStatus::kRejected);
  engine.drain();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(engine.response(0).batch_size, 2);
}

TEST(ServeEngine, CapacityFreedByRetirementReadmits) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.batch_window = 0;
  config.queue_capacity = 1;
  ServeEngine engine(config, &pool);
  const std::uint64_t service = pool.service_cycles(key, 1);
  engine.submit(key, 0, 0);
  // Arrives after the first completes: the advance inside submit retires
  // it, freeing the single slot.
  const std::uint64_t second = engine.submit(key, 0, service);
  EXPECT_NE(engine.response(second).status, RequestStatus::kRejected);
  engine.drain();
  EXPECT_EQ(engine.stats().completed, 2u);
}

TEST(ServeEngine, DrainWithInFlightAndQueuedWorkCompletesEverything) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.mode = ExecMode::kTensor;  // payload tasks genuinely in flight
  config.batch_window = 500;
  config.max_batch = 4;
  config.workers = 2;
  ServeEngine engine(config, &pool);
  engine.submit(key, 0, 0);
  engine.submit(key, 0, 1);
  engine.submit(key, 0, 600);  // dispatches the first batch, opens another
  engine.drain();  // second batch still open, first possibly in flight
  for (std::uint64_t id = 0; id < 3; ++id) {
    EXPECT_EQ(engine.response(id).status, RequestStatus::kCompleted);
    EXPECT_NE(engine.response(id).checksum, 0u) << "payload must have run";
  }
  // The engine stays usable after a drain.
  const std::uint64_t more = engine.submit(key, 0, engine.now());
  engine.drain();
  EXPECT_EQ(engine.response(more).status, RequestStatus::kCompleted);
  EXPECT_NE(engine.response(more).checksum, 0u);
}

TEST(ServeEngine, ArrivalsMustBeNondecreasing) {
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeEngine engine(ServeConfig{}, &pool);
  engine.submit(key, 0, 100);
  EXPECT_THROW(engine.submit(key, 0, 99), util::Error);
}

TEST(ServeEngine, WrappingWindowRejectedNamingWindowAndArrival) {
  // A window so large that arrival + window wraps (what a negative
  // --window cast to uint64 gives) or reaches the kNoEvent sentinel.
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  ServeConfig config;
  config.batch_window = ServeEngine::kNoEvent - 100;
  ServeEngine engine(config, &pool);
  EXPECT_NO_THROW(engine.submit(key, 0, 99));
  try {
    engine.submit(key, 0, 100);
    ADD_FAILURE() << "a deadline at kNoEvent was accepted";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(config.batch_window)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("arrival 100"), std::string::npos) << what;
  }
  EXPECT_THROW(engine.submit(key, 0, 101), util::Error);
}

TEST(ServeEngine, TensorModeRejectsNonChainShapes) {
  ModelPool pool = make_pool();
  ServeConfig config;
  config.mode = ExecMode::kTensor;
  ServeEngine engine(config, &pool);
  const ShapeKey zoo{nets::NetworkId::kMobileNetV2,
                     core::NetworkVariant::kBaseline, 224, -1};
  EXPECT_THROW(engine.submit(zoo, 0, 0), util::Error);
}

TEST(ServeEngine, BatchedChecksumsMatchStandaloneRuns) {
  // Batch composition must not change any request's numerics: a request's
  // slice of a batched pass is bit-identical to its own batch-1 run, in
  // BOTH execution modes. Across modes, tensor mode on the scalar kernels
  // sums the same exact double products in the same order as the PE grid,
  // so its checksums equal simulate mode's; the default choice on an AVX2
  // machine accumulates in float and differs (test_execute bounds that).
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));

  const auto run = [&pool, &key](ExecMode mode, std::uint64_t window,
                                 int workers,
                                 const nn::KernelChoice& kernels = {}) {
    ServeConfig config;
    config.mode = mode;
    config.batch_window = window;
    config.max_batch = 4;
    config.workers = workers;
    config.kernels = kernels;
    ServeEngine engine(config, &pool);
    for (int i = 0; i < 4; ++i) {
      engine.submit(key, 0, 0);
    }
    engine.drain();
    std::vector<std::uint64_t> sums;
    for (std::uint64_t id = 0; id < 4; ++id) {
      EXPECT_EQ(engine.response(id).batch_size, window == 0 ? 1 : 4);
      sums.push_back(engine.response(id).checksum);
    }
    return sums;
  };

  const auto batched_tensor = run(ExecMode::kTensor, 100, 2);
  const auto single_tensor = run(ExecMode::kTensor, 0, 2);
  const auto batched_sim = run(ExecMode::kSimulate, 100, 2);
  const auto single_sim = run(ExecMode::kSimulate, 0, 1);
  const auto scalar_tensor =
      run(ExecMode::kTensor, 100, 2,
          {nn::KernelBackend::kFast, nn::KernelIsa::kScalar});
  EXPECT_EQ(batched_tensor, single_tensor)
      << "batching must not change tensor-mode numerics";
  EXPECT_EQ(batched_sim, single_sim)
      << "batching must not change simulate-mode numerics";
  EXPECT_EQ(scalar_tensor, batched_sim)
      << "scalar tensor mode must reproduce the PE grid's sums";
  for (const std::uint64_t sum : batched_tensor) {
    EXPECT_NE(sum, 0u);
  }
  for (const std::uint64_t sum : batched_sim) {
    EXPECT_NE(sum, 0u);
  }
}

TEST(ServeEngine, ChecksumsOfEveryBatchSizeMatchBatchOne) {
  // The payload hashes a batch's rows in place, four requests' chains at
  // a time with a 3-, 2- or 1-row tail: batches of 1 to 9 cover two
  // four-row groups and every tail. Each checksum must equal the
  // request's batch-1 run and its standalone nn::conv2d chain.
  constexpr std::uint64_t kMax = 9;
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  const auto run = [&pool, &key](std::uint64_t requests,
                                 std::uint64_t window) {
    ServeConfig config;
    config.mode = ExecMode::kTensor;
    config.batch_window = window;
    config.max_batch = kMax;
    ServeEngine engine(config, &pool);
    for (std::uint64_t i = 0; i < requests; ++i) {
      engine.submit(key, 0, 0);
    }
    engine.drain();
    std::vector<std::uint64_t> sums;
    for (std::uint64_t id = 0; id < requests; ++id) {
      const ResponseRecord r = engine.response(id);
      EXPECT_EQ(r.status, RequestStatus::kCompleted);
      EXPECT_EQ(r.batch_size, window == 0 ? 1 : requests);
      sums.push_back(r.checksum);
    }
    return sums;
  };

  const std::vector<std::uint64_t> single = run(kMax, 0);
  for (std::uint64_t id = 0; id < kMax; ++id) {
    EXPECT_EQ(single[id], standalone_checksum(pool, key, id, {}))
        << "request " << id;
  }
  for (std::uint64_t batch = 1; batch <= kMax; ++batch) {
    const std::vector<std::uint64_t> sums = run(batch, 1000);
    for (std::uint64_t id = 0; id < batch; ++id) {
      EXPECT_EQ(sums[id], single[id])
          << "request " << id << " of a batch of " << batch;
    }
  }
}

TEST(ServeEngine, ResponsesAreByteDeterministicAcrossWorkerCounts) {
  // The acceptance-criteria pin: one mixed trace (two tenants, hints,
  // shedding, two arrays), replayed at workers 1/2/4 — identical bytes.
  ModelPool pool = make_pool();
  const ShapeKey key_a = custom_key(pool.register_custom(small_chain()));
  const ShapeKey key_b = custom_key(pool.register_custom(other_chain()));
  const std::vector<TraceShape> shapes = {
      TraceShape{key_a, 0, 3},
      TraceShape{key_b, 2, 1},
  };
  const std::vector<TraceEntry> trace =
      make_open_loop_trace(48, 40, shapes, 0xfeedULL);

  std::string reference;
  ServeStats reference_stats;
  for (const int workers : {1, 2, 4}) {
    ServeConfig config;
    config.mode = ExecMode::kTensor;
    config.batch_window = 120;
    config.max_batch = 4;
    config.queue_capacity = 6;  // small: the trace must shed sometimes
    config.num_arrays = 2;
    config.workers = workers;
    ServeEngine engine(config, &pool);
    replay_trace(engine, trace);
    engine.drain();
    const std::string print = fingerprint(engine);
    const ServeStats stats = engine.stats();
    if (reference.empty()) {
      reference = print;
      reference_stats = stats;
      EXPECT_GT(stats.completed, 0u);
    } else {
      EXPECT_EQ(print, reference) << "workers=" << workers;
      EXPECT_EQ(stats.p99_latency_cycles, reference_stats.p99_latency_cycles);
      EXPECT_EQ(stats.makespan_cycles, reference_stats.makespan_cycles);
    }
  }
}

TEST(ServeEngine, EnginesOnDifferentIsasServeSideBySide) {
  // Two tensor-mode engines in one process, one on the scalar kernels and
  // one on AVX2, each driven from its own thread: the kernel route is each
  // engine's own config, so each reproduces its single-engine checksums
  // and its standalone nn::conv2d chain at its choice. The AVX2 engine is
  // skipped where AVX2 is missing.
  std::vector<nn::KernelChoice> choices = {
      {nn::KernelBackend::kFast, nn::KernelIsa::kScalar}};
  if (nn::kernel_isa_available(nn::KernelIsa::kAvx2)) {
    choices.push_back({nn::KernelBackend::kFast, nn::KernelIsa::kAvx2});
  } else {
    std::printf("note: avx2 kernels unavailable on this machine; the "
                "AVX2 engine is skipped\n");
  }
  ModelPool pool = make_pool();
  const ShapeKey key = custom_key(pool.register_custom(small_chain()));
  constexpr std::uint64_t kRequests = 8;
  const auto run = [&pool, &key](const nn::KernelChoice& kernels) {
    ServeConfig config;
    config.mode = ExecMode::kTensor;
    config.batch_window = 100;
    config.max_batch = 4;
    config.workers = 2;
    config.kernels = kernels;
    ServeEngine engine(config, &pool);
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      engine.submit(key, 0, 0);
    }
    engine.drain();
    std::vector<std::uint64_t> sums;
    for (std::uint64_t id = 0; id < kRequests; ++id) {
      EXPECT_EQ(engine.response(id).status, RequestStatus::kCompleted);
      sums.push_back(engine.response(id).checksum);
    }
    return sums;
  };

  std::vector<std::vector<std::uint64_t>> alone;
  for (const nn::KernelChoice& kernels : choices) {
    alone.push_back(run(kernels));
  }
  std::vector<std::vector<std::uint64_t>> together(choices.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    threads.emplace_back([&, i] { together[i] = run(choices[i]); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t i = 0; i < choices.size(); ++i) {
    SCOPED_TRACE(nn::kernel_isa_name(choices[i].isa));
    EXPECT_EQ(together[i], alone[i]);
    for (std::uint64_t id = 0; id < kRequests; ++id) {
      EXPECT_EQ(alone[i][id], standalone_checksum(pool, key, id, choices[i]))
          << "request " << id;
    }
  }
  if (choices.size() == 2) {
    // The two engines really ran different kernels.
    EXPECT_NE(alone[0], alone[1]);
  }
}

TEST(ServeEngine, StatsPercentilesAreExactOrderStatistics) {
  const std::vector<std::uint64_t> sorted = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({7}, 0.99), 7.0);
}

TEST(LoadGen, OpenLoopTraceIsDeterministicAndSorted) {
  const std::vector<TraceShape> shapes = {TraceShape{custom_key(0), 0, 1}};
  const auto a = make_open_loop_trace(100, 25, shapes, 42);
  const auto b = make_open_loop_trace(100, 25, shapes, 42);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_cycle, b[i].arrival_cycle);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_cycle, a[i - 1].arrival_cycle);
    }
  }
  const auto c = make_open_loop_trace(100, 25, shapes, 43);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].arrival_cycle != c[i].arrival_cycle;
  }
  EXPECT_TRUE(differs) << "different seeds should give different traces";
}

TEST(LoadGen, ClosedLoopBatchingBeatsBatchOneThroughput) {
  // The bench_serve claim in miniature: same shape, same total work, same
  // arrays — batched serving finishes the closed-loop run in fewer cycles
  // than batch-1 serving.
  ModelPool pool = make_pool();
  const ShapeKey key{nets::NetworkId::kMobileNetV1,
                     core::NetworkVariant::kFuseFull, 32, -1};
  constexpr std::int64_t kTotal = 32;

  ServeConfig batch1;
  batch1.batch_window = 0;
  batch1.max_batch = 1;
  batch1.queue_capacity = 64;
  ServeEngine engine1(batch1, &pool);
  const ClosedLoopResult r1 = run_closed_loop(engine1, key, 0, 8, kTotal);

  ServeConfig batched = batch1;
  batched.batch_window = 50;
  batched.max_batch = 8;
  ServeEngine engine8(batched, &pool);
  const ClosedLoopResult r8 = run_closed_loop(engine8, key, 0, 8, kTotal);

  EXPECT_EQ(r1.completed, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(r8.completed, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(r1.rejected, 0u);
  EXPECT_EQ(r8.rejected, 0u);
  EXPECT_LT(r8.makespan_cycles, r1.makespan_cycles);
  EXPECT_GT(engine8.stats().mean_batch_size, 1.0);
}

}  // namespace
}  // namespace fuse::serve
