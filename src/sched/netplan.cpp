#include "sched/netplan.hpp"

#include <algorithm>

#include "systolic/trace.hpp"
#include "util/check.hpp"
#include "util/telemetry.hpp"

namespace fuse::sched {

using nn::LayerDesc;
using nn::OpKind;
using systolic::ArrayConfig;
using systolic::FoldTile;
using systolic::MappingPlan;
using systolic::MemoryConfig;
using systolic::PrimitiveKind;
using systolic::PrimitiveOp;

// --- schedule modes ---------------------------------------------------------

const char* sched_mode_name(SchedMode mode) {
  switch (mode) {
    case SchedMode::kPerLayer:
      return "per-layer";
    case SchedMode::kFused:
      return "fused";
  }
  return "?";
}

bool parse_sched_mode(const std::string& name, SchedMode* out) {
  if (name == "per-layer" || name == "per_layer" || name == "perlayer") {
    *out = SchedMode::kPerLayer;
    return true;
  }
  if (name == "fused") {
    *out = SchedMode::kFused;
    return true;
  }
  return false;
}

namespace {

std::uint64_t activation_bytes(std::int64_t c, std::int64_t h,
                               std::int64_t w, const MemoryConfig& mem) {
  return static_cast<std::uint64_t>(c * h * w) *
         static_cast<std::uint64_t>(mem.dtype_bytes);
}

/// Liveness-based first-fit allocation of the activation buffers into
/// [staging_bytes, sram_bytes). Buffers arrive ordered by first_step;
/// two buffers conflict iff their live step intervals intersect, in which
/// case their byte ranges must be disjoint (tests/test_netplan.cpp pins
/// exactly that invariant).
void allocate_buffers(std::vector<ActivationBuffer>& buffers,
                      std::uint64_t staging_bytes, const MemoryConfig& mem) {
  const std::uint64_t sram = static_cast<std::uint64_t>(mem.sram_bytes);
  struct Active {
    std::uint64_t offset;
    std::uint64_t bytes;
    std::size_t last_step;
  };
  std::vector<Active> active;
  static util::Counter& spilled_counter =
      util::metrics().counter("netplan.buffers_spilled");
  std::uint64_t spilled = 0;
  for (ActivationBuffer& buffer : buffers) {
    // Expire allocations whose liveness ended before this buffer starts.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](const Active& a) {
                                  return a.last_step < buffer.first_step;
                                }),
                 active.end());
    if (staging_bytes + buffer.bytes > sram) {
      buffer.spilled = true;
      ++spilled;
      continue;
    }
    std::sort(active.begin(), active.end(),
              [](const Active& a, const Active& b) {
                return a.offset < b.offset;
              });
    std::uint64_t candidate = staging_bytes;
    for (const Active& a : active) {
      if (candidate + buffer.bytes <= a.offset) {
        break;  // fits in the gap before this allocation
      }
      candidate = std::max(candidate, a.offset + a.bytes);
    }
    if (candidate + buffer.bytes > sram) {
      buffer.spilled = true;
      ++spilled;
      continue;
    }
    buffer.offset = candidate;
    active.push_back({candidate, buffer.bytes, buffer.last_step});
  }
  spilled_counter.add(spilled);
}

/// Resident (non-spilled) activation bytes live at on-array step `step`.
std::uint64_t resident_bytes_at(const std::vector<ActivationBuffer>& buffers,
                                std::size_t step) {
  std::uint64_t bytes = 0;
  for (const ActivationBuffer& buffer : buffers) {
    if (!buffer.spilled && buffer.first_step <= step &&
        step <= buffer.last_step) {
      bytes += buffer.bytes;
    }
  }
  return bytes;
}

/// True when every layer strictly between `from` and `to` is activation
/// glue — the only op the fused pair may carry across (it is elementwise
/// on the SRAM-resident tile). Pools and adds re-shape or merge tensors
/// and break the producer/consumer tiling correspondence.
bool only_activation_between(const nets::NetworkModel& model,
                             std::size_t from, std::size_t to) {
  for (std::size_t i = from + 1; i < to; ++i) {
    if (model.layers[i].kind != OpKind::kActivation) {
      return false;
    }
  }
  return true;
}

/// One producer fold in canonical (pass-major, row-major) order: its cycle
/// cost from the priced walk (for_each_fold) and the first consumer
/// row-stripe that needs any output position it produces.
struct ProducerFold {
  std::uint64_t cycles = 0;
  std::size_t deadline = 0;
};

/// Enumerates the depthwise producer's folds. The plan is
/// [positions, taps] x [taps, 1] repeated per channel, and the consumer
/// tiles the SAME position axis by cfg.rows, so fold (channel, row-tile i)
/// feeds exactly consumer stripe i.
void enumerate_depthwise_folds(const PrimitiveOp& op, const ArrayConfig& cfg,
                               std::vector<ProducerFold>& folds) {
  systolic::for_each_fold(op, cfg, [&](const FoldTile& tile,
                                       std::uint64_t cycles, std::uint64_t) {
    folds.push_back({cycles, static_cast<std::size_t>(tile.a0 / cfg.rows)});
  });
}

/// Enumerates a broadcast FuSe producer's folds. Lines are packed c-major
/// (line = channel * line_count + spatial index), so one fold tile spans
/// several spatial lines; its deadline is the earliest consumer stripe
/// touching any KEPT output position it produces. Strided layers compute
/// the dense width and discard — folds covering only discarded outputs get
/// deadline 0 (emitted eagerly; ordering only, the cost is unchanged).
void enumerate_fuse_folds(const LayerDesc& producer, const PrimitiveOp& op,
                          const ArrayConfig& cfg,
                          std::vector<ProducerFold>& folds) {
  const bool row_branch = producer.kind == OpKind::kFuseRowConv;
  const std::int64_t line_count =
      row_branch ? producer.out_h : producer.out_w;
  const std::int64_t kept = row_branch ? producer.out_w : producer.out_h;
  const std::int64_t stride =
      op.line_out == kept
          ? 1
          : (row_branch ? producer.stride_w : producer.stride_h);
  const std::int64_t out_w = producer.out_w;
  systolic::for_each_fold(op, cfg, [&](const FoldTile& tile,
                                       std::uint64_t cycles, std::uint64_t) {
    // Smallest kept output index inside this tile's column range.
    const std::int64_t first_kept = (tile.b0 + stride - 1) / stride;
    const std::int64_t last_kept = (tile.b0 + tile.cols - 1) / stride;
    std::int64_t min_pos = -1;
    if (first_kept <= last_kept && first_kept < kept) {
      for (std::int64_t l = tile.a0;
           l < tile.a0 + tile.rows && l < op.lines; ++l) {
        const std::int64_t spatial = l % line_count;
        // Row branch: line = output row y, kept index = output col x.
        // Col branch: line = output col x, kept index = output row y.
        const std::int64_t pos = row_branch
                                     ? spatial * out_w + first_kept
                                     : first_kept * out_w + spatial;
        if (min_pos < 0 || pos < min_pos) {
          min_pos = pos;
        }
      }
    }
    folds.push_back({cycles, min_pos < 0 ? 0
                                         : static_cast<std::size_t>(
                                               min_pos / cfg.rows)});
  });
}

/// Per-row-stripe cost of the pointwise consumer's single matmul pass.
struct ConsumerStripe {
  std::uint64_t cycles = 0;
  std::uint64_t folds = 0;
};

std::vector<ConsumerStripe> consumer_stripes(const PrimitiveOp& op,
                                             const ArrayConfig& cfg) {
  std::vector<ConsumerStripe> stripes(
      static_cast<std::size_t>((op.m + cfg.rows - 1) / cfg.rows));
  systolic::for_each_fold(op, cfg, [&](const FoldTile& tile,
                                       std::uint64_t cycles, std::uint64_t) {
    ConsumerStripe& stripe =
        stripes[static_cast<std::size_t>(tile.a0 / cfg.rows)];
    stripe.cycles += cycles;
    ++stripe.folds;
  });
  return stripes;
}

/// Whether the producer's plan is one of the shapes the fold interleaver
/// understands (single-op plans on the output-stationary dataflow; other
/// dataflows and the no-broadcast fallback run the pair as two sequential
/// fused segments — the traffic saving is schedule-order independent).
bool interleavable(const LayerDesc& producer, const MappingPlan& plan,
                   const ArrayConfig& cfg) {
  if (cfg.dataflow != systolic::Dataflow::kOutputStationary ||
      plan.ops.size() != 1) {
    return false;
  }
  const PrimitiveOp& op = plan.ops.front();
  if (producer.kind == OpKind::kDepthwiseConv) {
    return op.kind == PrimitiveKind::kIm2colTile && op.n == 1;
  }
  return op.kind == PrimitiveKind::kFuse1DLine && op.broadcast;
}

/// Emits the interleaved schedule of one fused group (one or two
/// producers feeding one pointwise consumer): each producer's folds are
/// bucketed by the first consumer stripe that needs them, and each stripe
/// launches as soon as every bucket feeding it has landed. Only whole
/// folds move — every fold keeps its analytic cost, so the group's span is
/// exactly the sum of the member latencies.
void emit_interleaved_group(const NetworkPlan& plan,
                            const nets::NetworkModel& model,
                            const std::vector<std::size_t>& producers,
                            std::size_t c_idx, std::uint64_t pair_sram,
                            std::uint64_t& cursor,
                            std::vector<ScheduleSegment>& segments) {
  const ArrayConfig& cfg = plan.cfg;
  const PrimitiveOp& c_op = plan.layer_plans[c_idx].ops.front();
  const std::vector<ConsumerStripe> stripes = consumer_stripes(c_op, cfg);

  // Per producer: folds plus their deadline buckets (clamped to the
  // stripe count).
  std::vector<std::vector<ProducerFold>> folds(producers.size());
  std::vector<std::vector<std::vector<std::size_t>>> buckets(
      producers.size());
  for (std::size_t p = 0; p < producers.size(); ++p) {
    const std::size_t p_idx = producers[p];
    const PrimitiveOp& p_op = plan.layer_plans[p_idx].ops.front();
    if (p_op.kind == PrimitiveKind::kIm2colTile) {
      enumerate_depthwise_folds(p_op, cfg, folds[p]);
    } else {
      // The producer LayerDesc drives the line -> position mapping.
      enumerate_fuse_folds(model.layers[p_idx], p_op, cfg, folds[p]);
    }
    buckets[p].resize(stripes.size());
    for (std::size_t i = 0; i < folds[p].size(); ++i) {
      const std::size_t d =
          std::min(folds[p][i].deadline, stripes.size() - 1);
      buckets[p][d].push_back(i);
    }
  }

  const std::uint64_t start = cursor;
  for (std::size_t s = 0; s < stripes.size(); ++s) {
    for (std::size_t p = 0; p < producers.size(); ++p) {
      std::uint64_t producer_cycles = 0;
      for (std::size_t i : buckets[p][s]) {
        producer_cycles += folds[p][i].cycles;
      }
      if (producer_cycles == 0) {
        continue;
      }
      ScheduleSegment seg;
      seg.layer_index = producers[p];
      seg.start_cycle = cursor;
      seg.end_cycle = cursor + producer_cycles;
      seg.folds = buckets[p][s].size();
      seg.fused = true;
      seg.sram_bytes = pair_sram;
      cursor = seg.end_cycle;
      segments.push_back(seg);
    }
    ScheduleSegment seg;
    seg.layer_index = c_idx;
    seg.start_cycle = cursor;
    seg.end_cycle = cursor + stripes[s].cycles;
    seg.folds = stripes[s].folds;
    seg.fused = true;
    seg.sram_bytes = pair_sram;
    cursor = seg.end_cycle;
    segments.push_back(seg);
  }
  std::uint64_t expected = plan.layer_latency[c_idx].cycles;
  for (const std::size_t p_idx : producers) {
    expected += plan.layer_latency[p_idx].cycles;
  }
  FUSE_CHECK(cursor - start == expected)
      << "interleaved group schedule diverged from the analytic latencies";
}

}  // namespace

CostSchedule schedule_costs(const nets::NetworkModel& model,
                            const std::vector<LayerCost>& costs,
                            const MemoryConfig& mem, SchedMode mode) {
  FUSE_CHECK(costs.size() == model.layers.size())
      << "schedule_costs needs one LayerCost per model layer, got "
      << costs.size() << " for " << model.layers.size();
  static util::Counter& fused_counter =
      util::metrics().counter("netplan.pairs_fused");
  static util::Counter& rejected_counter =
      util::metrics().counter("netplan.pairs_rejected");
  static util::Counter& saved_counter =
      util::metrics().counter("netplan.saved_bytes");

  CostSchedule cs;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    if (costs[i].on_array) {
      cs.on_array.push_back(i);
    }
  }

  // Double-buffered fold staging: the largest per-fold operand footprint,
  // twice (current fold + prefetch of the next). The two halves are the
  // statically disjoint double-buffer regions at [0, peak) and
  // [peak, 2*peak).
  std::uint64_t max_peak = 0;
  for (std::size_t i : cs.on_array) {
    max_peak = std::max(max_peak, costs[i].peak_fold_bytes);
  }
  cs.staging_bytes = 2 * max_peak;

  // Liveness: the activation chain is linear in this flat IR (skip
  // connections share the glue adds' inputs and are not tracked
  // separately — docs/scheduler.md §2, "What the chain rule leaves out",
  // discusses the simplification and the FuSe patch below). The network
  // input is live through step 0; step s's output is live until its
  // consumer (step s+1) finishes.
  const std::size_t steps = cs.on_array.size();
  if (steps > 0) {
    const LayerDesc& first = model.layers[cs.on_array.front()];
    ActivationBuffer input;
    input.producer = ActivationBuffer::kNetworkInput;
    input.first_step = 0;
    input.last_step = 0;
    input.bytes = activation_bytes(first.in_c, first.in_h, first.in_w, mem);
    cs.buffers.push_back(input);
  }
  for (std::size_t s = 0; s < steps; ++s) {
    const LayerDesc& layer = model.layers[cs.on_array[s]];
    ActivationBuffer buffer;
    buffer.producer = cs.on_array[s];
    buffer.first_step = s;
    buffer.last_step = std::min(s + 1, steps == 0 ? s : steps - 1);
    buffer.bytes = activation_bytes(layer.out_c, layer.out_h, layer.out_w,
                                    mem);
    cs.buffers.push_back(buffer);
  }
  // FuSe stages break the linear chain: the row and col branches BOTH read
  // the stage input, and the downstream pointwise consumes the
  // concatenation of both outputs. Extend the affected lifetimes (the
  // stage input through the col step, the row output through the
  // pointwise step) so the first-fit allocator cannot overlay them.
  for (std::size_t s = 0; s + 1 < steps; ++s) {
    const LayerDesc& row = model.layers[cs.on_array[s]];
    const LayerDesc& col = model.layers[cs.on_array[s + 1]];
    if (row.kind != OpKind::kFuseRowConv ||
        col.kind != OpKind::kFuseColConv || row.fuse_slot < 0 ||
        row.fuse_slot != col.fuse_slot) {
      continue;
    }
    // buffers[0] is the network input; the output of step s is at 1 + s.
    ActivationBuffer& stage_input = cs.buffers[s == 0 ? 0 : s];
    stage_input.last_step =
        std::max(stage_input.last_step, std::min(s + 1, steps - 1));
    ActivationBuffer& row_output = cs.buffers[1 + s];
    row_output.last_step =
        std::max(row_output.last_step, std::min(s + 2, steps - 1));
  }
  allocate_buffers(cs.buffers, cs.staging_bytes, mem);

  // Fusion legality (fused mode): a depthwise/FuSe producer feeding the
  // immediately next on-array layer(s) ending in a pointwise, with only
  // activation glue between, matching geometry, and SRAM-resident
  // intermediate buffers. A FuSe stage fuses as a {row, col} -> pointwise
  // triple: the pointwise input is the concatenation of both branches.
  // Groups span consecutive steps and never overlap, so the scan resumes
  // at the first step after each group. The counters are tallied per call.
  std::uint64_t fused = 0;
  std::uint64_t rejected = 0;
  std::uint64_t saved = 0;
  if (mode == SchedMode::kFused) {
    std::size_t first_free = 0;  // first step not yet in a group
    for (std::size_t s = 0; s + 1 < steps; ++s) {
      if (s < first_free) {
        continue;
      }
      const std::size_t p_idx = cs.on_array[s];
      const LayerDesc& p = model.layers[p_idx];
      // FuSe triple: row at s, col at s + 1, pointwise at s + 2.
      if (s + 2 < steps && p.kind == OpKind::kFuseRowConv) {
        const std::size_t p2_idx = cs.on_array[s + 1];
        const std::size_t c_idx = cs.on_array[s + 2];
        const LayerDesc& p2 = model.layers[p2_idx];
        const LayerDesc& c = model.layers[c_idx];
        if (p2.kind == OpKind::kFuseColConv &&
            c.kind == OpKind::kPointwiseConv) {
          const bool legal =
              only_activation_between(model, p_idx, p2_idx) &&
              only_activation_between(model, p2_idx, c_idx) &&
              p.fuse_slot >= 0 && p.fuse_slot == p2.fuse_slot &&
              c.in_c == p.out_c + p2.out_c && c.in_h == p.out_h &&
              c.in_w == p.out_w && c.in_h == p2.out_h &&
              c.in_w == p2.out_w && !cs.buffers[1 + s].spilled &&
              !cs.buffers[2 + s].spilled;
          if (!legal) {
            ++rejected;
            continue;
          }
          FusedPair pair;
          pair.producer = p_idx;
          pair.producer2 = p2_idx;
          pair.consumer = c_idx;
          pair.saved_output_bytes =
              costs[p_idx].traffic.output_bytes +
              costs[p2_idx].traffic.output_bytes;
          pair.saved_input_bytes = costs[c_idx].traffic.input_bytes;
          cs.fused_pairs.push_back(pair);
          first_free = s + 3;
          ++fused;
          saved += pair.saved_output_bytes + pair.saved_input_bytes;
          continue;
        }
      }
      const std::size_t c_idx = cs.on_array[s + 1];
      const LayerDesc& c = model.layers[c_idx];
      const bool candidate =
          (p.kind == OpKind::kDepthwiseConv ||
           p.kind == OpKind::kFuseRowConv ||
           p.kind == OpKind::kFuseColConv) &&
          c.kind == OpKind::kPointwiseConv;
      if (!candidate) {
        continue;
      }
      // buffers[0] is the network input; the output of step s is at 1 + s.
      const ActivationBuffer& intermediate = cs.buffers[1 + s];
      const bool legal =
          only_activation_between(model, p_idx, c_idx) &&
          c.in_c == p.out_c && c.in_h == p.out_h && c.in_w == p.out_w &&
          !intermediate.spilled;
      if (!legal) {
        ++rejected;
        continue;
      }
      FusedPair pair;
      pair.producer = p_idx;
      pair.consumer = c_idx;
      pair.saved_output_bytes = costs[p_idx].traffic.output_bytes;
      pair.saved_input_bytes = costs[c_idx].traffic.input_bytes;
      cs.fused_pairs.push_back(pair);
      first_free = s + 2;
      ++fused;
      saved += pair.saved_output_bytes + pair.saved_input_bytes;
    }
  }
  fused_counter.add(fused);
  rejected_counter.add(rejected);
  saved_counter.add(saved);
  return cs;
}

NetworkRoofline roofline_over(const std::vector<LayerCost>& costs,
                              const std::vector<FusedPair>& pairs,
                              const MemoryConfig& mem) {
  // schedule_costs emits groups in ascending producer order, each inside
  // the network and disjoint from the next, and plan_network keeps that
  // order; one cursor over the groups then walks beside the layers.
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const FusedPair& pair = pairs[k];
    const bool ordered =
        pair.producer2 == FusedPair::kNone
            ? pair.producer < pair.consumer
            : pair.producer < pair.producer2 &&
                  pair.producer2 < pair.consumer;
    FUSE_CHECK(ordered && pair.consumer < costs.size() &&
               (k == 0 || pairs[k - 1].consumer < pair.producer))
        << "fused group " << k << " (producer " << pair.producer
        << ", consumer " << pair.consumer << ") is out of order, overlaps "
        << "the group before it, or lies outside the " << costs.size()
        << " layers";
  }
  NetworkRoofline roofline;
  std::size_t next = 0;  // the group at or after the current layer
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const FusedPair* pair = next < pairs.size() ? &pairs[next] : nullptr;
    if (pair != nullptr && (i == pair->producer2 || i == pair->consumer)) {
      if (i == pair->consumer) {
        ++next;
      }
      continue;  // charged with the group's producer
    }
    std::uint64_t compute = costs[i].latency.cycles;
    systolic::TrafficEstimate traffic = costs[i].traffic;
    if (pair != nullptr && i == pair->producer) {
      // The group is one scheduling unit: compute back-to-back, traffic
      // with the SRAM-resident intermediates subtracted on both sides.
      if (pair->producer2 != FusedPair::kNone) {
        compute += costs[pair->producer2].latency.cycles;
        traffic += costs[pair->producer2].traffic;
      }
      compute += costs[pair->consumer].latency.cycles;
      traffic.output_bytes -= pair->saved_output_bytes;
      traffic += costs[pair->consumer].traffic;
      traffic.input_bytes -= pair->saved_input_bytes;
    }
    const std::uint64_t memory = traffic.memory_cycles(mem);
    roofline.compute_cycles += compute;
    roofline.memory_cycles += memory;
    roofline.bound_cycles += std::max(compute, memory);
    roofline.total_bytes += traffic.total_bytes();
    if (memory > compute && compute > 0) {
      ++roofline.memory_bound_layers;
    }
  }
  return roofline;
}

NetworkPlan plan_network(const nets::NetworkModel& model,
                         const ArrayConfig& cfg, const MemoryConfig& mem,
                         SchedMode mode) {
  cfg.validate();
  mem.validate();
  static util::Counter& plans_counter =
      util::metrics().counter("netplan.plans");
  static util::Gauge& high_water_gauge =
      util::metrics().gauge("netplan.sram_high_water");
  plans_counter.add();

  NetworkPlan plan;
  plan.mode = mode;
  plan.cfg = cfg;
  plan.mem = mem;

  // Lower every layer exactly once; the estimates, traffic, liveness, and
  // schedule below are all folds over these shared plans.
  plan.layer_plans.reserve(model.layers.size());
  plan.layer_latency.reserve(model.layers.size());
  plan.layer_traffic.reserve(model.layers.size());
  std::vector<LayerCost> costs(model.layers.size());
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    MappingPlan lowered = systolic::lower(model.layers[i], cfg);
    costs[i].latency = plan_latency(lowered);
    costs[i].traffic = systolic::plan_traffic(lowered, cfg, mem);
    costs[i].peak_fold_bytes =
        systolic::plan_peak_fold_bytes(lowered, cfg, mem);
    costs[i].on_array = !lowered.ops.empty();
    plan.layer_latency.push_back(costs[i].latency);
    plan.layer_traffic.push_back(costs[i].traffic);
    plan.layer_plans.push_back(std::move(lowered));
  }

  // Everything below the per-layer costs — SRAM liveness/allocation and
  // fusion legality — is shared with the closed-form evaluator.
  CostSchedule cs = schedule_costs(model, costs, mem, mode);
  plan.on_array = std::move(cs.on_array);
  plan.buffers = std::move(cs.buffers);
  plan.fused_pairs = std::move(cs.fused_pairs);
  plan.staging_bytes = cs.staging_bytes;
  const std::size_t steps = plan.on_array.size();

  // SRAM high water: resident activations + the running layer's staging.
  for (std::size_t s = 0; s < steps; ++s) {
    const std::uint64_t staging =
        2 * costs[plan.on_array[s]].peak_fold_bytes;
    plan.sram_high_water = std::max(
        plan.sram_high_water, resident_bytes_at(plan.buffers, s) + staging);
  }
  high_water_gauge.set(static_cast<std::int64_t>(plan.sram_high_water));

  // Schedule segments. The cycle axis is shared with the analytic model:
  // fused pairs only reorder whole folds, so the total is the plain sum of
  // per-layer latencies in both modes.
  std::uint64_t expected_total = 0;
  for (std::size_t i : plan.on_array) {
    expected_total += plan.layer_latency[i].cycles;
  }
  std::uint64_t cursor = 0;
  // Groups come in step order (only fused mode has any), so one cursor
  // over them walks beside the steps, as in roofline_over.
  std::size_t next = 0;  // the group at or after the current step
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t idx = plan.on_array[s];
    const FusedPair* pair =
        next < plan.fused_pairs.size() ? &plan.fused_pairs[next] : nullptr;
    if (pair != nullptr && (idx == pair->producer2 || idx == pair->consumer)) {
      if (idx == pair->consumer) {
        ++next;
      }
      continue;  // emitted with its producer below
    }
    if (pair != nullptr && pair->producer == idx) {
      std::vector<std::size_t> producers = {idx};
      if (pair->producer2 != FusedPair::kNone) {
        producers.push_back(pair->producer2);
      }
      const std::size_t c_idx = pair->consumer;
      // The group spans consecutive on-array steps starting at s; its SRAM
      // footprint is the worst step's residency plus the deepest member's
      // double-buffered staging.
      std::uint64_t pair_sram = 0;
      std::uint64_t group_peak = costs[c_idx].peak_fold_bytes;
      for (std::size_t m = 0; m <= producers.size(); ++m) {
        pair_sram =
            std::max(pair_sram, resident_bytes_at(plan.buffers, s + m));
      }
      for (const std::size_t p_idx : producers) {
        group_peak = std::max(group_peak, costs[p_idx].peak_fold_bytes);
      }
      pair_sram += 2 * group_peak;
      plan.sram_high_water = std::max(plan.sram_high_water, pair_sram);
      bool can_interleave = true;
      for (const std::size_t p_idx : producers) {
        can_interleave =
            can_interleave &&
            interleavable(model.layers[p_idx], plan.layer_plans[p_idx],
                          cfg);
      }
      if (can_interleave) {
        emit_interleaved_group(plan, model, producers, c_idx, pair_sram,
                               cursor, plan.segments);
      } else {
        producers.push_back(c_idx);
        for (const std::size_t part : producers) {
          ScheduleSegment seg;
          seg.layer_index = part;
          seg.start_cycle = cursor;
          seg.end_cycle = cursor + plan.layer_latency[part].cycles;
          seg.folds = plan.layer_latency[part].folds;
          seg.fused = true;
          seg.sram_bytes = pair_sram;
          cursor = seg.end_cycle;
          plan.segments.push_back(seg);
        }
      }
      continue;
    }
    ScheduleSegment seg;
    seg.layer_index = idx;
    seg.start_cycle = cursor;
    seg.end_cycle = cursor + plan.layer_latency[idx].cycles;
    seg.folds = plan.layer_latency[idx].folds;
    seg.sram_bytes =
        resident_bytes_at(plan.buffers, s) + 2 * costs[idx].peak_fold_bytes;
    cursor = seg.end_cycle;
    plan.segments.push_back(seg);
  }
  plan.total_cycles = cursor;
  FUSE_CHECK(plan.total_cycles == expected_total)
      << "schedule total diverged from the per-layer latency sum: "
      << plan.total_cycles << " vs " << expected_total;
  high_water_gauge.set(static_cast<std::int64_t>(plan.sram_high_water));
  return plan;
}

NetworkRoofline plan_roofline(const NetworkPlan& plan) {
  std::vector<LayerCost> costs(plan.layer_latency.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    costs[i].latency = plan.layer_latency[i];
    costs[i].traffic = plan.layer_traffic[i];
    costs[i].on_array = !plan.layer_plans[i].ops.empty();
  }
  return roofline_over(costs, plan.fused_pairs, plan.mem);
}

}  // namespace fuse::sched
