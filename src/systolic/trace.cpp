#include "systolic/trace.hpp"

#include "util/check.hpp"
#include "util/csv.hpp"

namespace fuse::systolic {

std::uint64_t FoldTrace::peak_fold_bytes() const {
  std::uint64_t peak = 0;
  for (const FoldRecord& fold : folds) {
    peak = std::max(peak, fold.input_bytes + fold.weight_bytes +
                              fold.output_bytes);
  }
  return peak;
}

FoldTrace plan_trace(const MappingPlan& plan, const ArrayConfig& cfg,
                     const MemoryConfig& mem) {
  cfg.validate();
  mem.validate();
  const std::uint64_t dtype = static_cast<std::uint64_t>(mem.dtype_bytes);
  FoldTrace trace;
  for (const PrimitiveOp& op : plan.ops) {
    // Operand footprint of an R x C fold: an R x depth input tile and a
    // depth x C weight tile, or for a broadcast line R input windows of
    // C + k - 1 and R x k taps; plus the R x C outputs.
    const bool line = op.kind == PrimitiveKind::kFuse1DLine;
    const bool broadcast_line = line && op.broadcast;
    const std::int64_t depth = line ? op.taps : op.k;
    FUSE_CHECK(broadcast_line || cfg.dataflow == Dataflow::kOutputStationary)
        << "matmul fold traces use the output-stationary operand "
           "footprint; got "
        << dataflow_name(cfg.dataflow);
    for_each_fold(op, cfg, [&](const FoldTile& tile, std::uint64_t cycles,
                               std::uint64_t) {
      const std::int64_t input_cols =
          broadcast_line ? tile.cols + depth - 1 : depth;
      const std::int64_t weight_span = broadcast_line ? tile.rows : tile.cols;
      FoldRecord fold;
      fold.used_rows = tile.rows;
      fold.used_cols = tile.cols;
      fold.depth = depth;
      fold.input_bytes =
          static_cast<std::uint64_t>(tile.rows * input_cols) * dtype;
      fold.weight_bytes =
          static_cast<std::uint64_t>(depth * weight_span) * dtype;
      fold.output_bytes =
          static_cast<std::uint64_t>(tile.rows * tile.cols) * dtype;
      fold.start_cycle = trace.total_cycles;
      fold.end_cycle = trace.total_cycles + cycles;
      trace.total_cycles = fold.end_cycle;
      trace.folds.push_back(fold);
    });
  }
  return trace;
}

std::uint64_t plan_peak_fold_bytes(const MappingPlan& plan,
                                   const ArrayConfig& cfg,
                                   const MemoryConfig& mem) {
  cfg.validate();
  mem.validate();
  const std::uint64_t dtype = static_cast<std::uint64_t>(mem.dtype_bytes);
  std::uint64_t peak = 0;
  for (const PrimitiveOp& op : plan.ops) {
    // The largest fold of a row-major tiling is the first one: every
    // interior tile is full-sized and edge tiles are strictly smaller, so
    // the peak is the full tile clamped to the operand dims.
    std::uint64_t bytes = 0;
    if (op.kind == PrimitiveKind::kFuse1DLine && op.broadcast) {
      const std::int64_t rows = std::min(op.lines, cfg.rows);
      const std::int64_t cols = std::min(op.line_out, cfg.cols);
      bytes = static_cast<std::uint64_t>(rows * (cols + op.taps - 1) +
                                         rows * op.taps + rows * cols) *
              dtype;
    } else {
      const bool serialized_line =
          op.kind == PrimitiveKind::kFuse1DLine;  // no-broadcast fallback
      const std::int64_t m = serialized_line ? op.line_out : op.m;
      const std::int64_t t = serialized_line ? op.taps : op.k;
      const std::int64_t n = serialized_line ? 1 : op.n;
      const std::int64_t rows = std::min(m, cfg.rows);
      const std::int64_t cols = std::min(n, cfg.cols);
      bytes = static_cast<std::uint64_t>(rows * t + t * cols + rows * cols) *
              dtype;
    }
    peak = std::max(peak, bytes);
  }
  return peak;
}

std::uint64_t append_fold_trace_events(util::TraceSink& sink,
                                       const FoldTrace& trace,
                                       const std::string& name,
                                       std::uint64_t cycle_offset,
                                       bool sram_counters) {
  for (const FoldRecord& fold : trace.folds) {
    const std::uint64_t ts = cycle_offset + fold.start_cycle;
    sink.complete_event(
        name, "fold", ts, fold.end_cycle - fold.start_cycle, kFoldTrack,
        {util::trace_num("rows", static_cast<std::uint64_t>(fold.used_rows)),
         util::trace_num("cols", static_cast<std::uint64_t>(fold.used_cols)),
         util::trace_num("depth", static_cast<std::uint64_t>(fold.depth))});
    if (sram_counters) {
      sink.counter_event("sram_bytes", ts, kSramTrack,
                         {{"input", fold.input_bytes},
                          {"weight", fold.weight_bytes},
                          {"output", fold.output_bytes}});
    }
  }
  // Drop the counter series back to zero once the trace's folds are done,
  // so gaps between layers read as empty SRAM rather than a stale level.
  if (sram_counters && !trace.folds.empty()) {
    sink.counter_event("sram_bytes",
                       cycle_offset + trace.folds.back().end_cycle,
                       kSramTrack,
                       {{"input", 0}, {"weight", 0}, {"output", 0}});
  }
  return cycle_offset + trace.total_cycles;
}

void write_fold_trace_csv(const FoldTrace& trace, const std::string& path) {
  util::CsvWriter csv(path);
  csv.write_header({"fold", "start_cycle", "end_cycle", "rows", "cols",
                    "depth", "input_bytes", "weight_bytes",
                    "output_bytes"});
  for (std::size_t i = 0; i < trace.folds.size(); ++i) {
    const FoldRecord& fold = trace.folds[i];
    csv.write_row({std::to_string(i), std::to_string(fold.start_cycle),
                   std::to_string(fold.end_cycle),
                   std::to_string(fold.used_rows),
                   std::to_string(fold.used_cols),
                   std::to_string(fold.depth),
                   std::to_string(fold.input_bytes),
                   std::to_string(fold.weight_bytes),
                   std::to_string(fold.output_bytes)});
  }
}

}  // namespace fuse::systolic
