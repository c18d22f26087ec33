// Chrome trace-event / Perfetto-compatible JSON sink.
//
// A TraceSink collects trace events — complete spans ("ph":"X"), counter
// series ("ph":"C"), and process/thread metadata ("ph":"M") — and writes
// them as the JSON object format ({"traceEvents": [...]}) that
// ui.perfetto.dev and chrome://tracing open directly.
//
// Timestamps are dimensionless integers interpreted by the viewer as
// microseconds. Two timelines use this sink:
//   * runtime spans (util/telemetry.hpp ScopedSpan): wall microseconds
//     since the sink's construction (steady_clock), and
//   * simulated layer timelines (systolic/trace.hpp
//     append_fold_trace_events): array CYCLES used as the "ts" unit, so
//     one viewer microsecond reads as one array cycle.
// The two are never mixed in one file: benches write runtime traces,
// profile_network writes simulated ones.
//
// Thread safety: every recording call appends under one mutex. Event order
// in the file follows recording order, which may vary across runs with
// worker threads — trace files are diagnostics, never golden output.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace fuse::util {

/// One "args" entry of a trace event. `is_number` values are emitted raw
/// (caller renders them with std::to_string); others are JSON-escaped
/// strings.
struct TraceArg {
  std::string key;
  std::string value;
  bool is_number = false;
};

/// Numeric arg shorthand.
TraceArg trace_num(std::string key, std::uint64_t value);
/// Floating-point arg shorthand (fixed 6-digit precision).
TraceArg trace_num(std::string key, double value);
/// String arg shorthand.
TraceArg trace_str(std::string key, std::string value);

class TraceSink {
 public:
  TraceSink();

  /// Complete event ("ph":"X"): a span [ts, ts + dur) on track `tid`.
  void complete_event(std::string name, std::string category,
                      std::uint64_t ts, std::uint64_t dur, int tid,
                      std::vector<TraceArg> args = {});

  /// Counter event ("ph":"C"): one sample of the named counter series at
  /// `ts`. Multiple (series, value) pairs stack in the viewer.
  void counter_event(std::string name, std::uint64_t ts, int tid,
                     std::vector<std::pair<std::string, std::uint64_t>>
                         series);

  /// Metadata: labels the process / a thread track in the viewer.
  void process_name(std::string name);
  void thread_name(int tid, std::string name);

  /// Microseconds elapsed since this sink was constructed (steady clock) —
  /// the timestamp base for runtime spans.
  std::uint64_t now_us() const;

  std::size_t event_count() const;

  /// Serializes {"traceEvents": [...]} (valid JSON, stable field order).
  void write_json(std::ostream& out) const;
  void write_json_file(const std::string& path) const;

 private:
  struct Event {
    char phase = 'X';
    std::string name;
    std::string category;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    int tid = 0;
    std::vector<TraceArg> args;
  };

  void append(Event event);

  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// Process-wide sink attachment point. ScopedSpan (telemetry.hpp) and the
/// pool/sweep instrumentation emit into the attached sink; with none
/// attached (the default) every emit site is a single relaxed atomic load.
TraceSink* global_trace_sink();
void set_global_trace_sink(TraceSink* sink);

/// JSON string escaping (exposed for tests).
std::string json_escape(const std::string& text);

}  // namespace fuse::util
