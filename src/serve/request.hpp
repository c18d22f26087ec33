// Request/response vocabulary of the serving engine (docs/serving.md).
//
// A request names WHAT to run — a network x variant x resolution shape,
// plus an optional batch-size hint — and WHEN it arrives, in virtual
// cycles. The engine answers with a ResponseRecord carrying the full
// scheduling history of the request (admission, batch membership, array
// placement, completion), all in the same cycle domain the analytic
// latency models use. Keeping the serving clock virtual is what makes
// every scheduling decision a pure function of the submitted trace: the
// whole pipeline replays byte-identically at any worker thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/transform.hpp"
#include "nets/zoo.hpp"

namespace fuse::serve {

/// The batching identity of a request: two requests coalesce into one
/// batch iff their ShapeKeys compare equal (same lowering, same plan,
/// same weights — the ModelPool memoizes per key). `custom` >= 0
/// addresses a model registered through ModelPool::register_custom
/// instead of the zoo (net/variant/resolution are ignored for custom
/// keys).
struct ShapeKey {
  nets::NetworkId net = nets::NetworkId::kMobileNetV1;
  core::NetworkVariant variant = core::NetworkVariant::kBaseline;
  std::int64_t resolution = 224;  // square input; V1/V2 accept 32, 64, ...
  int custom = -1;

  bool operator==(const ShapeKey& other) const = default;
};

/// FNV-1a over the key fields.
struct ShapeKeyHash {
  std::size_t operator()(const ShapeKey& key) const {
    std::uint64_t hash = 1469598103934665603ULL;
    const auto mix = [&hash](std::uint64_t v) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (v >> (8 * byte)) & 0xffULL;
        hash *= 1099511628211ULL;
      }
    };
    mix(static_cast<std::uint64_t>(key.net));
    mix(static_cast<std::uint64_t>(key.variant));
    mix(static_cast<std::uint64_t>(key.resolution));
    mix(static_cast<std::uint64_t>(key.custom));
    return static_cast<std::size_t>(hash);
  }
};

/// "MobileNet-V2/FuSe-Full@64" or "custom#0" for reports.
std::string shape_key_name(const ShapeKey& key);

/// What a batch executes once dispatched.
enum class ExecMode {
  kCycle,     // latency accounting only: NetworkPlan roofline, no tensors
  kTensor,    // real tensors through the nn kernel backend (chain models)
  kSimulate,  // real tensors through the PE-grid simulator (chain models)
};

/// "cycle" / "tensor" / "simulate".
const char* exec_mode_name(ExecMode mode);

/// Parses exec_mode_name spellings; returns false on unknown names.
bool parse_exec_mode(const std::string& name, ExecMode* out);

/// What to do with an arrival that finds the system at capacity.
enum class ShedPolicy {
  kRejectNewest,  // drop the arriving request (classic bounded queue)
  kRejectOldest,  // evict the oldest still-queued request, admit the new
                  // one (its batch keeps its original deadline); falls
                  // back to reject-newest when nothing is still queued
};

/// "reject-newest" / "reject-oldest".
const char* shed_policy_name(ShedPolicy policy);

/// Parses shed_policy_name spellings; returns false on unknown names.
bool parse_shed_policy(const std::string& name, ShedPolicy* out);

enum class RequestStatus {
  kQueued,      // admitted, waiting in an open batch
  kDispatched,  // batch closed and placed on an array
  kCompleted,   // completion cycle reached (retired)
  kRejected,    // shed by admission control
};

/// "queued" / "dispatched" / "completed" / "rejected".
const char* request_status_name(RequestStatus status);

/// The full scheduling history of one request. All cycle fields are
/// virtual-time; `checksum` is the only field produced off the scheduling
/// path (by the worker pool, for tensor/simulate modes) and is a pure
/// function of (key, request id, engine seed).
struct ResponseRecord {
  std::uint64_t id = 0;
  ShapeKey key;
  RequestStatus status = RequestStatus::kQueued;
  int batch_hint = 0;  // 0 = no preference

  std::uint64_t arrival_cycle = 0;
  std::uint64_t dispatch_cycle = 0;    // batch close time
  std::uint64_t start_cycle = 0;       // array start (>= dispatch_cycle)
  std::uint64_t completion_cycle = 0;  // start + batched service time

  std::uint64_t batch_id = 0;
  int batch_size = 0;
  int array_index = -1;

  std::uint64_t checksum = 0;  // FNV-1a over the request's output bits

  /// Queueing + service latency. Meaningful once dispatched.
  std::uint64_t latency_cycles() const {
    return completion_cycle - arrival_cycle;
  }
};

}  // namespace fuse::serve
