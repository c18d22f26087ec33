#include "serve/request.hpp"

#include <string>

namespace fuse::serve {

std::string shape_key_name(const ShapeKey& key) {
  if (key.custom >= 0) {
    return "custom#" + std::to_string(key.custom);
  }
  return nets::network_name(key.net) + "/" +
         core::network_variant_name(key.variant) + "@" +
         std::to_string(key.resolution);
}

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kCycle:
      return "cycle";
    case ExecMode::kTensor:
      return "tensor";
    case ExecMode::kSimulate:
      return "simulate";
  }
  return "?";
}

const char* request_status_name(RequestStatus status) {
  switch (status) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kDispatched:
      return "dispatched";
    case RequestStatus::kCompleted:
      return "completed";
    case RequestStatus::kRejected:
      return "rejected";
  }
  return "?";
}

}  // namespace fuse::serve
