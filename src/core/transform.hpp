// Network-level FuSe transform policy (paper §V-A1).
//
// Each network in the zoo exposes its depthwise separable blocks as
// numbered "fuse slots". A network *variant* assigns every slot a FuseMode:
//   Baseline      — keep the depthwise layer
//   Full / Half   — replace every slot (D = 1 / D = 2)
//   Full-50% / Half-50% — replace only the half of the slots with the
//       largest latency savings ("drop-in replacement for layers in such a
//       way that maximum latency benefits are obtained")
// This header holds the pure policy; the per-slot savings themselves come
// from the scheduler (sched/latency.hpp), which knows the array config.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fuseconv.hpp"

namespace fuse::core {

/// Per-slot replacement decision.
enum class FuseMode {
  kBaseline,
  kFull,  // FuSeConv with D = 1
  kHalf,  // FuSeConv with D = 2
};

/// The five Table-I rows per network.
enum class NetworkVariant {
  kBaseline,
  kFuseFull,
  kFuseHalf,
  kFuseFull50,
  kFuseHalf50,
};

/// All variants in Table-I order.
const std::vector<NetworkVariant>& all_network_variants();

/// "FuSe-Full", "FuSe-Half-50%", ... matching the paper's row labels.
std::string network_variant_name(NetworkVariant variant);

/// The --variant spellings parse_network_variant accepts.
inline constexpr const char* kNetworkVariantSpellings =
    "baseline|[fuse_]full|[fuse_]half|[fuse_]full50|[fuse_]half50";

/// Parses a --variant value (kNetworkVariantSpellings); FUSE_CHECKs on
/// anything else.
NetworkVariant parse_network_variant(const std::string& name);

/// The spellings parse_fuse_mode accepts: the non-50% network variants.
inline constexpr const char* kFuseModeSpellings =
    "baseline|[fuse_]full|[fuse_]half";

/// Parses a per-slot mode flag through parse_network_variant, so the two
/// share their spellings; FUSE_CHECKs a 50% variant or an unknown name.
FuseMode parse_fuse_mode(const std::string& name);

/// The FuseVariant (D knob) a replacing mode uses. Must not be kBaseline.
FuseVariant fuse_mode_variant(FuseMode mode);

/// Same mode for every slot.
std::vector<FuseMode> uniform_modes(int num_slots, FuseMode mode);

/// Replaces the ceil(n/2) slots with the largest savings; everything else
/// stays baseline. `savings[i]` is the cycle reduction from fusing slot i
/// alone (may be negative; such slots are never chosen before positive
/// ones, but the 50% quota is always filled to match the paper's setup).
std::vector<FuseMode> top_half_modes(const std::vector<double>& savings,
                                     FuseMode mode);

/// Expands a NetworkVariant into per-slot modes given per-slot savings for
/// the matching D. For the non-50% variants `savings` may be empty.
std::vector<FuseMode> modes_for_variant(NetworkVariant variant,
                                        int num_slots,
                                        const std::vector<double>& savings);

}  // namespace fuse::core
