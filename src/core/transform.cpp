#include "core/transform.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace fuse::core {

const std::vector<NetworkVariant>& all_network_variants() {
  static const std::vector<NetworkVariant> kVariants = {
      NetworkVariant::kBaseline,   NetworkVariant::kFuseFull,
      NetworkVariant::kFuseHalf,   NetworkVariant::kFuseFull50,
      NetworkVariant::kFuseHalf50,
  };
  return kVariants;
}

std::string network_variant_name(NetworkVariant variant) {
  switch (variant) {
    case NetworkVariant::kBaseline:
      return "baseline";
    case NetworkVariant::kFuseFull:
      return "FuSe-Full";
    case NetworkVariant::kFuseHalf:
      return "FuSe-Half";
    case NetworkVariant::kFuseFull50:
      return "FuSe-Full-50%";
    case NetworkVariant::kFuseHalf50:
      return "FuSe-Half-50%";
  }
  return "?";
}

NetworkVariant parse_network_variant(const std::string& name) {
  // The FuSe variants also answer to a fuse_ prefix.
  const std::string bare = name.rfind("fuse_", 0) == 0 ? name.substr(5) : name;
  if (name == "baseline") return NetworkVariant::kBaseline;
  if (bare == "full") return NetworkVariant::kFuseFull;
  if (bare == "half") return NetworkVariant::kFuseHalf;
  if (bare == "full50") return NetworkVariant::kFuseFull50;
  if (bare == "half50") return NetworkVariant::kFuseHalf50;
  FUSE_CHECK(false) << "unknown variant '" << name << "' ("
                    << kNetworkVariantSpellings << ")";
  return NetworkVariant::kBaseline;
}

FuseMode parse_fuse_mode(const std::string& name) {
  const NetworkVariant variant = parse_network_variant(name);
  FUSE_CHECK(variant != NetworkVariant::kFuseFull50 &&
             variant != NetworkVariant::kFuseHalf50)
      << "'" << name << "' is a 50% variant, not a per-slot mode ("
      << kFuseModeSpellings << ")";
  // The mode this uniform variant gives every slot.
  return modes_for_variant(variant, 1, {}).front();
}

FuseVariant fuse_mode_variant(FuseMode mode) {
  FUSE_CHECK(mode != FuseMode::kBaseline)
      << "baseline mode has no FuseVariant";
  return mode == FuseMode::kFull ? FuseVariant::kFull : FuseVariant::kHalf;
}

std::vector<FuseMode> uniform_modes(int num_slots, FuseMode mode) {
  FUSE_CHECK(num_slots >= 0) << "negative slot count";
  return std::vector<FuseMode>(static_cast<std::size_t>(num_slots), mode);
}

std::vector<FuseMode> top_half_modes(const std::vector<double>& savings,
                                     FuseMode mode) {
  FUSE_CHECK(mode != FuseMode::kBaseline)
      << "top_half_modes needs a replacing mode";
  const int num_slots = static_cast<int>(savings.size());
  std::vector<int> order(savings.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return savings[static_cast<std::size_t>(a)] >
           savings[static_cast<std::size_t>(b)];
  });
  const int quota = (num_slots + 1) / 2;  // 50%, rounding up on odd counts
  std::vector<FuseMode> modes = uniform_modes(num_slots, FuseMode::kBaseline);
  for (int i = 0; i < quota; ++i) {
    modes[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        mode;
  }
  return modes;
}

std::vector<FuseMode> modes_for_variant(NetworkVariant variant,
                                        int num_slots,
                                        const std::vector<double>& savings) {
  switch (variant) {
    case NetworkVariant::kBaseline:
      return uniform_modes(num_slots, FuseMode::kBaseline);
    case NetworkVariant::kFuseFull:
      return uniform_modes(num_slots, FuseMode::kFull);
    case NetworkVariant::kFuseHalf:
      return uniform_modes(num_slots, FuseMode::kHalf);
    case NetworkVariant::kFuseFull50:
      FUSE_CHECK(static_cast<int>(savings.size()) == num_slots)
          << "50% variant needs per-slot savings";
      return top_half_modes(savings, FuseMode::kFull);
    case NetworkVariant::kFuseHalf50:
      FUSE_CHECK(static_cast<int>(savings.size()) == num_slots)
          << "50% variant needs per-slot savings";
      return top_half_modes(savings, FuseMode::kHalf);
  }
  FUSE_CHECK(false) << "unknown network variant";
  return {};
}

}  // namespace fuse::core
