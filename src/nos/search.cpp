#include "nos/search.hpp"

#include <limits>
#include <map>

#include "util/check.hpp"

namespace fuse::nos {

using nets::NetworkModel;
using nn::LayerDesc;

namespace {

/// Cycles and params of the slot-tagged layers, per slot, for one built
/// network.
struct SlotTotals {
  std::map<int, std::uint64_t> cycles;
  std::map<int, std::uint64_t> params;
};

SlotTotals slot_totals(const NetworkModel& model, const ArrayConfig& cfg) {
  SlotTotals totals;
  totals.cycles = sched::cycles_by_slot(model, cfg);
  for (const LayerDesc& layer : model.layers) {
    if (layer.fuse_slot >= 0) {
      totals.params[layer.fuse_slot] += layer.params();
    }
  }
  return totals;
}

}  // namespace

std::string NosResult::modes_string() const {
  std::string out;
  out.reserve(modes.size());
  for (FuseMode mode : modes) {
    switch (mode) {
      case FuseMode::kBaseline:
        out.push_back('B');
        break;
      case FuseMode::kFull:
        out.push_back('F');
        break;
      case FuseMode::kHalf:
        out.push_back('H');
        break;
    }
  }
  return out;
}

std::vector<std::vector<SlotOption>> slot_options(NetworkId id,
                                                  const ArrayConfig& cfg) {
  const int slots = nets::num_fuse_slots(id);
  const FuseMode kModes[] = {FuseMode::kBaseline, FuseMode::kFull,
                             FuseMode::kHalf};
  std::vector<std::vector<SlotOption>> options(
      static_cast<std::size_t>(slots));
  for (FuseMode mode : kModes) {
    const NetworkModel model =
        nets::build_network(id, core::uniform_modes(slots, mode));
    const SlotTotals totals = slot_totals(model, cfg);
    for (int slot = 0; slot < slots; ++slot) {
      SlotOption option;
      option.mode = mode;
      option.cycles = totals.cycles.at(slot);
      option.params = totals.params.at(slot);
      options[static_cast<std::size_t>(slot)].push_back(option);
    }
  }
  return options;
}

NosResult search_operators(NetworkId id, const ArrayConfig& cfg,
                           const NosConfig& config) {
  FUSE_CHECK(config.max_params_ratio > 0.0 && config.param_granularity > 0)
      << "bad NOS config";

  const NetworkModel baseline = nets::build_network(id);
  const std::uint64_t baseline_cycles =
      sched::network_latency(baseline, cfg).total_cycles;
  const std::uint64_t baseline_params = baseline.total_params();

  NosResult result;
  result.options = slot_options(id, cfg);
  const int slots = static_cast<int>(result.options.size());

  // Parameters and cycles outside the slots are mode-independent.
  const SlotTotals base_totals = slot_totals(baseline, cfg);
  std::uint64_t shared_params = baseline_params;
  std::uint64_t shared_cycles = baseline_cycles;
  for (const auto& [slot, params] : base_totals.params) {
    shared_params -= params;
    shared_cycles -= base_totals.cycles.at(slot);
  }

  // Knapsack DP over quantized slot-parameter totals. Quantize by rounding
  // each option's parameter count UP, so the budget is never exceeded.
  const std::uint64_t budget = static_cast<std::uint64_t>(
      config.max_params_ratio * static_cast<double>(baseline_params));
  FUSE_CHECK(budget >= shared_params)
      << "parameter budget below the network's mode-independent parameters";
  const std::uint64_t slot_budget = budget - shared_params;
  const std::int64_t units = static_cast<std::int64_t>(
      slot_budget / static_cast<std::uint64_t>(config.param_granularity));

  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  // dp[u] = min cycles using at most u param units so far.
  std::vector<std::uint64_t> dp(static_cast<std::size_t>(units) + 1, kInf);
  std::vector<std::vector<int>> choice(
      static_cast<std::size_t>(slots),
      std::vector<int>(static_cast<std::size_t>(units) + 1, -1));
  dp[0] = 0;

  for (int slot = 0; slot < slots; ++slot) {
    std::vector<std::uint64_t> next(dp.size(), kInf);
    for (std::int64_t u = 0; u <= units; ++u) {
      if (dp[static_cast<std::size_t>(u)] == kInf) {
        continue;
      }
      const auto& opts = result.options[static_cast<std::size_t>(slot)];
      for (int o = 0; o < static_cast<int>(opts.size()); ++o) {
        const std::int64_t cost = static_cast<std::int64_t>(
            (opts[static_cast<std::size_t>(o)].params +
             static_cast<std::uint64_t>(config.param_granularity) - 1) /
            static_cast<std::uint64_t>(config.param_granularity));
        const std::int64_t nu = u + cost;
        if (nu > units) {
          continue;
        }
        const std::uint64_t cycles =
            dp[static_cast<std::size_t>(u)] +
            opts[static_cast<std::size_t>(o)].cycles;
        if (cycles < next[static_cast<std::size_t>(nu)]) {
          next[static_cast<std::size_t>(nu)] = cycles;
          choice[static_cast<std::size_t>(slot)]
                [static_cast<std::size_t>(nu)] = o;
        }
      }
    }
    // Allow unused budget: propagate the best-so-far downward... actually
    // upward: dp[u] should be min over <= u. Done after the loop below.
    dp.swap(next);
  }
  // min-prefix so "at most u units" semantics hold for backtracking start.
  std::int64_t best_u = 0;
  for (std::int64_t u = 1; u <= units; ++u) {
    if (dp[static_cast<std::size_t>(u)] <
        dp[static_cast<std::size_t>(best_u)]) {
      best_u = u;
    }
  }
  FUSE_CHECK(dp[static_cast<std::size_t>(best_u)] != kInf)
      << "no feasible operator assignment under the parameter budget";

  // Backtrack: at each slot, recover which option produced dp at best_u.
  // We re-run the DP forward storing choices (done above); walk backwards.
  result.modes.assign(static_cast<std::size_t>(slots),
                      FuseMode::kBaseline);
  {
    std::int64_t u = best_u;
    for (int slot = slots - 1; slot >= 0; --slot) {
      const int o =
          choice[static_cast<std::size_t>(slot)][static_cast<std::size_t>(u)];
      FUSE_CHECK(o >= 0) << "DP backtrack failed at slot " << slot;
      const SlotOption& opt =
          result.options[static_cast<std::size_t>(slot)]
                        [static_cast<std::size_t>(o)];
      result.modes[static_cast<std::size_t>(slot)] = opt.mode;
      const std::int64_t cost = static_cast<std::int64_t>(
          (opt.params +
           static_cast<std::uint64_t>(config.param_granularity) - 1) /
          static_cast<std::uint64_t>(config.param_granularity));
      u -= cost;
      FUSE_CHECK(u >= 0) << "DP backtrack underflow at slot " << slot;
    }
  }

  const NetworkModel chosen = nets::build_network(id, result.modes);
  result.cycles = sched::network_latency(chosen, cfg).total_cycles;
  result.params = chosen.total_params();
  result.speedup = static_cast<double>(baseline_cycles) /
                   static_cast<double>(result.cycles);
  result.params_ratio = static_cast<double>(result.params) /
                        static_cast<double>(baseline_params);
  FUSE_CHECK(result.params <= budget + static_cast<std::uint64_t>(
                                           config.param_granularity))
      << "search exceeded the parameter budget";
  (void)shared_cycles;
  return result;
}

NosResult search_capacity(NetworkId id, const ArrayConfig& cfg,
                          const NosLatencyBudgetConfig& config) {
  FUSE_CHECK(config.max_cycles_ratio > 0.0 && config.cycle_granularity > 0)
      << "bad NOS latency-budget config";

  const NetworkModel baseline = nets::build_network(id);
  const std::uint64_t baseline_cycles =
      sched::network_latency(baseline, cfg).total_cycles;
  const std::uint64_t baseline_params = baseline.total_params();

  NosResult result;
  result.options = slot_options(id, cfg);
  const int slots = static_cast<int>(result.options.size());

  // Cycles outside the slots are mode-independent and consume budget.
  const SlotTotals base_totals = slot_totals(baseline, cfg);
  std::uint64_t shared_cycles = baseline_cycles;
  for (const auto& [slot, cycles] : base_totals.cycles) {
    shared_cycles -= cycles;
  }

  const std::uint64_t budget = static_cast<std::uint64_t>(
      config.max_cycles_ratio * static_cast<double>(baseline_cycles));
  FUSE_CHECK(budget > shared_cycles)
      << "latency budget " << budget
      << " below the network's mode-independent cycles " << shared_cycles;
  const std::uint64_t slot_budget = budget - shared_cycles;
  const std::int64_t units = static_cast<std::int64_t>(
      slot_budget / static_cast<std::uint64_t>(config.cycle_granularity));

  // dp[u] = max params reachable with exactly-quantized cycle cost u.
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> dp(static_cast<std::size_t>(units) + 1, kNone);
  std::vector<std::vector<int>> choice(
      static_cast<std::size_t>(slots),
      std::vector<int>(static_cast<std::size_t>(units) + 1, -1));
  dp[0] = 0;

  const auto cycle_cost = [&](const SlotOption& o) {
    return static_cast<std::int64_t>(
        (o.cycles + static_cast<std::uint64_t>(config.cycle_granularity) -
         1) /
        static_cast<std::uint64_t>(config.cycle_granularity));
  };

  for (int slot = 0; slot < slots; ++slot) {
    std::vector<std::uint64_t> next(dp.size(), kNone);
    for (std::int64_t u = 0; u <= units; ++u) {
      if (dp[static_cast<std::size_t>(u)] == kNone) {
        continue;
      }
      const auto& opts = result.options[static_cast<std::size_t>(slot)];
      for (int o = 0; o < static_cast<int>(opts.size()); ++o) {
        const std::int64_t nu =
            u + cycle_cost(opts[static_cast<std::size_t>(o)]);
        if (nu > units) {
          continue;
        }
        const std::uint64_t params =
            dp[static_cast<std::size_t>(u)] +
            opts[static_cast<std::size_t>(o)].params;
        if (next[static_cast<std::size_t>(nu)] == kNone ||
            params > next[static_cast<std::size_t>(nu)]) {
          next[static_cast<std::size_t>(nu)] = params;
          choice[static_cast<std::size_t>(slot)]
                [static_cast<std::size_t>(nu)] = o;
        }
      }
    }
    dp.swap(next);
  }

  std::int64_t best_u = -1;
  for (std::int64_t u = 0; u <= units; ++u) {
    if (dp[static_cast<std::size_t>(u)] == kNone) {
      continue;
    }
    if (best_u < 0 || dp[static_cast<std::size_t>(u)] >
                          dp[static_cast<std::size_t>(best_u)]) {
      best_u = u;
    }
  }
  FUSE_CHECK(best_u >= 0)
      << "no feasible operator assignment under the latency budget "
      << config.max_cycles_ratio << "x baseline";

  result.modes.assign(static_cast<std::size_t>(slots),
                      FuseMode::kBaseline);
  std::int64_t u = best_u;
  for (int slot = slots - 1; slot >= 0; --slot) {
    const int o =
        choice[static_cast<std::size_t>(slot)][static_cast<std::size_t>(u)];
    FUSE_CHECK(o >= 0) << "DP backtrack failed at slot " << slot;
    const SlotOption& opt = result.options[static_cast<std::size_t>(slot)]
                                          [static_cast<std::size_t>(o)];
    result.modes[static_cast<std::size_t>(slot)] = opt.mode;
    u -= cycle_cost(opt);
    FUSE_CHECK(u >= 0) << "DP backtrack underflow at slot " << slot;
  }

  const NetworkModel chosen = nets::build_network(id, result.modes);
  result.cycles = sched::network_latency(chosen, cfg).total_cycles;
  result.params = chosen.total_params();
  result.speedup = static_cast<double>(baseline_cycles) /
                   static_cast<double>(result.cycles);
  result.params_ratio = static_cast<double>(result.params) /
                        static_cast<double>(baseline_params);
  FUSE_CHECK(result.cycles <=
             budget + static_cast<std::uint64_t>(
                          config.cycle_granularity) *
                          static_cast<std::uint64_t>(slots))
      << "search exceeded the latency budget";
  return result;
}

}  // namespace fuse::nos
