// train_synthetic: watch the drop-in replacement learn. Trains a tiny
// depthwise-separable network and its FuSe variant on the synthetic
// oriented-texture task with per-epoch logging — the miniature of the
// paper's ImageNet study (see DESIGN.md for the substitution rationale).
//
// Usage: train_synthetic [--mode=full] [--epochs=8] [--seed=1]
//        [--train=256] [--eval=128] [--kernel-backend=fast]
//        [--kernel-isa=auto]
#include <cstdio>

#include "bench_common.hpp"
#include "train/models.hpp"
#include "train/trainer.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace fuse;
using namespace fuse::train;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_string("mode", "full", "baseline|full|half");
  flags.add_int("epochs", 8, "training epochs");
  flags.add_int("seed", 1, "weight init seed");
  flags.add_int("train", 256, "training examples");
  flags.add_int("eval", 128, "eval examples");
  bench::add_kernel_flags(flags);
  flags.parse(argc, argv);
  bench::apply_kernel_flags(flags);

  const std::string mode_name = flags.get_string("mode");
  core::FuseMode mode = core::FuseMode::kBaseline;
  if (mode_name == "full") {
    mode = core::FuseMode::kFull;
  } else if (mode_name == "half") {
    mode = core::FuseMode::kHalf;
  } else {
    FUSE_CHECK(mode_name == "baseline")
        << "unknown --mode '" << mode_name << "' (baseline|full|half)";
  }

  DatasetConfig dc;
  const TextureDataset train_data(dc, flags.get_int("train"), 1);
  const TextureDataset eval_data(dc, flags.get_int("eval"), 2);

  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  auto net = build_tiny_net(TinyNetConfig{}, mode, rng);
  std::vector<Parameter*> params;
  net->collect_params(params);
  std::size_t total_params = 0;
  for (const Parameter* p : params) {
    total_params += static_cast<std::size_t>(p->value.num_elements());
  }

  std::printf(
      "training tiny net (%s depthwise blocks), %zu parameters,\n"
      "%lld-way oriented-texture task, RMSprop (the paper's optimizer)\n\n",
      mode_name.c_str(), total_params,
      static_cast<long long>(dc.num_classes));

  TrainConfig tc;
  tc.epochs = flags.get_int("epochs");
  tc.batch_size = 16;
  tc.lr = 0.01;
  tc.verbose = true;
  const TrainResult result = train_model(*net, train_data, eval_data, tc);

  std::printf("\nfinal eval accuracy: %.1f%% (chance: %.1f%%)\n",
              100.0 * result.final_eval_accuracy,
              100.0 / static_cast<double>(dc.num_classes));
  return 0;
}
