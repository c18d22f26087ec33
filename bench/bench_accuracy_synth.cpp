// The accuracy-parity study substituting for Table I's ImageNet column
// (see DESIGN.md): trains a tiny depthwise-separable network and its
// FuSe-Full / FuSe-Half drop-in variants on the synthetic oriented-texture
// task and reports mean eval accuracy over seeds.
//
// Expected ordering, matching Table I's trend: Full ~= baseline (within
// ~1%), Half noticeably lower.
//
// Usage: bench_accuracy_synth [--seeds=3] [--epochs=8] [--train=256]
//        [--eval=128] [--csv]
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "train/models.hpp"
#include "util/check.hpp"
#include "train/trainer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace fuse;
using namespace fuse::train;

int main(int argc, char** argv) {
  util::CliFlags flags;
  flags.add_int("seeds", 3, "seeds per variant");
  flags.add_int("epochs", 8, "training epochs");
  flags.add_int("train", 256, "training examples");
  flags.add_int("eval", 128, "eval examples");
  flags.add_string("task", "textures", "synthetic task: textures|blobs");
  flags.add_string("arch", "separable", "tiny net architecture: separable|inverted");
  flags.add_bool("csv", false, "also write bench_accuracy.csv");
  bench::add_kernel_flags(flags);
  flags.parse(argc, argv);
  const nn::KernelChoice kernels = bench::kernel_choice_flags(flags);
  const std::string arch = flags.get_string("arch");
  FUSE_CHECK(arch == "separable" || arch == "inverted")
      << "unknown --arch '" << arch << "' (separable|inverted)";

  DatasetConfig dc;  // 4-way, 3x16x16
  if (flags.get_string("task") == "blobs") {
    dc.task = SyntheticTask::kBlobScale;
  } else {
    FUSE_CHECK(flags.get_string("task") == "textures")
        << "unknown --task (textures|blobs)";
  }
  const TextureDataset train_data(dc, flags.get_int("train"), 1);
  const TextureDataset eval_data(dc, flags.get_int("eval"), 2);

  TrainConfig tc;
  tc.epochs = flags.get_int("epochs");
  tc.batch_size = 16;
  tc.lr = 0.01;

  std::printf(
      "Accuracy-parity study (ImageNet substitution; see DESIGN.md)\n"
      "task: %lld-way %s, %lldx%lldx%lld; %lld train / "
      "%lld eval; %lld epochs, RMSprop\n\n",
      static_cast<long long>(dc.num_classes),
      synthetic_task_name(dc.task).c_str(),
      static_cast<long long>(dc.channels),
      static_cast<long long>(dc.height),
      static_cast<long long>(dc.width),
      static_cast<long long>(train_data.size()),
      static_cast<long long>(eval_data.size()),
      static_cast<long long>(tc.epochs));

  struct Row {
    const char* label;
    core::FuseMode mode;
    double mean_acc = 0.0;
  };
  Row rows[] = {
      {"baseline (depthwise)", core::FuseMode::kBaseline, 0.0},
      {"FuSe-Full (D=1)", core::FuseMode::kFull, 0.0},
      {"FuSe-Half (D=2)", core::FuseMode::kHalf, 0.0},
  };

  const std::int64_t seeds = flags.get_int("seeds");
  for (Row& row : rows) {
    double sum = 0.0;
    for (std::int64_t seed = 0; seed < seeds; ++seed) {
      util::Rng rng(100 + static_cast<std::uint64_t>(seed));
      TinyNetConfig nc;
      nc.num_classes = dc.num_classes;
      nc.kernels = kernels;
      auto net = arch == "inverted"
                     ? build_tiny_inverted_net(nc, row.mode, rng)
                     : build_tiny_net(nc, row.mode, rng);
      const TrainResult result =
          train_model(*net, train_data, eval_data, tc);
      sum += result.final_eval_accuracy;
    }
    row.mean_acc = sum / static_cast<double>(seeds);
    std::printf("  %-22s mean eval accuracy %.1f%% (%lld seeds)\n",
                row.label, 100.0 * row.mean_acc,
                static_cast<long long>(seeds));
  }

  std::printf(
      "\npaper Table I trend: Full within 1%% of baseline on average; "
      "Half drops >1%% on 4 of 5 networks\n"
      "measured trend: Full %+.1f%% vs baseline, Half %+.1f%% vs "
      "baseline\n",
      100.0 * (rows[1].mean_acc - rows[0].mean_acc),
      100.0 * (rows[2].mean_acc - rows[0].mean_acc));

  if (flags.get_bool("csv")) {
    util::CsvWriter csv("bench_accuracy.csv");
    csv.write_header({"variant", "mean_eval_accuracy"});
    for (const Row& row : rows) {
      csv.write_row({row.label, util::fixed(row.mean_acc, 4)});
    }
    std::printf("wrote bench_accuracy.csv\n");
  }
  return 0;
}
