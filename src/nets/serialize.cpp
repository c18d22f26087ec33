#include "nets/serialize.hpp"

#include <array>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace fuse::nets {

using nn::LayerDesc;

std::string to_text(const NetworkModel& model) {
  std::ostringstream out;
  FUSE_CHECK(model.name.find_first_of(" \t\n") == std::string::npos)
      << "network name must not contain whitespace: '" << model.name << "'";
  out << "fusenet v1 name " << model.name << " slots " << model.num_slots
      << " layers " << model.layers.size() << "\n";
  for (const LayerDesc& layer : model.layers) {
    FUSE_CHECK(layer.name.find_first_of(" \t\n") == std::string::npos)
        << "layer name must not contain whitespace: '" << layer.name << "'";
    out << "layer " << layer.name << " kind " << nn::op_kind_name(layer.kind)
        << " in " << layer.in_c << ' ' << layer.in_h << ' ' << layer.in_w
        << " out " << layer.out_c << ' ' << layer.out_h << ' '
        << layer.out_w << " k " << layer.kernel_h << ' ' << layer.kernel_w
        << " s " << layer.stride_h << ' ' << layer.stride_w << " p "
        << layer.pad_h << ' ' << layer.pad_w << " g " << layer.groups
        << " bias " << (layer.has_bias ? 1 : 0) << " bn "
        << (layer.has_batchnorm ? 1 : 0) << " act "
        << nn::activation_name(layer.activation) << " se "
        << (layer.in_squeeze_excite ? 1 : 0) << " slot " << layer.fuse_slot
        << "\n";
  }
  return out.str();
}

namespace {

/// Reads a fixed keyword token and throws naming `where` when it
/// mismatches (or when an earlier value did not parse).
void expect_token(std::istream& in, const std::string& expected,
                  const std::string& where = "network text") {
  std::string token;
  in >> token;
  FUSE_CHECK(token == expected)
      << "malformed " << where << ": expected '" << expected << "', got '"
      << token << "'";
}

/// "layer record <index> ('<name>')" — how every record error names it.
std::string record_name(std::size_t index, const std::string& name) {
  return "layer record " + std::to_string(index) + " ('" + name + "')";
}

/// FUSE_CHECKs the values of one parsed layer record, named `record` in
/// every message: channel
/// counts, spatial dims, kernel and stride at least 1, padding at least 0,
/// groups at least 1 and dividing both channel counts, and the record's
/// padded input extents and element, MAC and parameter counts within 64
/// bits.
void check_record(const LayerDesc& layer, const std::string& record) {
  const std::pair<const char*, std::int64_t> at_least_one[] = {
      {"in_c", layer.in_c},         {"in_h", layer.in_h},
      {"in_w", layer.in_w},         {"out_c", layer.out_c},
      {"out_h", layer.out_h},       {"out_w", layer.out_w},
      {"kernel_h", layer.kernel_h}, {"kernel_w", layer.kernel_w},
      {"stride_h", layer.stride_h}, {"stride_w", layer.stride_w},
      {"groups", layer.groups}};
  for (const auto& [field, value] : at_least_one) {
    FUSE_CHECK(value >= 1)
        << record << ": " << field << " must be >= 1, got " << value;
  }
  for (const auto [in, pad] : {std::array{layer.in_h, layer.pad_h},
                               std::array{layer.in_w, layer.pad_w}}) {
    FUSE_CHECK(pad >= 0 &&
               pad <= (std::numeric_limits<std::int64_t>::max() - in) / 2)
        << record << ": padding must be >= 0 and keep the padded input "
        << "within 64 bits, got " << pad;
  }
  FUSE_CHECK(layer.in_c % layer.groups == 0 &&
             layer.out_c % layer.groups == 0)
      << record << ": groups " << layer.groups << " must divide in_c "
      << layer.in_c << " and out_c " << layer.out_c;
  for (const auto [c, h, w] : {std::array{layer.in_c, layer.in_h, layer.in_w},
                               std::array{layer.out_c, layer.out_h,
                                          layer.out_w}}) {
    std::int64_t elements = 0;
    FUSE_CHECK(!__builtin_mul_overflow(c, h, &elements) &&
               !__builtin_mul_overflow(elements, w, &elements))
        << record << ": a " << c << "x" << h << "x" << w
        << " activation overflows 64 bits";
  }
  layer.macs();    // FUSE_CHECKs its own overflow
  layer.params();  // likewise
}

}  // namespace

NetworkModel from_text(const std::string& text) {
  std::istringstream in(text);
  expect_token(in, "fusenet");
  expect_token(in, "v1");
  expect_token(in, "name");
  NetworkModel model;
  in >> model.name;
  expect_token(in, "slots");
  in >> model.num_slots;
  expect_token(in, "layers");
  std::size_t layer_count = 0;
  in >> layer_count;
  FUSE_CHECK(in.good()) << "malformed network header";

  // The declared count is unchecked input: records are appended as they
  // parse, so a text shorter than its count fails at the first missing
  // record instead of sizing an allocation.
  for (std::size_t i = 0; i < layer_count; ++i) {
    LayerDesc layer;
    std::string kind_name;
    std::string act_name;
    int bias = 0, bn = 0, se = 0;
    expect_token(in, "layer", record_name(i, ""));
    in >> layer.name;
    const std::string where = record_name(i, layer.name);
    expect_token(in, "kind", where);
    in >> kind_name;
    expect_token(in, "in", where);
    in >> layer.in_c >> layer.in_h >> layer.in_w;
    expect_token(in, "out", where);
    in >> layer.out_c >> layer.out_h >> layer.out_w;
    expect_token(in, "k", where);
    in >> layer.kernel_h >> layer.kernel_w;
    expect_token(in, "s", where);
    in >> layer.stride_h >> layer.stride_w;
    expect_token(in, "p", where);
    in >> layer.pad_h >> layer.pad_w;
    expect_token(in, "g", where);
    in >> layer.groups;
    expect_token(in, "bias", where);
    in >> bias;
    expect_token(in, "bn", where);
    in >> bn;
    expect_token(in, "act", where);
    in >> act_name;
    expect_token(in, "se", where);
    in >> se;
    expect_token(in, "slot", where);
    in >> layer.fuse_slot;
    FUSE_CHECK(!in.fail()) << "malformed " << where;
    layer.kind = nn::op_kind_from_name(kind_name);
    layer.activation = nn::activation_from_name(act_name);
    layer.has_bias = bias != 0;
    layer.has_batchnorm = bn != 0;
    layer.in_squeeze_excite = se != 0;
    check_record(layer, where);
    model.layers.push_back(std::move(layer));
  }
  return model;
}

void save_network(const NetworkModel& model, const std::string& path) {
  std::ofstream out(path);
  FUSE_CHECK(out.good()) << "cannot open '" << path << "' for writing";
  out << to_text(model);
  FUSE_CHECK(out.good()) << "write to '" << path << "' failed";
}

NetworkModel load_network(const std::string& path) {
  std::ifstream in(path);
  FUSE_CHECK(in.good()) << "cannot open '" << path << "' for reading";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_text(buffer.str());
}

}  // namespace fuse::nets
