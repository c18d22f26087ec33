#include "nets/serialize.hpp"

#include <fstream>
#include <sstream>

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

/// Reads a fixed keyword token and throws with context when it mismatches.
void expect_token(std::istream& in, const std::string& expected) {
  std::string token;
  in >> token;
  FUSE_CHECK(token == expected)
      << "malformed network text: expected '" << expected << "', got '"
      << token << "'";
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
    expect_token(in, "layer");
    in >> layer.name;
    expect_token(in, "kind");
    in >> kind_name;
    expect_token(in, "in");
    in >> layer.in_c >> layer.in_h >> layer.in_w;
    expect_token(in, "out");
    in >> layer.out_c >> layer.out_h >> layer.out_w;
    expect_token(in, "k");
    in >> layer.kernel_h >> layer.kernel_w;
    expect_token(in, "s");
    in >> layer.stride_h >> layer.stride_w;
    expect_token(in, "p");
    in >> layer.pad_h >> layer.pad_w;
    expect_token(in, "g");
    in >> layer.groups;
    expect_token(in, "bias");
    in >> bias;
    expect_token(in, "bn");
    in >> bn;
    expect_token(in, "act");
    in >> act_name;
    expect_token(in, "se");
    in >> se;
    expect_token(in, "slot");
    in >> layer.fuse_slot;
    FUSE_CHECK(!in.fail()) << "malformed layer record " << i;
    layer.kind = nn::op_kind_from_name(kind_name);
    layer.activation = nn::activation_from_name(act_name);
    layer.has_bias = bias != 0;
    layer.has_batchnorm = bn != 0;
    layer.in_squeeze_excite = se != 0;
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
