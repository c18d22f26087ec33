#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace fuse::util {

void CliFlags::add_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  flags_[name] = Flag{Kind::kString, default_value, help};
}

void CliFlags::add_int(const std::string& name, std::int64_t default_value,
                       const std::string& help) {
  flags_[name] = Flag{Kind::kInt, std::to_string(default_value), help};
}

void CliFlags::add_double(const std::string& name, double default_value,
                          const std::string& help) {
  flags_[name] = Flag{Kind::kDouble, std::to_string(default_value), help};
}

void CliFlags::add_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  flags_[name] = Flag{Kind::kBool, default_value ? "true" : "false", help};
}

std::vector<std::string> CliFlags::parse(int argc, const char* const* argv) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    if (arg == "help") {
      // Built-in: print the flag listing and exit successfully, so every
      // binary self-documents (and scripts can probe supported flags).
      std::fputs(usage(argv[0]).c_str(), stdout);
      std::exit(0);
    }
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto it = flags_.find(name);
    FUSE_CHECK(it != flags_.end()) << "unknown flag --" << name;
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        value = "true";
      } else {
        FUSE_CHECK(i + 1 < argc) << "flag --" << name << " needs a value";
        value = argv[++i];
      }
    }
    if (flag.kind == Kind::kInt || flag.kind == Kind::kDouble) {
      // strtoll/strtod accept "" as 0 and saturate out-of-range input, so
      // both are checked here rather than surfacing as a bogus value.
      const bool is_int = flag.kind == Kind::kInt;
      char* end = nullptr;
      errno = 0;
      if (is_int) {
        std::strtoll(value.c_str(), &end, 10);
      } else {
        std::strtod(value.c_str(), &end);
      }
      const bool out_of_range = errno == ERANGE;
      FUSE_CHECK(!value.empty() && *end == '\0')
          << "flag --" << name << " expects "
          << (is_int ? "an integer" : "a number") << ", got '" << value
          << "'";
      FUSE_CHECK(!out_of_range)
          << "flag --" << name << " is out of range, got '" << value << "'";
    } else if (flag.kind == Kind::kBool) {
      const std::string lower = to_lower(value);
      FUSE_CHECK(lower == "true" || lower == "false" || lower == "1" ||
                 lower == "0")
          << "flag --" << name << " expects a boolean, got '" << value << "'";
      value = (lower == "true" || lower == "1") ? "true" : "false";
    }
    flag.value = value;
  }
  return positional;
}

const CliFlags::Flag& CliFlags::find(const std::string& name,
                                     Kind kind) const {
  auto it = flags_.find(name);
  FUSE_CHECK(it != flags_.end()) << "flag --" << name << " not registered";
  FUSE_CHECK(it->second.kind == kind)
      << "flag --" << name << " accessed with the wrong type";
  return it->second;
}

std::string CliFlags::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  return std::strtoll(find(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double CliFlags::get_double(const std::string& name) const {
  return std::strtod(find(name, Kind::kDouble).value.c_str(), nullptr);
}

bool CliFlags::get_bool(const std::string& name) const {
  return find(name, Kind::kBool).value == "true";
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.value << ")  "
        << flag.help << "\n";
  }
  return out.str();
}

}  // namespace fuse::util
