// Tiny command-line flag parser for the example/bench executables.
//
// Supports --name=value, --name value, and boolean --name. Everything else
// is an error so typos fail loudly: an unknown flag, a single-dash flag, a
// positional argument, a flag missing its value, and a numeric value that
// is empty, has trailing garbage, is out of range, or is not finite.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace fuse::util {

/// Declarative flag set. Register flags with defaults, then parse().
class CliFlags {
 public:
  /// Registers a flag with a default and help text.
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_bool(const std::string& name, bool default_value,
                const std::string& help);

  /// Parses argv. Throws fuse::util::Error naming the offending argument
  /// on any malformed input (see the file comment).
  void parse(int argc, const char* const* argv);

  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// get_int narrowed to int: throws fuse::util::Error naming the flag
  /// when the value does not fit.
  int get_int32(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Usage text listing all registered flags.
  std::string usage(const std::string& program) const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };
  struct Flag {
    Kind kind;
    std::string value;
    std::string help;
  };

  const Flag& find(const std::string& name, Kind kind) const;

  std::map<std::string, Flag> flags_;
};

}  // namespace fuse::util
