// Command-line flag helpers shared by the tools. Flags are spelled
// "--name value" or "--name=value" (value flags) or "--name" (switches).

#ifndef LIGHT_TOOLS_FLAGS_H_
#define LIGHT_TOOLS_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace light::tools {

// The value of flag `name`, or nullptr when absent. A value-taking flag with
// no value (trailing "--flag") is a usage error, not a silent no-op.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      if (i + 1 < argc) return argv[i + 1];
      std::fprintf(stderr, "error: %s requires a value\n", name);
      std::exit(1);
    }
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

inline bool FlagSet(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// Exits 1 with "error: unknown flag --x" on the first argument that is not
// one of the tool's value flags (with its value) or switches, so a typo or a
// removed flag never silently runs a different configuration.
inline void RejectUnknownFlags(int argc, char** argv,
                               std::initializer_list<const char*> value_flags,
                               std::initializer_list<const char*> switches) {
  const auto listed = [](std::initializer_list<const char*> names,
                         const std::string& name) {
    for (const char* n : names) {
      if (name == n) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    const std::string name = eq != nullptr ? std::string(arg, eq) : arg;
    if (listed(value_flags, name)) {
      if (eq == nullptr) ++i;  // skip the value
      continue;
    }
    if (eq == nullptr && listed(switches, name)) continue;
    if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", name.c_str());
    } else {
      std::fprintf(stderr, "error: unexpected argument %s\n", arg);
    }
    std::exit(1);
  }
}

}  // namespace light::tools

#endif  // LIGHT_TOOLS_FLAGS_H_
