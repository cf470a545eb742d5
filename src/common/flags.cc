#include "common/flags.h"

#include <cstdio>

#include "common/parse.h"

namespace partminer {
namespace flags {

FlagMap Parse(int argc, char** argv) {
  FlagMap flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "warning: ignoring stray argument '%s'\n",
                   arg.c_str());
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "1";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

int WarnUnknown(const FlagMap& flags,
                std::initializer_list<const char*> known) {
  int unknown = 0;
  for (const auto& [key, value] : flags) {
    (void)value;
    bool recognized = false;
    for (const char* k : known) recognized = recognized || key == k;
    if (!recognized) {
      ++unknown;
      std::fprintf(stderr, "warning: unrecognized flag --%s (ignored)\n",
                   key.c_str());
    }
  }
  return unknown;
}

std::string Get(const FlagMap& flags, const std::string& key,
                const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

bool IntFlag(const FlagMap& flags, const std::string& key, int fallback,
             int* out) {
  const std::string raw = Get(flags, key, "");
  if (raw.empty()) {
    *out = fallback;
    return true;
  }
  if (!ParseInt32(raw, out)) {
    std::fprintf(stderr, "error: --%s=%s is not an integer\n", key.c_str(),
                 raw.c_str());
    return false;
  }
  return true;
}

bool DoubleFlag(const FlagMap& flags, const std::string& key, double fallback,
                double* out) {
  const std::string raw = Get(flags, key, "");
  if (raw.empty()) {
    *out = fallback;
    return true;
  }
  if (!ParseDouble(raw, out)) {
    std::fprintf(stderr, "error: --%s=%s is not a number\n", key.c_str(),
                 raw.c_str());
    return false;
  }
  return true;
}

}  // namespace flags
}  // namespace partminer
