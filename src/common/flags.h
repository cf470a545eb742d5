#ifndef PARTMINER_COMMON_FLAGS_H_
#define PARTMINER_COMMON_FLAGS_H_

#include <initializer_list>
#include <map>
#include <string>

namespace partminer {
namespace flags {

/// Shared `--key=value` flag handling for the tools (partminer, which
/// parses past its subcommand, partminerd, loadgen, pmtop, partminer_fuzz).
/// The bench harnesses keep their richer Flags struct; this is the one
/// place the tools' parse-then-warn behavior lives, so a typo'd flag is
/// never silently ignored by any of them.
using FlagMap = std::map<std::string, std::string>;

/// Parses `--key=value` / bare `--key` (value "1") pairs. Non-flag
/// arguments produce a stderr warning and are skipped.
FlagMap Parse(int argc, char** argv);

/// Warns on stderr about every parsed flag not in `known`; returns how many
/// were unknown so strict tools can refuse to run.
int WarnUnknown(const FlagMap& flags,
                std::initializer_list<const char*> known);

/// Value for `key`, or `fallback` when the flag was not given.
std::string Get(const FlagMap& flags, const std::string& key,
                const std::string& fallback);

/// Validated numeric flags: false (after a stderr diagnostic) on garbage
/// like --threads=eight instead of silently using the default.
bool IntFlag(const FlagMap& flags, const std::string& key, int fallback,
             int* out);
bool DoubleFlag(const FlagMap& flags, const std::string& key, double fallback,
                double* out);

}  // namespace flags
}  // namespace partminer

#endif  // PARTMINER_COMMON_FLAGS_H_
