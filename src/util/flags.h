// Minimal command-line parsing for the CLI tool and bench binaries.
// Supports --name=value and --name value forms, boolean switches, typed
// getters with defaults, positional arguments, and an auto-assembled help
// text from the registrations actually made.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace p2p::util {

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  // Typed getters; each call registers the flag (for Help/unknown-flag
  // detection) and returns the parsed value or the default.
  std::string GetString(const std::string& name, std::string def,
                        const std::string& help = "");
  std::int64_t GetInt(const std::string& name, std::int64_t def,
                      const std::string& help = "");
  double GetDouble(const std::string& name, double def,
                   const std::string& help = "");
  // True when present without value or with value in {1,true,yes,on};
  // false for {0,false,no,off}.
  bool GetBool(const std::string& name, bool def,
               const std::string& help = "");

  bool Has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  // Flags supplied on the command line but never registered by a getter.
  std::vector<std::string> UnknownFlags() const;
  // Throws CheckError naming every unknown flag. Call after the last
  // getter and before any work, so a typo (or --help) fails fast.
  void RejectUnknown() const;

  // Usage text assembled from the registrations (name, default, help).
  std::string Help() const;

 private:
  struct Registration {
    std::string default_value;
    std::string help;
  };

  std::string program_;
  std::map<std::string, std::string> values_;  // name -> raw value
  std::vector<std::string> positional_;
  std::map<std::string, Registration> registered_;
};

}  // namespace p2p::util
