#include "util/flags.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace p2p::util {
namespace {

bool LooksLikeFlag(const std::string& s) {
  return s.size() > 2 && s.rfind("--", 0) == 0;
}

}  // namespace

FlagParser::FlagParser(int argc, const char* const* argv) {
  P2P_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --name value (value must not itself look like a flag) or a bare
    // boolean switch.
    if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name, std::string def,
                                  const std::string& help) {
  registered_[name] = {def, help};
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t FlagParser::GetInt(const std::string& name, std::int64_t def,
                                const std::string& help) {
  registered_[name] = {std::to_string(def), help};
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return def;
  try {
    return std::stoll(it->second);
  } catch (...) {
    throw CheckError("flag --" + name + " expects an integer, got '" +
                     it->second + "'");
  }
}

double FlagParser::GetDouble(const std::string& name, double def,
                             const std::string& help) {
  registered_[name] = {std::to_string(def), help};
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return def;
  try {
    return std::stod(it->second);
  } catch (...) {
    throw CheckError("flag --" + name + " expects a number, got '" +
                     it->second + "'");
  }
}

bool FlagParser::GetBool(const std::string& name, bool def,
                         const std::string& help) {
  registered_[name] = {def ? "true" : "false", help};
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on")
    return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw CheckError("flag --" + name + " expects a boolean, got '" +
                   it->second + "'");
}

std::vector<std::string> FlagParser::UnknownFlags() const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!registered_.count(name)) unknown.push_back(name);
  }
  return unknown;
}

void FlagParser::RejectUnknown() const {
  const std::vector<std::string> unknown = UnknownFlags();
  if (unknown.empty()) return;
  std::string msg = unknown.size() == 1 ? "unknown flag" : "unknown flags";
  for (const std::string& name : unknown) msg += " --" + name;
  throw CheckError(msg);
}

std::string FlagParser::Help() const {
  std::ostringstream os;
  os << "flags:\n";
  for (const auto& [name, reg] : registered_) {
    os << "  --" << name << " (default: " << reg.default_value << ")";
    if (!reg.help.empty()) os << "  " << reg.help;
    os << "\n";
  }
  return os.str();
}

}  // namespace p2p::util
