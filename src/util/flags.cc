#include "util/flags.h"

namespace yver::util {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    std::string name = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  read_.insert(name);
  return values_.count(name) > 0;
}

std::string Flags::Get(const std::string& name,
                       const std::string& fallback) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::string Flags::Require(const std::string& name) const {
  if (!Has(name)) {
    std::fprintf(stderr, "missing required flag --%s\n", name.c_str());
    std::exit(2);
  }
  return Get(name);
}

void Flags::RejectUnread() const {
  bool unread = false;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) > 0) continue;
    std::fprintf(stderr, "unknown flag --%s for this command (see --help)\n",
                 name.c_str());
    unread = true;
  }
  if (unread) std::exit(2);
}

}  // namespace yver::util
