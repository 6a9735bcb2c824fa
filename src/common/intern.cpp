#include "common/intern.h"

#include <mutex>
#include <string_view>
#include <unordered_map>

namespace linbound {
namespace {

struct Pool {
  std::mutex mu;
  // Keys view into the pooled strings themselves; a shared_ptr keeps each
  // string alive for the life of the process, so the views never dangle.
  std::unordered_map<std::string_view, std::shared_ptr<const std::string>> map;
};

Pool& pool() {
  static Pool* p = new Pool;  // leaked: interned strings outlive all users
  return *p;
}

}  // namespace

std::shared_ptr<const std::string> intern_string(std::string s) {
  Pool& p = pool();
  std::lock_guard<std::mutex> lock(p.mu);
  auto it = p.map.find(std::string_view(s));
  if (it != p.map.end()) return it->second;
  auto stored = std::make_shared<const std::string>(std::move(s));
  p.map.emplace(std::string_view(*stored), stored);
  return stored;
}

}  // namespace linbound
