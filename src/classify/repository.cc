#include "classify/repository.h"

#include <utility>

namespace dtdevolve::classify {

int Repository::Add(const xml::ArenaDocument& doc) {
  int id = next_id_++;
  docs_.emplace(id, doc.CompactCopy());
  return id;
}

void Repository::Restore(int id, const xml::ArenaDocument& doc) {
  if (id >= next_id_) next_id_ = id + 1;
  docs_.insert_or_assign(id, doc.CompactCopy());
}

std::vector<int> Repository::Ids() const {
  std::vector<int> ids;
  ids.reserve(docs_.size());
  for (const auto& [id, doc] : docs_) ids.push_back(id);
  return ids;
}

xml::ArenaDocument Repository::Take(int id) {
  auto it = docs_.find(id);
  xml::ArenaDocument doc = std::move(it->second);
  docs_.erase(it);
  return doc;
}

}  // namespace dtdevolve::classify
