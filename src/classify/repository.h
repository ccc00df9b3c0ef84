#ifndef DTDEVOLVE_CLASSIFY_REPOSITORY_H_
#define DTDEVOLVE_CLASSIFY_REPOSITORY_H_

#include <map>
#include <vector>

#include "xml/arena.h"

namespace dtdevolve::classify {

/// The repository of unclassified documents (§2): documents whose best
/// similarity stayed below σ wait here and are re-classified after every
/// evolution round.
///
/// Documents are held as arena trees, each compacted on the way in
/// (`xml::ArenaDocument::CompactCopy`) into one chunk of exactly its
/// size: a parse-time arena reserves a 32 KiB chunk, which a long-held
/// document would otherwise pin. The nodes keep their parse-time
/// fingerprints, so the clusterer and every re-classification pass read
/// them without re-deriving anything.
class Repository {
 public:
  Repository() = default;

  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;

  /// Stores a compact copy of `doc`; returns its repository id.
  int Add(const xml::ArenaDocument& doc);

  size_t size() const { return docs_.size(); }
  bool empty() const { return docs_.empty(); }

  /// Ids of all stored documents, ascending.
  std::vector<int> Ids() const;

  bool Has(int id) const { return docs_.find(id) != docs_.end(); }

  /// Must be called with a valid id.
  const xml::ArenaDocument& Get(int id) const { return docs_.at(id); }

  /// Removes the document and returns it; must be called with a valid id.
  xml::ArenaDocument Take(int id);

  /// Re-inserts a compact copy of a persisted document under its
  /// original id (crash recovery, see store/checkpoint.h). Ids matter:
  /// re-classification visits documents in ascending-id order, so
  /// restoring them under fresh ids would change replay outcomes. Later
  /// `Add` calls continue above every restored id.
  void Restore(int id, const xml::ArenaDocument& doc);

  /// The id the next `Add` will assign. Persisted in checkpoints: after
  /// an eviction the counter is ahead of max(id)+1, and replaying WAL
  /// eviction records (which name explicit ids) against a restored
  /// repository only lines up when post-restore `Add` calls assign the
  /// same ids the live run did.
  int next_id() const { return next_id_; }

  /// Raises the id counter to `next` (never lowers it — restored docs
  /// may already have pushed it higher).
  void SetNextId(int next) {
    if (next > next_id_) next_id_ = next;
  }

  void Clear() { docs_.clear(); }

 private:
  int next_id_ = 0;
  std::map<int, xml::ArenaDocument> docs_;
};

}  // namespace dtdevolve::classify

#endif  // DTDEVOLVE_CLASSIFY_REPOSITORY_H_
