#include "xml/arena.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace dtdevolve::xml {

namespace {

/// Bounded thread-local free list of default-size chunks. A chunk is
/// plain memory, so it may be released on a different thread than it was
/// acquired on (documents move across threads in the server); each
/// thread's pool simply caps its own retention.
constexpr size_t kMaxPooledChunks = 32;
thread_local std::vector<std::unique_ptr<char[]>> chunk_pool;

}  // namespace

Arena::~Arena() {
  auto release = [](Chunk& chunk) {
    if (chunk.data != nullptr && chunk.size == kDefaultChunkBytes &&
        chunk_pool.size() < kMaxPooledChunks) {
      chunk_pool.push_back(std::move(chunk.data));
    }
  };
  release(first_chunk_);
  for (Chunk& chunk : more_chunks_) release(chunk);
}

void Arena::NewChunk(size_t min_bytes) {
  size_t size = std::max(kDefaultChunkBytes, min_bytes);
  Chunk& chunk = first_chunk_.data == nullptr ? first_chunk_
                                              : more_chunks_.emplace_back();
  if (size == kDefaultChunkBytes && !chunk_pool.empty()) {
    chunk.data = std::move(chunk_pool.back());
    chunk_pool.pop_back();
  } else {
    // Uninitialized on purpose: every byte handed out is written before
    // it is read (tree nodes are placement-new'd, strings memcpy'd).
    chunk.data = std::unique_ptr<char[]>(new char[size]);
  }
  chunk.size = size;
  cursor_ = chunk.data.get();
  remaining_ = size;
  bytes_reserved_ += size;
}

namespace {

std::unique_ptr<Element> MaterializeElement(const ArenaElement& element) {
  auto out = std::make_unique<Element>(std::string(element.tag));
  for (const ArenaAttribute& attr : element.attributes()) {
    out->AddAttribute(std::string(attr.name), std::string(attr.value));
  }
  for (const ArenaChild& child : element.child_nodes()) {
    if (child.is_element()) {
      out->AddChild(MaterializeElement(*child.element));
    } else {
      out->AddText(std::string(child.text));
    }
  }
  return out;
}

}  // namespace

Document ArenaDocument::ToDocument() const {
  Document doc;
  doc.set_doctype_name(std::string(doctype_name_));
  doc.set_internal_subset(std::string(internal_subset_));
  if (root_ != nullptr) doc.set_root(MaterializeElement(*root_));
  return doc;
}

}  // namespace dtdevolve::xml
