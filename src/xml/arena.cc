#include "xml/arena.h"

#include <cstring>
#include <new>
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

void Arena::NewChunk(size_t size) {
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

/// Every node type of the tree is a multiple of its alignment in size and
/// no type needs more than an element does, so nodes packed back to back
/// from an aligned start need no padding.
static_assert(alignof(ArenaAttribute) <= alignof(ArenaElement) &&
              alignof(ArenaChild) <= alignof(ArenaElement) &&
              sizeof(ArenaAttribute) % alignof(ArenaElement) == 0 &&
              sizeof(ArenaChild) % alignof(ArenaElement) == 0);

/// Bytes of nodes and of strings that a compact copy of `element`'s
/// subtree needs.
void MeasureSubtree(const ArenaElement& element, size_t* node_bytes,
                    size_t* text_bytes) {
  *node_bytes += sizeof(ArenaElement) +
                 element.attr_count * sizeof(ArenaAttribute) +
                 element.child_count * sizeof(ArenaChild);
  *text_bytes += element.tag.size();
  for (const ArenaAttribute& attr : element.attributes()) {
    *text_bytes += attr.name.size() + attr.value.size();
  }
  for (const ArenaChild& child : element.child_nodes()) {
    if (child.is_element()) {
      MeasureSubtree(*child.element, node_bytes, text_bytes);
    } else {
      *text_bytes += child.text.size();
    }
  }
}

/// Carves a measured copy out of two regions of one chunk: nodes from
/// the front, strings after them.
class CompactCopier {
 public:
  CompactCopier(char* nodes, char* text) : nodes_(nodes), text_(text) {}

  std::string_view Copy(std::string_view text) {
    if (text.empty()) return {};
    std::memcpy(text_, text.data(), text.size());
    std::string_view copy(text_, text.size());
    text_ += text.size();
    return copy;
  }

  const ArenaElement* Copy(const ArenaElement& element) {
    auto* out = new (Take(sizeof(ArenaElement))) ArenaElement(element);
    out->tag = Copy(element.tag);
    out->attrs = nullptr;
    out->children = nullptr;
    if (element.attr_count > 0) {
      auto* attrs = static_cast<ArenaAttribute*>(
          Take(element.attr_count * sizeof(ArenaAttribute)));
      for (uint32_t i = 0; i < element.attr_count; ++i) {
        new (&attrs[i]) ArenaAttribute{Copy(element.attrs[i].name),
                                       Copy(element.attrs[i].value)};
      }
      out->attrs = attrs;
    }
    if (element.child_count > 0) {
      auto* children = static_cast<ArenaChild*>(
          Take(element.child_count * sizeof(ArenaChild)));
      for (uint32_t i = 0; i < element.child_count; ++i) {
        const ArenaChild& child = element.children[i];
        new (&children[i]) ArenaChild{
            child.is_element() ? Copy(*child.element) : nullptr,
            child.is_element() ? std::string_view() : Copy(child.text)};
      }
      out->children = children;
    }
    return out;
  }

 private:
  void* Take(size_t bytes) {
    void* at = nodes_;
    nodes_ += bytes;
    return at;
  }

  char* nodes_;
  char* text_;
};

}  // namespace

ArenaDocument ArenaDocument::CompactCopy() const {
  size_t node_bytes = 0;
  size_t text_bytes = doctype_name_.size() + internal_subset_.size();
  if (root_ != nullptr) MeasureSubtree(*root_, &node_bytes, &text_bytes);

  ArenaDocument copy;
  copy.arena_ = Arena(node_bytes + text_bytes);
  char* nodes = node_bytes == 0 ? nullptr
                                : static_cast<char*>(copy.arena_.Allocate(
                                      node_bytes, alignof(ArenaElement)));
  char* text = text_bytes == 0 ? nullptr
                               : copy.arena_.AllocateArray<char>(text_bytes);
  CompactCopier copier(nodes, text);
  copy.doctype_name_ = copier.Copy(doctype_name_);
  copy.internal_subset_ = copier.Copy(internal_subset_);
  if (root_ != nullptr) copy.root_ = copier.Copy(*root_);
  return copy;
}

Document ArenaDocument::ToDocument() const {
  Document doc;
  doc.set_doctype_name(std::string(doctype_name_));
  doc.set_internal_subset(std::string(internal_subset_));
  if (root_ != nullptr) doc.set_root(MaterializeElement(*root_));
  return doc;
}

}  // namespace dtdevolve::xml
