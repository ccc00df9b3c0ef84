#include "xml/stream_reader.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "util/symbol_table.h"
#include "xml/fingerprint.h"
#include "xml/text.h"

namespace dtdevolve::xml {

namespace {

/// Element-nesting bound, identical to the DOM parser's: the tree (DOM
/// or arena) is later walked recursively, so depth must stay bounded
/// whichever path parsed it.
constexpr size_t kMaxElementDepth = 512;

/// Retention caps of the per-thread scratch. Past them a buffer is
/// released after the parse, so one huge document does not pin its
/// working set on a serving thread. The frame stack needs no cap: the
/// depth bound already limits it to 512 entries.
constexpr size_t kRetainedChildren = 4096;
constexpr size_t kRetainedAttributes = 256;
constexpr size_t kRetainedTextBytes = 64 * 1024;

/// Small direct-mapped front cache over `util::InternSymbolBounded`:
/// the global table takes a shared lock per probe, which adds up at one
/// probe per element. Tag vocabularies are tiny and highly repetitive,
/// so nearly every probe after warm-up is a lock-free hit here. Returns
/// exactly what the global table would (including `kNoSymbol` once the
/// bounded table is full, because negative answers are not cached).
int32_t InternTagCached(std::string_view tag) {
  struct Entry {
    std::string name;
    int32_t id = util::SymbolTable::kNoSymbol;
  };
  constexpr size_t kSlots = 256;  // power of two
  thread_local std::array<Entry, kSlots> cache;
  const size_t slot = std::hash<std::string_view>{}(tag) & (kSlots - 1);
  Entry& entry = cache[slot];
  if (entry.id != util::SymbolTable::kNoSymbol && entry.name == tag) {
    return entry.id;
  }
  const int32_t id = util::InternSymbolBounded(tag);
  if (id != util::SymbolTable::kNoSymbol) {
    entry.name.assign(tag.data(), tag.size());
    entry.id = id;
  }
  return id;
}

bool IsBlankRun(std::string_view run) {
  return std::all_of(run.begin(), run.end(), IsSpaceChar);
}

/// One open element: its node, where its child slots start on the shared
/// child stack, and its running fingerprint.
struct Frame {
  ArenaElement* element;
  size_t child_start;
  FingerprintAccumulator fp;
};

/// The reader's working stacks, one set per thread, reused across
/// documents. Every parse clears them first (a failed parse leaves them
/// mid-document) and trims them to the retention caps last.
struct ReaderScratch {
  std::vector<Frame> frames;               // open elements, innermost last
  std::vector<ArenaChild> children;        // child slots of open elements
  std::vector<ArenaAttribute> attributes;  // the current start tag's
  std::string text;   // the pending text run, once merged or decoded
  std::string value;  // one decoded attribute value

  void Clear() {
    frames.clear();
    children.clear();
    attributes.clear();
    text.clear();
  }

  void Trim() {
    if (children.capacity() > kRetainedChildren) {
      std::vector<ArenaChild>().swap(children);
    }
    if (attributes.capacity() > kRetainedAttributes) {
      std::vector<ArenaAttribute>().swap(attributes);
    }
    if (text.capacity() > kRetainedTextBytes) std::string().swap(text);
    if (value.capacity() > kRetainedTextBytes) std::string().swap(value);
  }
};

}  // namespace

/// The push scanner. Friend of `ArenaDocument`, so it writes the tree's
/// private fields directly. Each step returns false after recording the
/// error in `error_`; nothing is returned per token on success.
class ArenaDocumentBuilder {
 public:
  ArenaDocumentBuilder(std::string_view input, ReaderScratch& scratch)
      : in_(input), s_(scratch) {}

  StatusOr<ArenaDocument> Parse() {
    if (!Scan()) return std::move(error_);
    return std::move(doc_);
  }

 private:
  /// Records `message` at byte offset `at`, numbering the line the way
  /// the DOM lexer's cursor does: one more than the newlines before it.
  bool Fail(size_t at, std::string_view message) {
    const size_t line = 1 + static_cast<size_t>(std::count(
                                in_.begin(), in_.begin() + at, '\n'));
    error_ = Status::ParseError("line " + std::to_string(line) + ": " +
                                std::string(message));
    return false;
  }

  bool AtEnd() const { return pos_ >= in_.size(); }
  bool At(char c) const { return !AtEnd() && in_[pos_] == c; }

  void SkipSpace() {
    while (!AtEnd() && IsSpaceChar(in_[pos_])) ++pos_;
  }

  bool ScanName(std::string_view* name) {
    if (AtEnd() || !IsNameStartChar(in_[pos_])) {
      return Fail(pos_, "expected a name");
    }
    const size_t start = pos_++;
    while (!AtEnd() && IsNameChar(in_[pos_])) ++pos_;
    *name = in_.substr(start, pos_ - start);
    return true;
  }

  bool Scan() {
    const char* const data = in_.data();
    while (true) {
      const void* lt =
          AtEnd() ? nullptr : std::memchr(data + pos_, '<', in_.size() - pos_);
      const size_t end =
          lt == nullptr ? in_.size() : static_cast<const char*>(lt) - data;
      if (end > pos_ && !Text(end)) return false;
      if (lt == nullptr) break;
      pos_ = end + 1;
      if (!Markup(end)) return false;
    }
    if (!s_.frames.empty()) {
      error_ = Status::ParseError("unexpected end of input: <" +
                                  std::string(s_.frames.back().element->tag) +
                                  "> is not closed");
      return false;
    }
    if (doc_.root_ == nullptr) {
      error_ = Status::ParseError("document has no root element");
      return false;
    }
    return true;
  }

  /// The character data in [pos_, end). Blank runs are dropped after
  /// decoding, as the DOM parser drops them; a decode error is reported
  /// at the run's end, where the DOM lexer's cursor stands.
  bool Text(size_t end) {
    const size_t start = pos_;
    pos_ = end;
    const std::string_view raw = in_.substr(start, end - start);
    if (IsBlankRun(raw)) return true;
    if (raw.find('&') == std::string_view::npos) {
      if (s_.frames.empty()) {
        return Fail(start, "character data outside root element");
      }
      AppendRun(raw);
      return true;
    }
    std::string& text = s_.text;
    if (!text_buffered_) {
      text.assign(pending_);
      text_buffered_ = true;
    }
    const size_t base = text.size();
    Status st = AppendUnescaped(raw, &text);
    if (!st.ok()) return Fail(end, st.message());
    if (IsBlankRun(std::string_view(text).substr(base))) {
      text.resize(base);
      return true;
    }
    if (s_.frames.empty()) {
      return Fail(start, "character data outside root element");
    }
    return true;
  }

  /// Merges one non-blank run into the innermost element's pending text:
  /// a single run stays a view, a second one moves both into scratch.
  void AppendRun(std::string_view run) {
    if (!text_buffered_) {
      if (pending_.empty()) {
        pending_ = run;
        return;
      }
      s_.text.assign(pending_);
      text_buffered_ = true;
    }
    s_.text.append(run);
  }

  void FlushText(Frame& frame) {
    const std::string_view run =
        text_buffered_ ? std::string_view(s_.text) : pending_;
    pending_ = {};
    text_buffered_ = false;
    if (run.empty()) return;
    s_.children.push_back(ArenaChild{nullptr, doc_.arena_.CopyString(run)});
    frame.fp.AbsorbText();
    frame.element->has_text = true;
  }

  /// After a '<' at offset `lt`; pos_ is the next byte.
  bool Markup(size_t lt) {
    if (AtEnd()) return Fail(pos_, "unexpected end of input after '<'");
    switch (in_[pos_]) {
      case '!':
        ++pos_;
        return Bang(lt);
      case '?':
        ++pos_;
        return ProcessingInstruction();
      case '/':
        ++pos_;
        return EndTag(lt);
      default:
        return StartTag(lt);
    }
  }

  bool Bang(size_t lt) {
    const std::string_view rest = in_.substr(pos_);
    if (rest.starts_with("--")) {
      const size_t close = in_.find("-->", pos_ + 2);
      if (close == std::string_view::npos) {
        return Fail(in_.size(), "unterminated comment");
      }
      pos_ = close + 3;
      return true;
    }
    if (rest.starts_with("[CDATA[")) {
      const size_t open = pos_ + 7;
      const size_t close = in_.find("]]>", open);
      if (close == std::string_view::npos) {
        return Fail(in_.size(), "unterminated CDATA section");
      }
      pos_ = close + 3;
      // CDATA content is literal: never unescaped, like the DOM lexer.
      const std::string_view raw = in_.substr(open, close - open);
      if (IsBlankRun(raw)) return true;
      if (s_.frames.empty()) {
        return Fail(lt, "character data outside root element");
      }
      AppendRun(raw);
      return true;
    }
    if (rest.starts_with("DOCTYPE")) {
      pos_ += 7;
      return Doctype(lt);
    }
    return Fail(pos_, "unrecognized markup declaration");
  }

  bool ProcessingInstruction() {
    std::string_view target;
    if (!ScanName(&target)) return false;
    const size_t close = in_.find("?>", pos_);
    if (close == std::string_view::npos) {
      return Fail(in_.size(), "unterminated processing instruction");
    }
    pos_ = close + 2;
    return true;
  }

  bool Doctype(size_t lt) {
    SkipSpace();
    std::string_view name;
    if (!ScanName(&name)) return false;
    // Skip the external id (SYSTEM/PUBLIC with quoted literals), if any.
    SkipSpace();
    while (!AtEnd() && in_[pos_] != '[' && in_[pos_] != '>') {
      const char c = in_[pos_++];
      if (c == '"' || c == '\'') {
        const size_t close = in_.find(c, pos_);
        if (close == std::string_view::npos) {
          return Fail(in_.size(), "unterminated literal in DOCTYPE");
        }
        pos_ = close + 1;
      }
    }
    std::string_view subset;
    if (At('[')) {
      // The internal subset is captured verbatim, brackets balanced.
      const size_t start = ++pos_;
      int depth = 1;
      for (; !AtEnd(); ++pos_) {
        if (in_[pos_] == '[') {
          ++depth;
        } else if (in_[pos_] == ']' && --depth == 0) {
          break;
        }
      }
      if (depth != 0) {
        return Fail(in_.size(), "unterminated DOCTYPE internal subset");
      }
      subset = in_.substr(start, pos_ - start);
      ++pos_;
      SkipSpace();
    }
    if (!At('>')) return Fail(pos_, "expected '>' closing DOCTYPE");
    ++pos_;
    if (doc_.root_ != nullptr || !s_.frames.empty()) {
      return Fail(lt, "DOCTYPE after content");
    }
    doc_.doctype_name_ = doc_.arena_.CopyString(name);
    doc_.internal_subset_ = doc_.arena_.CopyString(subset);
    return true;
  }

  bool StartTag(size_t lt) {
    std::string_view name;
    if (!ScanName(&name)) return false;
    Arena& arena = doc_.arena_;
    s_.attributes.clear();
    bool self_closing = false;
    while (true) {
      SkipSpace();
      if (AtEnd()) return Fail(pos_, "unterminated start tag");
      if (At('>')) {
        ++pos_;
        break;
      }
      if (At('/')) {
        ++pos_;
        if (!At('>')) return Fail(pos_, "expected '>' after '/'");
        ++pos_;
        self_closing = true;
        break;
      }
      std::string_view attr_name;
      if (!ScanName(&attr_name)) return false;
      SkipSpace();
      if (!At('=')) return Fail(pos_, "expected '=' after attribute name");
      ++pos_;
      SkipSpace();
      if (!At('"') && !At('\'')) {
        return Fail(pos_, "expected a quoted attribute value");
      }
      const size_t open = pos_ + 1;
      const size_t close = in_.find(in_[pos_], open);
      if (close == std::string_view::npos) {
        return Fail(in_.size(), "unterminated attribute value");
      }
      pos_ = close + 1;
      const std::string_view raw = in_.substr(open, close - open);
      ArenaAttribute& attr = s_.attributes.emplace_back();
      attr.name = arena.CopyString(attr_name);
      if (raw.find('&') == std::string_view::npos) {
        attr.value = arena.CopyString(raw);
      } else {
        s_.value.clear();
        Status st = AppendUnescaped(raw, &s_.value);
        if (!st.ok()) return Fail(pos_, st.message());
        attr.value = arena.CopyString(s_.value);
      }
    }
    // Document discipline after the whole token, as the DOM parser's
    // tree builder sees it.
    if (s_.frames.empty() && doc_.root_ != nullptr) {
      return Fail(lt, "multiple root elements (second is <" +
                          std::string(name) + ">)");
    }
    if (s_.frames.size() >= kMaxElementDepth) {
      return Fail(lt, "elements nested deeper than " +
                          std::to_string(kMaxElementDepth));
    }
    Open(name);
    if (self_closing) Close();
    return true;
  }

  bool EndTag(size_t lt) {
    std::string_view name;
    if (!ScanName(&name)) return false;
    SkipSpace();
    if (!At('>')) return Fail(pos_, "expected '>' in end tag");
    ++pos_;
    if (s_.frames.empty()) {
      return Fail(lt, "unmatched end tag </" + std::string(name) + ">");
    }
    const std::string_view open = s_.frames.back().element->tag;
    if (open != name) {
      return Fail(lt, "end tag </" + std::string(name) +
                          "> does not match open <" + std::string(open) + ">");
    }
    Close();
    return true;
  }

  void Open(std::string_view tag) {
    if (!s_.frames.empty()) FlushText(s_.frames.back());
    Arena& arena = doc_.arena_;
    auto* element = new (arena.Allocate(sizeof(ArenaElement),
                                        alignof(ArenaElement))) ArenaElement();
    element->tag = arena.CopyString(tag);
    element->tag_id = InternTagCached(tag);
    if (!s_.attributes.empty()) {
      auto* stored = arena.AllocateArray<ArenaAttribute>(s_.attributes.size());
      std::copy(s_.attributes.begin(), s_.attributes.end(), stored);
      element->attrs = stored;
      element->attr_count = static_cast<uint32_t>(s_.attributes.size());
    }
    s_.frames.push_back(Frame{
        element, s_.children.size(),
        FingerprintAccumulator(FingerprintTagToken(element->tag_id, tag))});
  }

  void Close() {
    Frame& frame = s_.frames.back();
    FlushText(frame);
    frame.fp.Close();
    ArenaElement* element = frame.element;
    element->fp_hi = frame.fp.hi;
    element->fp_lo = frame.fp.lo;
    element->element_count = frame.fp.element_count;
    const size_t child_count = s_.children.size() - frame.child_start;
    if (child_count > 0) {
      auto* children = doc_.arena_.AllocateArray<ArenaChild>(child_count);
      std::copy(s_.children.begin() + frame.child_start, s_.children.end(),
                children);
      s_.children.resize(frame.child_start);
      element->children = children;
      element->child_count = static_cast<uint32_t>(child_count);
    }
    s_.frames.pop_back();
    if (s_.frames.empty()) {
      doc_.root_ = element;
    } else {
      s_.frames.back().fp.AbsorbElement(element->fp_hi, element->fp_lo,
                                        element->element_count);
      s_.children.push_back(ArenaChild{element, {}});
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  ReaderScratch& s_;
  ArenaDocument doc_;
  Status error_;
  /// The innermost element's pending text: a view of one run, or — once
  /// a second run merges into it or a run needed decoding — `s_.text`.
  std::string_view pending_;
  bool text_buffered_ = false;
};

StatusOr<ArenaDocument> ParseArenaDocument(std::string_view input) {
  thread_local ReaderScratch scratch;
  scratch.Clear();
  StatusOr<ArenaDocument> result = ArenaDocumentBuilder(input, scratch).Parse();
  scratch.Trim();
  return result;
}

}  // namespace dtdevolve::xml
