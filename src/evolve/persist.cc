#include "evolve/persist.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"

namespace dtdevolve::evolve {

namespace {

constexpr char kHeader[] = "dtdevolve-stats 1";

/// Nesting bound for `plus` structures. Legitimate snapshots are bounded
/// by the XML parser's element-depth limit (a plus structure is recorded
/// per document level), so anything deeper is a corrupted or hostile
/// snapshot — rejected instead of recursing off the stack.
constexpr int kMaxPlusDepth = 512;

void AppendOccurrence(const OccurrenceStats& occ, std::string& out) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "occ %" PRIu64 " %" PRIu64 " %" PRIu64 " %.17g %zu",
                occ.instances, occ.repeated, occ.occurrences,
                occ.position_sum, occ.count_histogram.size());
  out += buffer;
  for (const auto& [count, n] : occ.count_histogram) {
    std::snprintf(buffer, sizeof(buffer), " %u %" PRIu64, count, n);
    out += buffer;
  }
  out += '\n';
}

void AppendElementStats(const ElementStats& stats, std::string& out) {
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "counters %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 "\n",
                stats.valid_instances(), stats.invalid_instances(),
                stats.docs_with_valid(), stats.docs_with_invalid(),
                stats.text_instances(), stats.empty_instances());
  out += buffer;

  std::snprintf(buffer, sizeof(buffer), "labels %zu\n",
                stats.labels().size());
  out += buffer;
  for (const auto& [label, label_stats] : stats.labels()) {
    out += "label " + label + "\n";
    AppendOccurrence(label_stats.valid, out);
    AppendOccurrence(label_stats.invalid, out);
    if (label_stats.plus_structure != nullptr) {
      out += "plus 1\n";
      AppendElementStats(*label_stats.plus_structure, out);
    } else {
      out += "plus 0\n";
    }
  }

  std::snprintf(buffer, sizeof(buffer), "sequences %zu\n",
                stats.sequences().size());
  out += buffer;
  for (const auto& [labels, count] : stats.sequences()) {
    std::snprintf(buffer, sizeof(buffer), "seq %" PRIu64 " %zu", count,
                  labels.size());
    out += buffer;
    for (const std::string& label : labels) {
      out += ' ';
      out += label;
    }
    out += '\n';
  }

  std::snprintf(buffer, sizeof(buffer), "groups %zu\n",
                stats.groups().size());
  out += buffer;
  for (const auto& [key, count] : stats.groups()) {
    std::snprintf(buffer, sizeof(buffer), "group %" PRIu64 " %u %zu", count,
                  key.repeat_count, key.labels.size());
    out += buffer;
    for (const std::string& label : key.labels) {
      out += ' ';
      out += label;
    }
    out += '\n';
  }

  std::snprintf(buffer, sizeof(buffer), "attrs %zu\n",
                stats.attribute_counts().size());
  out += buffer;
  // Attribute names are unbounded — concatenate instead of routing them
  // through the fixed-size buffer, which would silently truncate.
  for (const auto& [name, count] : stats.attribute_counts()) {
    out += "attr ";
    out += name;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
}

/// Token reader over the serialized form.
class Reader {
 public:
  explicit Reader(std::string_view data) : stream_(std::string(data)) {}

  Status ExpectWord(std::string_view word) {
    std::string token;
    if (!(stream_ >> token) || token != word) {
      return Status::ParseError("expected '" + std::string(word) +
                                "', got '" + token + "'");
    }
    return Status::Ok();
  }

  StatusOr<std::string> Word() {
    std::string token;
    if (!(stream_ >> token)) {
      return Status::ParseError("unexpected end of stats data");
    }
    return token;
  }

  StatusOr<uint64_t> U64() {
    uint64_t value = 0;
    if (!(stream_ >> value)) {
      return Status::ParseError("expected an integer");
    }
    return value;
  }

  StatusOr<double> Double() {
    double value = 0;
    if (!(stream_ >> value)) {
      return Status::ParseError("expected a number");
    }
    return value;
  }

  /// Reads the remainder of the current line plus `lines` further lines.
  StatusOr<std::string> RawLines(uint64_t lines) {
    std::string out;
    std::string line;
    std::getline(stream_, line);  // rest of current line
    for (uint64_t i = 0; i < lines; ++i) {
      if (!std::getline(stream_, line)) {
        return Status::ParseError("truncated raw block");
      }
      out += line;
      out += '\n';
    }
    return out;
  }

 private:
  std::istringstream stream_;
};

Status ParseOccurrence(Reader& reader, OccurrenceStats& occ) {
  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("occ"));
  StatusOr<uint64_t> instances = reader.U64();
  if (!instances.ok()) return instances.status();
  StatusOr<uint64_t> repeated = reader.U64();
  if (!repeated.ok()) return repeated.status();
  StatusOr<uint64_t> occurrences = reader.U64();
  if (!occurrences.ok()) return occurrences.status();
  StatusOr<double> position_sum = reader.Double();
  if (!position_sum.ok()) return position_sum.status();
  StatusOr<uint64_t> hist_size = reader.U64();
  if (!hist_size.ok()) return hist_size.status();
  occ.instances = *instances;
  occ.repeated = *repeated;
  occ.occurrences = *occurrences;
  occ.position_sum = *position_sum;
  for (uint64_t i = 0; i < *hist_size; ++i) {
    StatusOr<uint64_t> key = reader.U64();
    if (!key.ok()) return key.status();
    StatusOr<uint64_t> value = reader.U64();
    if (!value.ok()) return value.status();
    occ.count_histogram[static_cast<uint32_t>(*key)] = *value;
  }
  return Status::Ok();
}

Status ParseElementStats(Reader& reader, ElementStats& stats, int depth) {
  if (depth > kMaxPlusDepth) {
    return Status::ParseError("plus structures nested deeper than " +
                              std::to_string(kMaxPlusDepth));
  }
  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("counters"));
  uint64_t counters[6];
  for (uint64_t& counter : counters) {
    StatusOr<uint64_t> value = reader.U64();
    if (!value.ok()) return value.status();
    counter = *value;
  }
  stats.RestoreCounters(counters[0], counters[1], counters[2], counters[3],
                        counters[4], counters[5]);

  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("labels"));
  StatusOr<uint64_t> num_labels = reader.U64();
  if (!num_labels.ok()) return num_labels.status();
  for (uint64_t i = 0; i < *num_labels; ++i) {
    DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("label"));
    StatusOr<std::string> name = reader.Word();
    if (!name.ok()) return name.status();
    LabelStats& label_stats = stats.labels()[*name];
    DTDEVOLVE_RETURN_IF_ERROR(ParseOccurrence(reader, label_stats.valid));
    DTDEVOLVE_RETURN_IF_ERROR(ParseOccurrence(reader, label_stats.invalid));
    DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("plus"));
    StatusOr<uint64_t> has_plus = reader.U64();
    if (!has_plus.ok()) return has_plus.status();
    if (*has_plus != 0) {
      label_stats.plus_structure = std::make_unique<ElementStats>();
      DTDEVOLVE_RETURN_IF_ERROR(
          ParseElementStats(reader, *label_stats.plus_structure, depth + 1));
    }
  }

  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("sequences"));
  StatusOr<uint64_t> num_sequences = reader.U64();
  if (!num_sequences.ok()) return num_sequences.status();
  for (uint64_t i = 0; i < *num_sequences; ++i) {
    DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("seq"));
    StatusOr<uint64_t> count = reader.U64();
    if (!count.ok()) return count.status();
    StatusOr<uint64_t> size = reader.U64();
    if (!size.ok()) return size.status();
    std::set<std::string> labels;
    for (uint64_t l = 0; l < *size; ++l) {
      StatusOr<std::string> label = reader.Word();
      if (!label.ok()) return label.status();
      labels.insert(std::move(*label));
    }
    stats.RestoreSequence(std::move(labels), *count);
  }

  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("groups"));
  StatusOr<uint64_t> num_groups = reader.U64();
  if (!num_groups.ok()) return num_groups.status();
  for (uint64_t i = 0; i < *num_groups; ++i) {
    DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("group"));
    StatusOr<uint64_t> count = reader.U64();
    if (!count.ok()) return count.status();
    StatusOr<uint64_t> repeat = reader.U64();
    if (!repeat.ok()) return repeat.status();
    StatusOr<uint64_t> size = reader.U64();
    if (!size.ok()) return size.status();
    GroupKey key;
    key.repeat_count = static_cast<uint32_t>(*repeat);
    for (uint64_t l = 0; l < *size; ++l) {
      StatusOr<std::string> label = reader.Word();
      if (!label.ok()) return label.status();
      key.labels.insert(std::move(*label));
    }
    stats.RestoreGroup(std::move(key), *count);
  }

  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("attrs"));
  StatusOr<uint64_t> num_attrs = reader.U64();
  if (!num_attrs.ok()) return num_attrs.status();
  for (uint64_t i = 0; i < *num_attrs; ++i) {
    DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("attr"));
    StatusOr<std::string> name = reader.Word();
    if (!name.ok()) return name.status();
    StatusOr<uint64_t> count = reader.U64();
    if (!count.ok()) return count.status();
    stats.RestoreAttributeCount(*name, *count);
  }
  return Status::Ok();
}

}  // namespace

std::string SerializeExtendedDtd(const ExtendedDtd& ext) {
  std::string out = kHeader;
  out += '\n';

  std::string dtd_text = dtd::WriteDtd(ext.dtd());
  size_t dtd_lines = 0;
  for (char c : dtd_text) {
    if (c == '\n') ++dtd_lines;
  }
  // The root name is caller-controlled and unbounded — never route it
  // through a fixed-size buffer, or long names truncate and the
  // serialization stops being a deserialization fixed point.
  out += "dtd ";
  out += ext.dtd().root_name();
  out += ' ';
  out += std::to_string(dtd_lines);
  out += '\n';
  out += dtd_text;
  char buffer[160];

  std::snprintf(buffer, sizeof(buffer),
                "aggregates %" PRIu64 " %" PRIu64 " %" PRIu64 " %.17g\n",
                ext.documents_recorded(), ext.total_elements_recorded(),
                ext.invalid_elements_recorded(), ext.divergence_sum());
  out += buffer;

  std::snprintf(buffer, sizeof(buffer), "stats %zu\n",
                ext.all_stats().size());
  out += buffer;
  for (const auto& [name, stats] : ext.all_stats()) {
    out += "element " + name + "\n";
    AppendElementStats(stats, out);
  }
  return out;
}

StatusOr<ExtendedDtd> DeserializeExtendedDtd(std::string_view data) {
  Reader reader(data);
  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("dtdevolve-stats"));
  StatusOr<uint64_t> version = reader.U64();
  if (!version.ok()) return version.status();
  if (*version != 1) {
    return Status::InvalidArgument("unsupported stats version " +
                                   std::to_string(*version));
  }

  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("dtd"));
  StatusOr<std::string> root = reader.Word();
  if (!root.ok()) return root.status();
  StatusOr<uint64_t> dtd_lines = reader.U64();
  if (!dtd_lines.ok()) return dtd_lines.status();
  StatusOr<std::string> dtd_text = reader.RawLines(*dtd_lines);
  if (!dtd_text.ok()) return dtd_text.status();
  StatusOr<dtd::Dtd> parsed = dtd::ParseDtd(*dtd_text, std::move(*root));
  if (!parsed.ok()) return parsed.status();
  ExtendedDtd ext(std::move(*parsed));

  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("aggregates"));
  StatusOr<uint64_t> documents = reader.U64();
  if (!documents.ok()) return documents.status();
  StatusOr<uint64_t> total = reader.U64();
  if (!total.ok()) return total.status();
  StatusOr<uint64_t> invalid = reader.U64();
  if (!invalid.ok()) return invalid.status();
  StatusOr<double> divergence_sum = reader.Double();
  if (!divergence_sum.ok()) return divergence_sum.status();
  ext.RestoreAggregates(*documents, *total, *invalid, *divergence_sum);

  DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("stats"));
  StatusOr<uint64_t> num_elements = reader.U64();
  if (!num_elements.ok()) return num_elements.status();
  for (uint64_t i = 0; i < *num_elements; ++i) {
    DTDEVOLVE_RETURN_IF_ERROR(reader.ExpectWord("element"));
    StatusOr<std::string> name = reader.Word();
    if (!name.ok()) return name.status();
    DTDEVOLVE_RETURN_IF_ERROR(
        ParseElementStats(reader, ext.StatsFor(*name), /*depth=*/0));
  }
  return ext;
}

}  // namespace dtdevolve::evolve
