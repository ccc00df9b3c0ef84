#include "store/checkpoint.h"

#include <dirent.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "evolve/persist.h"
#include "io/file.h"
#include "store/evict_record.h"
#include "store/induce_record.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve::store {

namespace {

constexpr std::string_view kSourceHeader = "dtdevolve-source 1";
constexpr std::string_view kMetaHeader = "dtdevolve-checkpoint 1";
constexpr const char* kMetaName = "checkpoint.meta";
/// Initial buffer per repository document in `SerializeSourceState`.
constexpr size_t kReserveBytesPerDoc = 256;

std::string DtdSnapshotPath(const std::string& dir, uint64_t lsn, size_t i) {
  return dir + "/ckpt-" + std::to_string(lsn) + "-" + std::to_string(i) +
         ".dtdstate";
}

std::string SourceStatePath(const std::string& dir, uint64_t lsn) {
  return dir + "/ckpt-" + std::to_string(lsn) + ".source";
}

/// Consumes the next '\n'-terminated line starting at `*offset`.
bool NextLine(std::string_view data, size_t* offset, std::string_view* line) {
  if (*offset >= data.size()) return false;
  const size_t end = data.find('\n', *offset);
  if (end == std::string_view::npos) {
    *line = data.substr(*offset);
    *offset = data.size();
  } else {
    *line = data.substr(*offset, end - *offset);
    *offset = end + 1;
  }
  return true;
}

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Splits "<keyword> <rest>" and checks the keyword.
bool TakeKeyword(std::string_view line, std::string_view keyword,
                 std::string_view* rest) {
  if (line.substr(0, keyword.size()) != keyword) return false;
  if (line.size() == keyword.size()) {
    *rest = {};
    return true;
  }
  if (line[keyword.size()] != ' ') return false;
  *rest = line.substr(keyword.size() + 1);
  return true;
}

/// Every ckpt-* entry in `dir` that does not belong to the checkpoint at
/// `keep_lsn` is removed, best effort — leftovers from an aborted
/// checkpoint are harmless (the meta never pointed at them), they just
/// waste space.
void CleanupStaleCheckpointFiles(const std::string& dir, uint64_t keep_lsn) {
  const std::string keep_prefix = "ckpt-" + std::to_string(keep_lsn) + "-";
  const std::string keep_source = "ckpt-" + std::to_string(keep_lsn) +
                                  ".source";
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  std::vector<std::string> stale;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name.rfind(keep_prefix, 0) == 0 || name == keep_source) continue;
    stale.push_back(name);
  }
  ::closedir(handle);
  for (const std::string& name : stale) {
    (void)io::Unlink(dir + "/" + name);
  }
}

}  // namespace

std::string SerializeSourceState(const core::XmlSource& source) {
  const classify::Repository& repo = source.repository();
  const std::vector<int> ids = repo.Ids();
  std::string out;
  // One buffer for the whole state: a typical repository document writes
  // a few hundred bytes, and growth past the estimate is geometric.
  out.reserve(64 + ids.size() * kReserveBytesPerDoc);
  out += kSourceHeader;
  out.push_back('\n');
  out += "counters " + std::to_string(source.documents_processed()) + " " +
         std::to_string(source.documents_classified()) + " " +
         std::to_string(source.evolutions_performed()) + "\n";
  // The second field is the next id `Add` would assign — after an
  // eviction it is ahead of max(id)+1, and WAL eviction records name
  // explicit ids, so replay after restore must keep issuing the same
  // ids the live run did.
  out += "repository " + std::to_string(ids.size()) + " " +
         std::to_string(repo.next_id()) + "\n";
  xml::WriteOptions compact;
  compact.indent = false;
  for (int id : ids) {
    // The document goes straight into the buffer; its length-prefixed
    // header line is slotted in front of it once the length is known.
    const size_t start = out.size();
    xml::AppendDocument(repo.Get(id), compact, &out);
    const size_t nbytes = out.size() - start;
    char line[48];
    const int length =
        std::snprintf(line, sizeof(line), "doc %d %zu\n", id, nbytes);
    out.insert(start, line, static_cast<size_t>(length));
    out.push_back('\n');
  }
  return out;
}

Status RestoreSourceState(core::XmlSource& source, std::string_view data) {
  size_t offset = 0;
  std::string_view line;
  if (!NextLine(data, &offset, &line) || line != kSourceHeader) {
    return Status::ParseError("bad source-state header");
  }
  std::string_view rest;
  if (!NextLine(data, &offset, &line) ||
      !TakeKeyword(line, "counters", &rest)) {
    return Status::ParseError("source state: expected counters line");
  }
  uint64_t counters[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const size_t space = rest.find(' ');
    const std::string_view token =
        i < 2 ? rest.substr(0, space) : rest;
    if ((i < 2 && space == std::string_view::npos) ||
        !ParseU64(token, &counters[i])) {
      return Status::ParseError("source state: bad counters line");
    }
    if (i < 2) rest = rest.substr(space + 1);
  }
  source.RestoreCounters(counters[0], counters[1], counters[2]);

  if (!NextLine(data, &offset, &line) ||
      !TakeKeyword(line, "repository", &rest)) {
    return Status::ParseError("source state: expected repository line");
  }
  uint64_t count = 0;
  uint64_t next_id = 0;
  const size_t count_space = rest.find(' ');
  if (count_space == std::string_view::npos) {
    // Checkpoints written before the id counter was persisted: the
    // restored docs alone decide the counter (max id + 1).
    if (!ParseU64(rest, &count)) {
      return Status::ParseError("source state: bad repository count");
    }
  } else if (!ParseU64(rest.substr(0, count_space), &count) ||
             !ParseU64(rest.substr(count_space + 1), &next_id)) {
    return Status::ParseError("source state: bad repository count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (!NextLine(data, &offset, &line) || !TakeKeyword(line, "doc", &rest)) {
      return Status::ParseError("source state: expected doc line");
    }
    const size_t space = rest.find(' ');
    uint64_t id = 0;
    uint64_t nbytes = 0;
    if (space == std::string_view::npos ||
        !ParseU64(rest.substr(0, space), &id) ||
        !ParseU64(rest.substr(space + 1), &nbytes)) {
      return Status::ParseError("source state: bad doc line");
    }
    if (offset + nbytes > data.size()) {
      return Status::ParseError("source state: doc payload truncated");
    }
    StatusOr<xml::ArenaDocument> doc =
        xml::ParseArenaDocument(data.substr(offset, nbytes));
    if (!doc.ok()) {
      return Status::ParseError("source state: doc " + std::to_string(id) +
                                ": " + doc.status().message());
    }
    offset += nbytes;
    if (offset < data.size() && data[offset] == '\n') ++offset;
    source.RestoreRepositoryDoc(static_cast<int>(id), *doc);
  }
  source.RestoreRepositoryNextId(static_cast<int>(next_id));
  return Status::Ok();
}

CheckpointData CaptureCheckpoint(const core::XmlSource& source, uint64_t lsn) {
  CheckpointData data;
  data.lsn = lsn;
  for (const std::string& name : source.DtdNames()) {
    const evolve::ExtendedDtd* ext = source.FindExtended(name);
    if (ext == nullptr) continue;
    data.dtds.emplace_back(name, evolve::SerializeExtendedDtd(*ext));
  }
  data.source_state = SerializeSourceState(source);
  return data;
}

Status WriteCheckpoint(const std::string& dir, const CheckpointData& data) {
  for (size_t i = 0; i < data.dtds.size(); ++i) {
    DTDEVOLVE_RETURN_IF_ERROR(io::WriteFileAtomic(
        DtdSnapshotPath(dir, data.lsn, i), data.dtds[i].second));
  }
  DTDEVOLVE_RETURN_IF_ERROR(io::WriteFileAtomic(
      SourceStatePath(dir, data.lsn), data.source_state));

  std::string meta(kMetaHeader);
  meta.push_back('\n');
  meta += "lsn " + std::to_string(data.lsn) + "\n";
  meta += "dtds " + std::to_string(data.dtds.size()) + "\n";
  for (size_t i = 0; i < data.dtds.size(); ++i) {
    meta += "dtd " + std::to_string(i) + " " + data.dtds[i].first + "\n";
  }
  // The meta rename is the commit point: everything it references is
  // already durable, so a crash on either side leaves a complete
  // checkpoint (the old one before, the new one after).
  DTDEVOLVE_RETURN_IF_ERROR(io::WriteFileAtomic(dir + "/" + kMetaName, meta));

  CleanupStaleCheckpointFiles(dir, data.lsn);
  return Status::Ok();
}

StatusOr<CheckpointData> ReadCheckpoint(const std::string& dir) {
  StatusOr<std::string> meta = io::ReadFile(dir + "/" + kMetaName);
  if (!meta.ok()) {
    if (meta.status().code() == Status::Code::kNotFound) {
      return CheckpointData{};
    }
    return meta.status();
  }
  size_t offset = 0;
  std::string_view line;
  std::string_view rest;
  const std::string_view text = *meta;
  if (!NextLine(text, &offset, &line) || line != kMetaHeader) {
    return Status::ParseError("bad checkpoint.meta header in " + dir);
  }
  CheckpointData data;
  if (!NextLine(text, &offset, &line) || !TakeKeyword(line, "lsn", &rest) ||
      !ParseU64(rest, &data.lsn)) {
    return Status::ParseError("checkpoint.meta: bad lsn line");
  }
  uint64_t count = 0;
  if (!NextLine(text, &offset, &line) || !TakeKeyword(line, "dtds", &rest) ||
      !ParseU64(rest, &count)) {
    return Status::ParseError("checkpoint.meta: bad dtds line");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (!NextLine(text, &offset, &line) || !TakeKeyword(line, "dtd", &rest)) {
      return Status::ParseError("checkpoint.meta: expected dtd line");
    }
    const size_t space = rest.find(' ');
    uint64_t index = 0;
    if (space == std::string_view::npos ||
        !ParseU64(rest.substr(0, space), &index) || index != i) {
      return Status::ParseError("checkpoint.meta: bad dtd line");
    }
    const std::string name(rest.substr(space + 1));
    StatusOr<std::string> snapshot =
        io::ReadFile(DtdSnapshotPath(dir, data.lsn, i));
    if (!snapshot.ok()) {
      return Status::Internal(
          "checkpoint at lsn " + std::to_string(data.lsn) +
          " references a missing DTD snapshot for '" + name +
          "': " + snapshot.status().message());
    }
    data.dtds.emplace_back(name, std::move(*snapshot));
  }
  StatusOr<std::string> source_state =
      io::ReadFile(SourceStatePath(dir, data.lsn));
  if (!source_state.ok()) {
    return Status::Internal("checkpoint at lsn " + std::to_string(data.lsn) +
                            " references a missing source state: " +
                            source_state.status().message());
  }
  data.source_state = std::move(*source_state);
  return data;
}

std::string EncodeCheckpointBlob(const CheckpointData& data) {
  std::string out = "dtdevolve-checkpoint-blob 1\n";
  out += "lsn " + std::to_string(data.lsn) + "\n";
  out += "dtds " + std::to_string(data.dtds.size()) + "\n";
  for (const auto& [name, serialized] : data.dtds) {
    // Length-prefixed name and payload: DTD names are operator input and
    // snapshots embed newlines, so nothing here may be delimiter-framed.
    out += "dtd " + std::to_string(name.size()) + " " +
           std::to_string(serialized.size()) + "\n";
    out += name;
    out += serialized;
    out.push_back('\n');
  }
  out += "source " + std::to_string(data.source_state.size()) + "\n";
  out += data.source_state;
  return out;
}

StatusOr<CheckpointData> DecodeCheckpointBlob(std::string_view blob) {
  size_t offset = 0;
  std::string_view line;
  std::string_view rest;
  if (!NextLine(blob, &offset, &line) ||
      line != "dtdevolve-checkpoint-blob 1") {
    return Status::ParseError("bad checkpoint-blob header");
  }
  CheckpointData data;
  if (!NextLine(blob, &offset, &line) || !TakeKeyword(line, "lsn", &rest) ||
      !ParseU64(rest, &data.lsn)) {
    return Status::ParseError("checkpoint blob: bad lsn line");
  }
  uint64_t count = 0;
  if (!NextLine(blob, &offset, &line) || !TakeKeyword(line, "dtds", &rest) ||
      !ParseU64(rest, &count)) {
    return Status::ParseError("checkpoint blob: bad dtds line");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (!NextLine(blob, &offset, &line) || !TakeKeyword(line, "dtd", &rest)) {
      return Status::ParseError("checkpoint blob: expected dtd line");
    }
    const size_t space = rest.find(' ');
    uint64_t name_bytes = 0;
    uint64_t payload_bytes = 0;
    if (space == std::string_view::npos ||
        !ParseU64(rest.substr(0, space), &name_bytes) ||
        !ParseU64(rest.substr(space + 1), &payload_bytes)) {
      return Status::ParseError("checkpoint blob: bad dtd line");
    }
    if (offset + name_bytes + payload_bytes > blob.size()) {
      return Status::ParseError("checkpoint blob: dtd payload truncated");
    }
    std::string name(blob.substr(offset, name_bytes));
    offset += name_bytes;
    std::string payload(blob.substr(offset, payload_bytes));
    offset += payload_bytes;
    if (offset < blob.size() && blob[offset] == '\n') ++offset;
    data.dtds.emplace_back(std::move(name), std::move(payload));
  }
  uint64_t source_bytes = 0;
  if (!NextLine(blob, &offset, &line) ||
      !TakeKeyword(line, "source", &rest) ||
      !ParseU64(rest, &source_bytes)) {
    return Status::ParseError("checkpoint blob: bad source line");
  }
  if (offset + source_bytes > blob.size()) {
    return Status::ParseError("checkpoint blob: source state truncated");
  }
  data.source_state = std::string(blob.substr(offset, source_bytes));
  return data;
}

Status ApplyCheckpointToSource(const CheckpointData& data,
                               core::XmlSource& source) {
  for (const auto& [name, serialized] : data.dtds) {
    StatusOr<evolve::ExtendedDtd> ext =
        evolve::DeserializeExtendedDtd(serialized);
    if (!ext.ok()) {
      return Status::Internal("checkpoint snapshot for '" + name +
                              "' is corrupt: " + ext.status().message());
    }
    Status restored = source.RestoreExtended(name, std::move(*ext));
    if (restored.code() == Status::Code::kNotFound) {
      // A DTD the seed set does not know — an induced candidate accepted
      // before the checkpoint. Register it fresh; the repository and
      // counters of the same checkpoint already reflect its adoption.
      // The first deserialization was moved into the failed call, so
      // deserialize again.
      StatusOr<evolve::ExtendedDtd> again =
          evolve::DeserializeExtendedDtd(serialized);
      if (!again.ok()) return again.status();
      restored = source.RegisterInducedDtd(name, std::move(*again));
    }
    DTDEVOLVE_RETURN_IF_ERROR(restored);
  }
  if (data.lsn > 0) {
    DTDEVOLVE_RETURN_IF_ERROR(RestoreSourceState(source, data.source_state));
  }
  return Status::Ok();
}

Status ApplyWalRecordToSource(uint64_t lsn, std::string_view payload,
                              core::XmlSource& source) {
  if (IsInduceAcceptRecord(payload)) {
    StatusOr<InduceAcceptRecord> accept = DecodeInduceAcceptRecord(payload);
    if (!accept.ok()) {
      return Status::Internal("WAL record " + std::to_string(lsn) +
                              " no longer applies: " +
                              accept.status().message());
    }
    Status adopted =
        source.AdoptInducedDtd(accept->name, std::move(accept->ext));
    if (!adopted.ok()) {
      return Status::Internal("WAL record " + std::to_string(lsn) +
                              " no longer applies: " + adopted.message());
    }
    return Status::Ok();
  }
  if (IsEvictRecord(payload)) {
    StatusOr<std::vector<int>> ids = DecodeEvictRecord(payload);
    if (!ids.ok()) {
      return Status::Internal("WAL record " + std::to_string(lsn) +
                              " no longer applies: " + ids.status().message());
    }
    // Ids already gone (a checkpoint below this LSN folded the eviction
    // in) are skipped — re-applying an eviction is a no-op.
    source.EvictRepositoryDocs(*ids);
    return Status::Ok();
  }
  StatusOr<core::XmlSource::ProcessOutcome> outcome =
      source.ProcessText(payload);
  if (!outcome.ok()) {
    return Status::Internal("WAL record " + std::to_string(lsn) +
                            " no longer applies: " +
                            outcome.status().message());
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<Wal>> RecoverSource(core::XmlSource& source,
                                             const WalOptions& options,
                                             RecoveryReport* report) {
  DTDEVOLVE_RETURN_IF_ERROR(io::CreateDir(options.dir));
  StatusOr<CheckpointData> checkpoint = ReadCheckpoint(options.dir);
  if (!checkpoint.ok()) return checkpoint.status();

  DTDEVOLVE_RETURN_IF_ERROR(ApplyCheckpointToSource(*checkpoint, source));

  WalReplay replay;
  StatusOr<std::unique_ptr<Wal>> wal =
      Wal::Open(options, checkpoint->lsn + 1, &replay);
  if (!wal.ok()) return wal.status();

  if (report != nullptr) {
    report->checkpoint_lsn = checkpoint->lsn;
    report->checkpoint_dtds = checkpoint->dtds.size();
    report->last_applied_lsn = checkpoint->lsn;
    report->wal_tail_truncated = replay.tail_truncated;
    report->warning = replay.warning;
  }
  for (const WalRecord& record : replay.records) {
    // Records at or below the checkpoint are already folded into the
    // snapshot; replaying them would double-apply. Skipping makes a
    // second recovery over the same files (crash before the next
    // checkpoint) a no-op for this prefix.
    if (record.lsn <= checkpoint->lsn) continue;
    DTDEVOLVE_RETURN_IF_ERROR(
        ApplyWalRecordToSource(record.lsn, record.payload, source));
    if (report != nullptr) {
      ++report->replayed_records;
      report->last_applied_lsn = record.lsn;
    }
  }
  // Tidy fully-covered segments left behind by a crash between the
  // checkpoint commit and its truncation.
  DTDEVOLVE_RETURN_IF_ERROR((*wal)->TruncateThrough(checkpoint->lsn));
  return wal;
}

}  // namespace dtdevolve::store
