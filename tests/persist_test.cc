#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "evolve/evolver.h"
#include "evolve/persist.h"
#include "evolve/recorder.h"
#include "io/file.h"
#include "workload/generator.h"
#include "workload/mutator.h"
#include "xml/parser.h"

namespace dtdevolve::evolve {
namespace {

ExtendedDtd MakeExtended(const char* dtd_text) {
  StatusOr<dtd::Dtd> dtd = dtd::ParseDtd(dtd_text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return ExtendedDtd(std::move(*dtd));
}

const char* kDtd = R"(
  <!ELEMENT a (b, c)>
  <!ELEMENT b (#PCDATA)>
  <!ELEMENT c (#PCDATA)>
)";

TEST(PersistTest, EmptyRoundTrip) {
  ExtendedDtd ext = MakeExtended(kDtd);
  std::string data = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(dtd::WriteDtd(restored->dtd()), dtd::WriteDtd(ext.dtd()));
  EXPECT_EQ(restored->documents_recorded(), 0u);
  EXPECT_TRUE(restored->all_stats().empty());
}

TEST(PersistTest, RoundTripPreservesEverything) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  auto record = [&](const char* text, int times) {
    for (int i = 0; i < times; ++i) {
      StatusOr<xml::Document> doc = xml::ParseDocument(text);
      ASSERT_TRUE(doc.ok());
      recorder.RecordDocument(*doc);
    }
  };
  record("<a><b>1</b><c>2</c></a>", 5);
  record("<a><b>1</b><c>2</c><b>3</b><c>4</c><d><e>x</e></d></a>", 7);

  std::string data = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored->documents_recorded(), 12u);
  EXPECT_EQ(restored->total_elements_recorded(),
            ext.total_elements_recorded());
  EXPECT_DOUBLE_EQ(restored->MeanDivergence(), ext.MeanDivergence());

  const ElementStats* original = ext.FindStats("a");
  const ElementStats* copy = restored->FindStats("a");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->valid_instances(), original->valid_instances());
  EXPECT_EQ(copy->invalid_instances(), original->invalid_instances());
  EXPECT_EQ(copy->sequences(), original->sequences());
  EXPECT_EQ(copy->labels().size(), original->labels().size());
  EXPECT_EQ(copy->labels().at("b").invalid.count_histogram,
            original->labels().at("b").invalid.count_histogram);
  EXPECT_DOUBLE_EQ(copy->labels().at("b").invalid.position_sum,
                   original->labels().at("b").invalid.position_sum);
  // Groups round-trip.
  EXPECT_EQ(copy->groups().size(), original->groups().size());
  // The nested plus structure of d (containing e) round-trips.
  ASSERT_NE(copy->labels().at("d").plus_structure, nullptr);
  const ElementStats& d = *copy->labels().at("d").plus_structure;
  EXPECT_EQ(d.invalid_instances(), 7u);
  ASSERT_NE(d.labels().at("e").plus_structure, nullptr);
  EXPECT_EQ(d.labels().at("e").plus_structure->text_instances(), 7u);
}

TEST(PersistTest, SerializationIsDeterministic) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  StatusOr<xml::Document> doc =
      xml::ParseDocument("<a><b>1</b><z>2</z></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);
  std::string once = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(once);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(SerializeExtendedDtd(*restored), once);
}

TEST(PersistTest, EvolutionAfterRestoreMatchesDirectEvolution) {
  // The load-bearing property: save/load must not change what evolution
  // produces.
  auto populate = [](ExtendedDtd& ext) {
    Recorder recorder(ext);
    workload::DocumentGenerator generator(
        ext.dtd(), workload::GeneratorOptions(), 404);
    workload::MutationOptions mutation;
    mutation.insert_probability = 0.5;
    mutation.duplicate_probability = 0.3;
    workload::Mutator mutator(mutation, 405);
    for (int i = 0; i < 40; ++i) {
      xml::Document doc = generator.Generate();
      mutator.Mutate(doc);
      recorder.RecordDocument(doc);
    }
  };

  ExtendedDtd direct = MakeExtended(kDtd);
  populate(direct);
  std::string snapshot = SerializeExtendedDtd(direct);
  EvolveDtd(direct, {});

  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(snapshot);
  ASSERT_TRUE(restored.ok());
  EvolveDtd(*restored, {});

  EXPECT_EQ(dtd::WriteDtd(restored->dtd()), dtd::WriteDtd(direct.dtd()));
}

TEST(PersistTest, RejectsCorruptedInput) {
  EXPECT_FALSE(DeserializeExtendedDtd("").ok());
  EXPECT_FALSE(DeserializeExtendedDtd("bogus 1").ok());
  EXPECT_FALSE(DeserializeExtendedDtd("dtdevolve-stats 99").ok());

  ExtendedDtd ext = MakeExtended(kDtd);
  std::string data = SerializeExtendedDtd(ext);
  // Truncation anywhere must be detected, not crash.
  for (size_t cut : {data.size() / 4, data.size() / 2, data.size() - 3}) {
    StatusOr<ExtendedDtd> restored =
        DeserializeExtendedDtd(data.substr(0, cut));
    EXPECT_FALSE(restored.ok()) << "cut at " << cut;
  }
}

TEST(PersistFileTest, SaveThenLoadRoundTrips) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  StatusOr<xml::Document> doc =
      xml::ParseDocument("<a><b>1</b><c>2</c><d>3</d></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);

  const std::string path = testing::TempDir() + "persist_file_test.dtdstate";
  Status saved = io::WriteFileAtomic(path, SerializeExtendedDtd(ext));
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  // The write is atomic (tmp + rename): no temp file may survive.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  StatusOr<std::string> data = io::ReadFile(path);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(*data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->documents_recorded(), 1u);
  EXPECT_EQ(SerializeExtendedDtd(*restored), SerializeExtendedDtd(ext));
  std::remove(path.c_str());
}

TEST(PersistFileTest, SaveReplacesExistingSnapshot) {
  const std::string path = testing::TempDir() + "persist_file_replace.dtdstate";
  ExtendedDtd first = MakeExtended(kDtd);
  ASSERT_TRUE(io::WriteFileAtomic(path, SerializeExtendedDtd(first)).ok());

  ExtendedDtd second = MakeExtended(kDtd);
  Recorder recorder(second);
  StatusOr<xml::Document> doc = xml::ParseDocument("<a><b>1</b><c>2</c></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);
  ASSERT_TRUE(io::WriteFileAtomic(path, SerializeExtendedDtd(second)).ok());

  StatusOr<std::string> data = io::ReadFile(path);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(*data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->documents_recorded(), 1u);
  std::remove(path.c_str());
}

TEST(PersistFileTest, LoadMissingFileIsNotFound) {
  StatusOr<std::string> data =
      io::ReadFile(testing::TempDir() + "no_such_snapshot.dtdstate");
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), Status::Code::kNotFound);
}

TEST(PersistFileTest, TruncatedSnapshotRejectedWithCleanStatus) {
  ExtendedDtd ext = MakeExtended(kDtd);
  Recorder recorder(ext);
  StatusOr<xml::Document> doc =
      xml::ParseDocument("<a><b>1</b><c>2</c><z>3</z></a>");
  ASSERT_TRUE(doc.ok());
  recorder.RecordDocument(*doc);

  const std::string data = SerializeExtendedDtd(ext);
  ASSERT_GT(data.size(), 8u);
  StatusOr<ExtendedDtd> restored =
      DeserializeExtendedDtd(std::string_view(data).substr(0, data.size() / 2));
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.status().code(), Status::Code::kNotFound);
}

TEST(PersistTest, PreservesAttlists) {
  ExtendedDtd ext = MakeExtended(R"(
    <!ELEMENT a (#PCDATA)>
    <!ATTLIST a id ID #REQUIRED>
  )");
  std::string data = SerializeExtendedDtd(ext);
  StatusOr<ExtendedDtd> restored = DeserializeExtendedDtd(data);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->dtd().FindElement("a")->attributes.size(), 1u);
}

}  // namespace
}  // namespace dtdevolve::evolve
