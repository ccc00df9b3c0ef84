#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "classify/repository.h"
#include "core/source.h"
#include "store/checkpoint.h"
#include "workload/scenarios.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

xml::ArenaDocument Doc(const std::string& text) {
  StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(text);
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

// Repository ids are handed to the clustering engine and exposed through
// `/dtds/candidates` membership lists, so an id must never be reassigned
// to a different document — not after Take, not after Clear.

TEST(RepositoryIdStabilityTest, AddNeverReusesTakenIds) {
  classify::Repository repo;
  const int a = repo.Add(Doc("<a/>"));
  const int b = repo.Add(Doc("<b/>"));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  (void)repo.Take(a);
  (void)repo.Take(b);
  EXPECT_TRUE(repo.empty());
  // The counter is monotonic: freed ids stay retired.
  EXPECT_EQ(repo.Add(Doc("<c/>")), 2);
}

TEST(RepositoryIdStabilityTest, ClearRetiresAllHandedOutIds) {
  classify::Repository repo;
  repo.Add(Doc("<a/>"));
  repo.Add(Doc("<b/>"));
  repo.Clear();
  EXPECT_TRUE(repo.empty());
  EXPECT_EQ(repo.Add(Doc("<c/>")), 2);
}

TEST(RepositoryIdStabilityTest, RestoreBumpsTheCounterPastRestoredIds) {
  classify::Repository repo;
  repo.Restore(7, Doc("<a/>"));
  EXPECT_EQ(repo.Add(Doc("<b/>")), 8);
  // Restoring below the watermark never lowers it.
  repo.Restore(3, Doc("<c/>"));
  EXPECT_EQ(repo.Add(Doc("<d/>")), 9);
}

TEST(RepositoryIdStabilityTest, IdsSurviveReclassificationRounds) {
  // End-to-end regression: ids recorded before a reclassification round
  // still name the same documents afterwards, and new arrivals continue
  // above every id ever handed out.
  core::SourceOptions options;
  options.sigma = 0.5;
  options.auto_evolve = false;
  core::XmlSource source(options);
  ASSERT_TRUE(source
                  .AddDtd("bibliography",
                          workload::MakeBibliographyScenario(1).InitialDtd())
                  .ok());
  workload::ScenarioStream stream =
      workload::MakeMixedPopulationScenario(3, 2, 10);
  while (!stream.Done()) source.Process(stream.Next());

  const std::vector<int> before = source.repository().Ids();
  ASSERT_FALSE(before.empty());
  std::vector<std::string> tags;
  for (int id : before) {
    tags.emplace_back(source.repository().Get(id).root().tag);
  }

  // Induce + accept drains one family out of the repository.
  ASSERT_GT(source.InduceCandidates(), 0u);
  const uint64_t candidate = source.candidates().front().id;
  ASSERT_TRUE(source.AcceptCandidate(candidate).ok());

  // Survivors keep their id → document binding.
  for (int id : source.repository().Ids()) {
    size_t index =
        std::find(before.begin(), before.end(), id) - before.begin();
    ASSERT_LT(index, before.size());
    EXPECT_EQ(source.repository().Get(id).root().tag, tags[index]);
  }
  // And the next unclassified arrival gets a brand-new id.
  workload::ScenarioStream more =
      workload::MakeMixedPopulationScenario(4, 3, 1);
  more.Next();
  more.Next();
  core::XmlSource::ProcessOutcome outcome = source.Process(more.Next());
  if (!outcome.classified) {
    const std::vector<int> after = source.repository().Ids();
    EXPECT_GT(after.back(), before.back());
  }
}

/// A source seeded with the bibliography DTD: every mixed-population
/// document has a foreign root, so all of them stay unclassified.
std::unique_ptr<core::XmlSource> RepositorySource() {
  core::SourceOptions options;
  options.sigma = 0.5;
  options.auto_evolve = false;
  auto source = std::make_unique<core::XmlSource>(options);
  EXPECT_TRUE(source
                  ->AddDtd("bibliography",
                           workload::MakeBibliographyScenario(1).InitialDtd())
                  .ok());
  return source;
}

/// Fails unless every stored document sits in one chunk of its exact
/// size: at most an alignment's worth of reserved bytes goes unused.
void ExpectCompact(const classify::Repository& repository) {
  constexpr size_t kAlignmentSlack = alignof(xml::ArenaElement);
  for (int id : repository.Ids()) {
    const xml::Arena& arena = repository.Get(id).arena();
    ASSERT_LE(arena.bytes_reserved() - arena.bytes_allocated(),
              kAlignmentSlack)
        << "document " << id << " reserves " << arena.bytes_reserved()
        << " bytes for " << arena.bytes_allocated();
  }
}

TEST(RepositoryTest, StoredDocumentsAreCompact) {
  std::unique_ptr<core::XmlSource> live = RepositorySource();
  workload::ScenarioStream stream =
      workload::MakeMixedPopulationScenario(5, 4, 250);
  xml::WriteOptions compact;
  compact.indent = false;
  while (!stream.Done()) {
    StatusOr<core::XmlSource::ProcessOutcome> outcome =
        live->ProcessText(xml::WriteDocument(stream.Next(), compact));
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    ASSERT_FALSE(outcome->classified);
  }
  ASSERT_EQ(live->repository().size(), 1000u);
  ExpectCompact(live->repository());
  // Evicting the newest document leaves the id counter ahead of
  // max(id)+1, which the checkpoint must carry.
  ASSERT_EQ(live->EvictRepositoryDocs({live->repository().Ids().back()}), 1u);

  const std::string state = store::SerializeSourceState(*live);
  std::unique_ptr<core::XmlSource> restored = RepositorySource();
  ASSERT_TRUE(store::RestoreSourceState(*restored, state).ok());
  ExpectCompact(restored->repository());
  EXPECT_EQ(restored->repository().Ids(), live->repository().Ids());
  EXPECT_EQ(restored->repository().next_id(), live->repository().next_id());
  EXPECT_EQ(store::SerializeSourceState(*restored), state);
}

TEST(RepositoryTest, CheckpointWithoutNextIdContinuesAboveTheHighestId) {
  // Checkpoints written before the id counter was persisted carry a bare
  // `repository <count>` line; the restored documents alone then decide
  // the counter.
  std::unique_ptr<core::XmlSource> live = RepositorySource();
  workload::ScenarioStream stream =
      workload::MakeMixedPopulationScenario(9, 2, 4);
  while (!stream.Done()) live->Process(stream.Next());
  const std::vector<int> ids = live->repository().Ids();
  ASSERT_EQ(ids.size(), 8u);
  ASSERT_EQ(live->EvictRepositoryDocs({ids.back()}), 1u);
  const int highest = ids[ids.size() - 2];
  ASSERT_GT(live->repository().next_id(), highest + 1);

  std::string state = store::SerializeSourceState(*live);
  const std::string with_next_id =
      "repository 7 " + std::to_string(live->repository().next_id()) + "\n";
  const size_t at = state.find(with_next_id);
  ASSERT_NE(at, std::string::npos);
  state.replace(at, with_next_id.size(), "repository 7\n");

  std::unique_ptr<core::XmlSource> restored = RepositorySource();
  ASSERT_TRUE(store::RestoreSourceState(*restored, state).ok());
  EXPECT_EQ(restored->repository().Ids(), live->repository().Ids());
  EXPECT_EQ(restored->repository().next_id(), highest + 1);
}

}  // namespace
}  // namespace dtdevolve
