// Row-incremental sessions (docs/streaming.md): the concatenation
// bit-identity contract — an incremental session over batches B1..Bk
// equals a cold session over concat(B1..Bk) exactly, at any thread count,
// with weight reuse on or off — plus the index snapshot round-trip and
// the cross-process ResumeIncrementalSession path.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include "cleaning/engine.h"
#include "cleaning/model_io.h"
#include "datagen/hospital.h"
#include "errorgen/injector.h"
#include "index/mln_index.h"
#include "testing/same_index.h"
#include "testing/same_report.h"

namespace mlnclean {
namespace {

using testing::ExpectSameIndex;
using testing::ExpectSameReport;

// A corrupted hospital workload small enough to reclean repeatedly.
struct GeneratedCase {
  Workload wl;
  DirtyDataset dd;
};

GeneratedCase MakeGenerated(uint64_t seed, size_t hospitals = 15) {
  HospitalConfig config;
  config.num_hospitals = hospitals;
  config.num_measures = 10;
  Workload wl = *MakeHospitalWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = seed;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  return GeneratedCase{std::move(wl), std::move(dd)};
}

// Rows [0, end) of `src` re-appended into a fresh dataset — exactly how
// an incremental session accumulates rows, so dictionaries intern in the
// same order and ids line up with the session's.
Dataset Reaccumulate(const Dataset& src, size_t end) {
  Dataset out(src.schema());
  out.Reserve(end);
  for (size_t tid = 0; tid < end; ++tid) {
    EXPECT_TRUE(out.Append(src.row(static_cast<TupleId>(tid))).ok());
  }
  return out;
}

TEST(IncrementalIndexTest, AppendRowsMatchesColdBuild) {
  GeneratedCase c = MakeGenerated(11);
  const Dataset& full = c.dd.dirty;
  const size_t cut = full.num_rows() / 2;

  MlnIndex cold = *MlnIndex::Build(full, c.wl.rules);
  // Slices share the full dataset's dictionaries, so the prefix build and
  // the appended rows live in one id universe — like a live session.
  Dataset prefix = full.Slice(0, cut);
  MlnIndex incremental = *MlnIndex::Build(prefix, c.wl.rules);
  ASSERT_TRUE(incremental.AppendRows(full, c.wl.rules, cut).ok());
  ExpectSameIndex(incremental, cold);
}

TEST(IncrementalIndexTest, AppendInSeveralStepsMatchesColdBuild) {
  GeneratedCase c = MakeGenerated(12);
  const Dataset& full = c.dd.dirty;
  // The cold reference over a row-order re-accumulation: the step builds
  // below re-intern rows from scratch, so their dictionaries (and hence
  // the γ ids ExpectSameIndex compares) follow row order — `full`'s own
  // dictionaries instead carry error values in injection order.
  Dataset reference = Reaccumulate(full, full.num_rows());
  MlnIndex cold = *MlnIndex::Build(reference, c.wl.rules);

  MlnIndex incremental =
      *MlnIndex::Build(Dataset(full.schema()), c.wl.rules);
  // Uneven steps, including an empty one.
  const size_t cuts[] = {7, 7, full.num_rows() / 3, full.num_rows()};
  size_t covered = 0;
  for (size_t cut : cuts) {
    Dataset upto = Reaccumulate(full, cut);
    ASSERT_TRUE(incremental.AppendRows(upto, c.wl.rules, covered).ok());
    covered = cut;
  }
  // The step builds re-interned rows from scratch; ids still match the
  // full dataset's because interning order is row order either way.
  ExpectSameIndex(incremental, cold);
}

TEST(IncrementalIndexTest, ValidateCatchesForeignDataset) {
  GeneratedCase c = MakeGenerated(13);
  MlnIndex index = *MlnIndex::Build(c.dd.dirty, c.wl.rules);
  EXPECT_TRUE(index.Validate(c.dd.dirty, c.wl.rules).ok());

  // Fewer rows than the index covers.
  Dataset shorter = Reaccumulate(c.dd.dirty, c.dd.dirty.num_rows() / 2);
  EXPECT_FALSE(index.Validate(shorter, c.wl.rules).ok());

  // Same shape, different content: ids disagree with the dictionaries.
  GeneratedCase other = MakeGenerated(99);
  EXPECT_FALSE(index.Validate(other.dd.dirty, c.wl.rules).ok());
}

// The tentpole contract: incremental over B1..Bk == cold over
// concat(B1..Bk), for randomized batch splits, 1 and 4 threads, weight
// reuse off and on.
TEST(IncrementalSessionTest, MatchesColdAcrossRandomizedSplits) {
  GeneratedCase c = MakeGenerated(21);
  const Dataset& full = c.dd.dirty;
  std::mt19937_64 rng(2026);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool reuse : {false, true}) {
      CleaningOptions options;
      options.num_threads = threads;
      CleanModel model =
          *CleaningEngine(options).Compile(full.schema(), c.wl.rules);
      if (reuse) {
        // A warmed, no-longer-written store: reuse reads it identically
        // in the incremental and the cold arm.
        ASSERT_TRUE(model.Warm(c.wl.clean).ok());
      }
      SessionOptions sopts;
      sopts.reuse_model_weights = reuse;

      // One random split of the full table into 2..4 batches.
      std::uniform_int_distribution<size_t> nb(2, 4);
      const size_t num_batches = nb(rng);
      std::vector<size_t> ends;
      std::uniform_int_distribution<size_t> cut(1, full.num_rows() - 1);
      for (size_t i = 0; i + 1 < num_batches; ++i) ends.push_back(cut(rng));
      ends.push_back(full.num_rows());
      std::sort(ends.begin(), ends.end());

      CleanSession inc = model.NewIncrementalSession(sopts);
      size_t begin = 0;
      for (size_t end : ends) {
        Dataset batch = full.Slice(begin, end);
        begin = end;
        ASSERT_TRUE(inc.AppendRows(batch).ok());
        ASSERT_TRUE(inc.Resume().ok());

        Dataset prefix = full.Slice(0, end);  // sessions borrow their input
        CleanSession cold = model.NewSession(prefix, sopts);
        ASSERT_TRUE(cold.Resume().ok());
        EXPECT_EQ(inc.cleaned(), cold.cleaned())
            << "threads=" << threads << " reuse=" << reuse << " end=" << end;
        EXPECT_EQ(inc.deduped(), cold.deduped());
        // The incremental session's dictionaries hold only the appended
        // rows' values, the cold slice's the whole table's.
        ExpectSameReport(inc.report(), inc.cleaned(), cold.report(), cold.cleaned(),
                         c.wl.rules);
      }
    }
  }
}

TEST(IncrementalSessionTest, AppendRowsRequiresIncrementalSession) {
  GeneratedCase c = MakeGenerated(22);
  CleanModel model =
      *CleaningEngine().Compile(c.dd.dirty.schema(), c.wl.rules);
  CleanSession cold = model.NewSession(c.dd.dirty);
  Status st = cold.AppendRows(c.dd.dirty);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
  // The session is not poisoned: it still cleans.
  EXPECT_TRUE(cold.Resume().ok());
}

TEST(IncrementalSessionTest, MismatchedBatchRejectedWithoutPoisoning) {
  GeneratedCase c = MakeGenerated(23);
  CleanModel model =
      *CleaningEngine().Compile(c.dd.dirty.schema(), c.wl.rules);
  CleanSession inc = model.NewIncrementalSession();
  Dataset foreign(*Schema::Make({"A", "B"}));
  Status st = inc.AppendRows(foreign);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
  // The stream continues with a good batch.
  ASSERT_TRUE(inc.AppendRows(c.dd.dirty).ok());
  ASSERT_TRUE(inc.Resume().ok());
  CleanSession cold = model.NewSession(c.dd.dirty);
  ASSERT_TRUE(cold.Resume().ok());
  EXPECT_EQ(inc.cleaned(), cold.cleaned());
}

TEST(IncrementalSnapshotTest, IndexRoundTripsByteDeterministically) {
  GeneratedCase c = MakeGenerated(31);
  CleanModel model =
      *CleaningEngine().Compile(c.dd.dirty.schema(), c.wl.rules);
  CleanSession inc = model.NewIncrementalSession();
  ASSERT_TRUE(inc.AppendRows(c.dd.dirty).ok());
  ASSERT_TRUE(inc.RunUntil(Stage::kIndex).ok());

  std::ostringstream a, b;
  ASSERT_TRUE(model.Save(a, inc.base_index(), inc.data().num_rows()).ok());
  ASSERT_TRUE(model.Save(b, inc.base_index(), inc.data().num_rows()).ok());
  EXPECT_EQ(a.str(), b.str());  // save-is-deterministic

  std::istringstream in(a.str());
  LoadedSnapshot loaded = *CleaningEngine().LoadWithIndex(in);
  ASSERT_TRUE(loaded.index.has_value());
  EXPECT_EQ(loaded.indexed_rows, c.dd.dirty.num_rows());
  ExpectSameIndex(*loaded.index, inc.base_index());

  // Saving the loaded index again reproduces the bytes exactly.
  std::ostringstream again;
  ASSERT_TRUE(
      loaded.model.Save(again, *loaded.index, loaded.indexed_rows).ok());
  EXPECT_EQ(again.str(), a.str());
}

TEST(IncrementalSnapshotTest, PlainLoadDropsIndexSection) {
  GeneratedCase c = MakeGenerated(32);
  CleanModel model =
      *CleaningEngine().Compile(c.dd.dirty.schema(), c.wl.rules);
  CleanSession inc = model.NewIncrementalSession();
  ASSERT_TRUE(inc.AppendRows(c.dd.dirty).ok());
  ASSERT_TRUE(inc.RunUntil(Stage::kIndex).ok());

  std::ostringstream out;
  ASSERT_TRUE(model.Save(out, inc.base_index(), inc.data().num_rows()).ok());
  std::istringstream in(out.str());
  CleanModel loaded = *CleaningEngine().Load(in);
  auto cold = loaded.Clean(c.dd.dirty);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Inspect reports the section.
  std::istringstream in2(out.str());
  ModelSnapshotInfo info = *InspectModelSnapshot(in2);
  EXPECT_TRUE(info.has_index);
  EXPECT_EQ(info.indexed_rows, c.dd.dirty.num_rows());
  EXPECT_GT(info.index_pieces, 0u);
}

TEST(IncrementalSnapshotTest, CorruptIndexSectionIsDetected) {
  GeneratedCase c = MakeGenerated(33);
  CleanModel model =
      *CleaningEngine().Compile(c.dd.dirty.schema(), c.wl.rules);
  CleanSession inc = model.NewIncrementalSession();
  ASSERT_TRUE(inc.AppendRows(c.dd.dirty).ok());
  ASSERT_TRUE(inc.RunUntil(Stage::kIndex).ok());
  std::ostringstream out;
  ASSERT_TRUE(model.Save(out, inc.base_index(), inc.data().num_rows()).ok());
  const std::string bytes = out.str();

  std::ostringstream bare;
  ASSERT_TRUE(model.Save(bare).ok());
  // The index payload occupies the tail beyond the bare snapshot (the
  // four other sections are byte-identical), so flipping bytes there hits
  // the index section.
  ASSERT_GT(bytes.size(), bare.str().size());
  for (size_t probe = 1; probe <= 4; ++probe) {
    std::string torn = bytes;
    const size_t pos = bare.str().size() + (probe * 97) %
                       (bytes.size() - bare.str().size());
    torn[pos] = static_cast<char>(torn[pos] ^ 0x40);
    std::istringstream in(torn);
    auto loaded = CleaningEngine().LoadWithIndex(in);
    ASSERT_FALSE(loaded.ok()) << "flip at " << pos;
    EXPECT_TRUE(loaded.status().IsCorruption() || loaded.status().IsInvalid());
  }

  // Truncation sweep over the index section: framing or checksum must
  // reject every prefix, never crash.
  for (size_t len = bare.str().size(); len < bytes.size(); len += 31) {
    std::istringstream in(bytes.substr(0, len));
    auto loaded = CleaningEngine().LoadWithIndex(in);
    ASSERT_FALSE(loaded.ok()) << "prefix " << len;
    EXPECT_TRUE(loaded.status().IsCorruption() || loaded.status().IsInvalid());
  }
}

TEST(IncrementalSnapshotTest, IndexGammaOfTheWrongArityIsRejectedOnLoad) {
  // A γ narrower or wider than its block's rule decodes, but LoadWithIndex
  // refuses it before any session can serve from the index.
  GeneratedCase c = MakeGenerated(36);
  CleanModel model =
      *CleaningEngine().Compile(c.dd.dirty.schema(), c.wl.rules);
  const MlnIndex built = *MlnIndex::Build(c.dd.dirty, c.wl.rules);
  for (bool narrower : {true, false}) {
    SCOPED_TRACE(narrower ? "narrower" : "wider");
    MlnIndex index = built;
    std::vector<ValueId>& ids = index.block(0).groups[0].pieces[0].ids;
    if (narrower) {
      ids.pop_back();
    } else {
      ids.push_back(ids.back());
    }
    std::ostringstream out;
    ASSERT_TRUE(model.Save(out, index, c.dd.dirty.num_rows()).ok());
    std::istringstream in(out.str());
    auto loaded = CleaningEngine().LoadWithIndex(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsInvalid()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find("arity"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(IncrementalSnapshotTest, AppendAfterResumeMatchesColdRun) {
  GeneratedCase c = MakeGenerated(34);
  const Dataset& full = c.dd.dirty;
  const size_t cut = (full.num_rows() * 2) / 3;
  CleanModel model = *CleaningEngine().Compile(full.schema(), c.wl.rules);

  // Process A: serve the first batches incrementally, snapshot mid-stream.
  CleanSession inc = model.NewIncrementalSession();
  ASSERT_TRUE(inc.AppendRows(full.Slice(0, cut)).ok());
  ASSERT_TRUE(inc.Resume().ok());
  std::ostringstream out;
  ASSERT_TRUE(model.Save(out, inc.base_index(), inc.data().num_rows()).ok());

  // Process B: load, rebuild the accumulation, resume, append the rest.
  std::istringstream in(out.str());
  LoadedSnapshot loaded = *CleaningEngine().LoadWithIndex(in);
  ASSERT_TRUE(loaded.index.has_value());
  Dataset accumulated = Reaccumulate(full, loaded.indexed_rows);
  CleanSession resumed = loaded.model.ResumeIncrementalSession(
      std::move(accumulated), std::move(*loaded.index));
  ASSERT_TRUE(resumed.AppendRows(full.Slice(cut, full.num_rows())).ok());
  ASSERT_TRUE(resumed.Resume().ok());

  CleanSession cold = model.NewSession(full);
  ASSERT_TRUE(cold.Resume().ok());
  EXPECT_EQ(resumed.cleaned(), cold.cleaned());
  EXPECT_EQ(resumed.deduped(), cold.deduped());
  ExpectSameReport(resumed.report(), resumed.cleaned(), cold.report(), cold.cleaned(),
                   c.wl.rules);
}

TEST(IncrementalSnapshotTest, ResumeRejectsWrongAccumulation) {
  GeneratedCase c = MakeGenerated(35);
  CleanModel model =
      *CleaningEngine().Compile(c.dd.dirty.schema(), c.wl.rules);
  CleanSession inc = model.NewIncrementalSession();
  ASSERT_TRUE(inc.AppendRows(c.dd.dirty).ok());
  ASSERT_TRUE(inc.RunUntil(Stage::kIndex).ok());
  std::ostringstream out;
  ASSERT_TRUE(model.Save(out, inc.base_index(), inc.data().num_rows()).ok());
  std::istringstream in(out.str());
  LoadedSnapshot loaded = *CleaningEngine().LoadWithIndex(in);

  // A different corruption of the same table: values disagree with the
  // index's γs.
  GeneratedCase other = MakeGenerated(77);
  CleanSession resumed = loaded.model.ResumeIncrementalSession(
      other.dd.dirty.Clone(), std::move(*loaded.index));
  Status st = resumed.Resume();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
}

}  // namespace
}  // namespace mlnclean
