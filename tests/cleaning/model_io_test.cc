// Snapshot round-trip and corrupt-input coverage for CleanModel::Save /
// CleaningEngine::Load (cleaning/model_io.h). The contract under test:
// a loaded model serves bit-identically to the in-process original (weight
// reuse on and off, γ ids stable under dictionary permutation), and every
// truncated or corrupt snapshot is rejected — kInvalid naming a byte
// position for malformed framing, kCorruption naming the section for
// torn/bit-rotted payloads (the per-section CRC-32C) — never a crash.

#include "cleaning/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "cleaning/engine.h"
#include "common/csv.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "errorgen/injector.h"
#include "rules/rule_parser.h"

namespace mlnclean {
namespace {

std::string SaveToString(const CleanModel& model) {
  std::ostringstream out;
  EXPECT_TRUE(model.Save(out).ok());
  return out.str();
}

Result<CleanModel> LoadFromString(const std::string& bytes,
                                  const CleaningEngine& engine = CleaningEngine()) {
  std::istringstream in(bytes);
  return engine.Load(in);
}

CleaningOptions NonDefaultOptions() {
  CleaningOptions options;
  options.agp_threshold = 2;
  options.distance = DistanceMetric::kDamerau;
  options.learner.max_iterations = 37;
  options.learner.l2 = 0.125;
  options.max_exhaustive_fusion = 5;
  options.fscr_minimality_discount = 0.5;
  return options;
}

// A small deterministic serving workload: dirty hospital table + batches.
struct ServingFixture {
  RuleSet rules;
  Dataset dirty;
  std::vector<Dataset> batches;

  ServingFixture() : rules(Schema()) {
    HospitalConfig config;
    config.num_hospitals = 10;
    config.num_measures = 4;
    Workload wl = *MakeHospitalWorkload(config);
    ErrorSpec spec;
    spec.error_rate = 0.06;
    spec.seed = 5;
    DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
    rules = std::move(wl.rules);
    dirty = std::move(dd.dirty);
    batches = SplitIntoBatches(dirty, 4);
  }
};

std::string ServeTranscript(const CleanModel& model,
                            const std::vector<Dataset>& batches, bool reuse) {
  std::string out;
  for (const Dataset& batch : batches) {
    SessionOptions opts;
    opts.reuse_model_weights = reuse;
    CleanSession session = model.NewSession(batch, opts);
    EXPECT_TRUE(session.Resume().ok());
    const CleaningReport& report = session.report();
    out += "agp=" + std::to_string(report.agp.size()) +
           " rsc=" + std::to_string(report.rsc.size()) +
           " fscr=" + std::to_string(report.fscr.size()) +
           " dups=" + std::to_string(report.duplicates.size()) + "\n";
    CleanResult result = *session.TakeResult();
    out += WriteCsv(result.cleaned.ToCsv());
    out += WriteCsv(result.deduped.ToCsv());
  }
  return out;
}

TEST(ModelIoTest, RoundTripPreservesSchemaRulesOptionsWeights) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options = NonDefaultOptions();
  CleaningEngine engine(options);
  CleanModel model = *engine.Compile(dirty.schema(), rules);
  ASSERT_TRUE(model.Warm(dirty).ok());
  ASSERT_GT(model.num_stored_weights(), 0u);

  auto loaded = LoadFromString(SaveToString(model));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->schema() == model.schema());
  ASSERT_EQ(loaded->rules().size(), model.rules().size());
  for (size_t i = 0; i < model.rules().size(); ++i) {
    const Constraint& a = model.rules().rule(i);
    const Constraint& b = loaded->rules().rule(i);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.rule_weight(), b.rule_weight());
    EXPECT_EQ(a.ToString(model.schema()), b.ToString(loaded->schema()));
  }
  const CleaningOptions& o = loaded->options();
  EXPECT_EQ(o.agp_threshold, options.agp_threshold);
  EXPECT_EQ(o.distance, options.distance);
  EXPECT_EQ(o.learner.max_iterations, options.learner.max_iterations);
  EXPECT_EQ(o.learner.l2, options.learner.l2);
  EXPECT_EQ(o.max_exhaustive_fusion, options.max_exhaustive_fusion);
  EXPECT_EQ(o.fscr_minimality_discount, options.fscr_minimality_discount);
  EXPECT_EQ(loaded->num_stored_weights(), model.num_stored_weights());
}

TEST(ModelIoTest, SaveIsDeterministicAndStableAcrossReload) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningEngine engine;
  CleanModel model = *engine.Compile(dirty.schema(), rules);
  ASSERT_TRUE(model.Warm(dirty).ok());

  const std::string bytes1 = SaveToString(model);
  const std::string bytes2 = SaveToString(model);
  EXPECT_EQ(bytes1, bytes2);  // sorted entry order: no hash-map jitter

  auto loaded = LoadFromString(bytes1);
  ASSERT_TRUE(loaded.ok());
  // Save(Load(bytes)) == bytes: nothing is lost or reordered in flight.
  EXPECT_EQ(SaveToString(*loaded), bytes1);
}

TEST(ModelIoTest, LoadedModelServesBitIdentically) {
  ServingFixture fx;
  CleaningOptions options;
  options.agp_threshold = 2;
  CleaningEngine engine(options);
  CleanModel model = *engine.Compile(fx.dirty.schema(), fx.rules);
  ASSERT_TRUE(model.Warm(fx.batches[0]).ok());

  auto loaded = LoadFromString(SaveToString(model));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (bool reuse : {false, true}) {
    EXPECT_EQ(ServeTranscript(model, fx.batches, reuse),
              ServeTranscript(*loaded, fx.batches, reuse))
        << "reuse_model_weights=" << reuse;
  }
}

TEST(ModelIoTest, ResumeSessionOnLoadedModelMatchesOriginal) {
  // Stage-II hand-off: both models resume over the same stage-I index.
  ServingFixture fx;
  CleaningEngine engine;
  CleanModel model = *engine.Compile(fx.dirty.schema(), fx.rules);
  auto loaded = LoadFromString(SaveToString(model));
  ASSERT_TRUE(loaded.ok());

  CleanSession stage1 = model.NewSession(fx.batches[0]);
  ASSERT_TRUE(stage1.RunUntil(Stage::kRsc).ok());
  const MlnIndex& index = stage1.index();

  auto finish = [&](const CleanModel& m) {
    CleanSession session =
        m.ResumeSession(fx.batches[0], &index, CleaningReport{});
    EXPECT_TRUE(session.Resume().ok());
    CleanResult result = *session.TakeResult();
    return WriteCsv(result.cleaned.ToCsv()) + WriteCsv(result.deduped.ToCsv());
  };
  EXPECT_EQ(finish(model), finish(*loaded));
}

TEST(ModelIoTest, LoadedWeightsAreIdStableUnderDictionaryPermutation) {
  // The weight store keys γs in its own interners, not the serving
  // dataset's: a batch whose dictionaries assign *different ids* to the
  // same values must clean identically under a loaded model.
  ServingFixture fx;
  CleaningOptions options;
  options.agp_threshold = 2;
  CleaningEngine engine(options);
  CleanModel model = *engine.Compile(fx.dirty.schema(), fx.rules);
  ASSERT_TRUE(model.Warm(fx.batches[0]).ok());
  auto loaded = LoadFromString(SaveToString(model));
  ASSERT_TRUE(loaded.ok());

  // Same rows as batch 1, but every attribute's values pre-interned in
  // reverse first-appearance order: same content, permuted ValueIds.
  const Dataset& batch = fx.batches[1];
  Dataset permuted(batch.schema());
  for (size_t a = 0; a < batch.num_attrs(); ++a) {
    std::vector<Value> domain = batch.Domain(static_cast<AttrId>(a));
    for (auto it = domain.rbegin(); it != domain.rend(); ++it) {
      permuted.InternValue(static_cast<AttrId>(a), *it);
    }
  }
  for (size_t t = 0; t < batch.num_rows(); ++t) {
    ASSERT_TRUE(permuted.Append(batch.row(static_cast<TupleId>(t))).ok());
  }
  ASSERT_TRUE(permuted == batch);  // content-equal, ids permuted

  SessionOptions reuse;
  reuse.reuse_model_weights = true;
  CleanResult original = *model.Clean(batch, reuse);
  CleanResult via_snapshot = *loaded->Clean(permuted, reuse);
  EXPECT_TRUE(original.cleaned == via_snapshot.cleaned);
  EXPECT_TRUE(original.deduped == via_snapshot.deduped);
}

TEST(ModelIoTest, DecayStateRoundTripsAndAgingResumes) {
  // A store with an active half-life must carry its decay clock through a
  // snapshot: the batch counter and per-entry batch stamps ride along, so
  // a loaded model ages exactly like the original when serving resumes.
  ServingFixture fx;
  CleaningOptions options;
  options.agp_threshold = 2;
  options.weight_half_life_batches = 1;
  CleaningEngine engine(options);
  CleanModel model = *engine.Compile(fx.dirty.schema(), fx.rules);
  ASSERT_TRUE(model.Warm(fx.batches[0]).ok());  // batch 1
  ASSERT_TRUE(model.Warm(fx.batches[1]).ok());  // batch 2 decays batch 1
  ASSERT_GT(model.num_stored_weights(), 0u);

  const std::string bytes = SaveToString(model);
  auto loaded = LoadFromString(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options().weight_half_life_batches, 1u);
  EXPECT_EQ(loaded->num_stored_weights(), model.num_stored_weights());
  // Bit-exact including the decay state: saving the loaded model writes
  // the same bytes (batch counter and stamps included).
  EXPECT_EQ(SaveToString(*loaded), bytes);

  // Aging resumes identically: one more contributed batch on each side
  // must leave both stores byte-identical (wrong/missing batch stamps
  // would produce different decay factors here).
  ASSERT_TRUE(model.Warm(fx.batches[2]).ok());
  ASSERT_TRUE(loaded->Warm(fx.batches[2]).ok());
  EXPECT_EQ(SaveToString(*loaded), SaveToString(model));
  // And the aged stores serve identically.
  EXPECT_EQ(ServeTranscript(model, fx.batches, /*reuse=*/true),
            ServeTranscript(*loaded, fx.batches, /*reuse=*/true));
}

// ---------------------------------------------------------- corrupt input

// One snapshot mutation, the StatusCode it must reject with, and the
// substring its message must mention.
struct Mutation {
  const char* name;
  std::function<std::string(std::string)> apply;
  StatusCode expect_code;
  const char* expect_substring;
};

std::string ValidSnapshotBytes() {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningEngine engine;
  CleanModel model = *engine.Compile(dirty.schema(), rules);
  EXPECT_TRUE(model.Warm(dirty).ok());
  return SaveToString(model);
}

void PatchU32(std::string* bytes, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*bytes)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
void PatchU64(std::string* bytes, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*bytes)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

TEST(ModelIoTest, CorruptSnapshotsAreRejectedWithTheRightCode) {
  const std::string valid = ValidSnapshotBytes();
  ASSERT_TRUE(LoadFromString(valid).ok());

  // v3 layout: magic[4] version[4@4] section_count[4@8], then per section
  // tag[4@12] length[8@16] crc32c[4@24] payload[@28...]. Framing damage is
  // kInvalid with a byte position; payload/checksum damage is kCorruption
  // naming the section (the CRC is verified before the payload is parsed,
  // so a torn payload cannot masquerade as a framing error).
  const std::vector<Mutation> mutations = {
      {"empty input", [](std::string) { return std::string(); },
       StatusCode::kInvalid, "truncated"},
      {"bad magic",
       [](std::string s) {
         s[0] = 'X';
         return s;
       },
       StatusCode::kInvalid, "magic"},
      {"unsupported version",
       [](std::string s) {
         PatchU32(&s, 4, 99);
         return s;
       },
       StatusCode::kInvalid, "version"},
      {"wrong section count",
       [](std::string s) {
         PatchU32(&s, 8, 7);
         return s;
       },
       StatusCode::kInvalid, "sections"},
      {"unknown section tag",
       [](std::string s) {
         PatchU32(&s, 12, 42);
         return s;
       },
       StatusCode::kInvalid, "tag"},
      {"oversized section length",
       [](std::string s) {
         PatchU64(&s, 16, ~uint64_t{0} / 2);
         return s;
       },
       StatusCode::kInvalid, "declares"},
      {"shrunk section length (torn write)",
       [](std::string s) {
         PatchU64(&s, 16, 1);  // CRC over 1 byte cannot match
         return s;
       },
       StatusCode::kCorruption, "checksum"},
      {"corrupted section checksum field",
       [](std::string s) {
         PatchU32(&s, 24, 0xdeadbeef);
         return s;
       },
       StatusCode::kCorruption, "section 1"},
      {"payload flip (first attribute count)",
       [](std::string s) {
         PatchU32(&s, 28, 0x7fffffff);
         return s;
       },
       StatusCode::kCorruption, "checksum"},
      {"trailing garbage",
       [](std::string s) {
         s += "extra";
         return s;
       },
       StatusCode::kInvalid, "trailing"},
      {"content flip mid-file (structurally valid)",
       [](std::string s) {
         s[s.size() / 2] = static_cast<char>(s[s.size() / 2] ^ 0x01);
         return s;
       },
       StatusCode::kCorruption, "checksum"},
  };

  for (const Mutation& m : mutations) {
    auto result = LoadFromString(m.apply(valid));
    ASSERT_FALSE(result.ok()) << m.name;
    EXPECT_EQ(result.status().code(), m.expect_code)
        << m.name << ": " << result.status().ToString();
    EXPECT_NE(result.status().message().find(m.expect_substring), std::string::npos)
        << m.name << " message: " << result.status().message();
  }
}

TEST(ModelIoTest, CorruptionNamesTheSectionAndByteRange) {
  // kCorruption must localize the damage: section tag plus the payload's
  // byte range, so an operator can tell which part of the file tore.
  std::string bytes = ValidSnapshotBytes();
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0xff);
  auto result = LoadFromString(bytes);
  ASSERT_FALSE(result.ok());
  ASSERT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("section 5"), std::string::npos) << msg;  // index
  EXPECT_NE(msg.find("bytes ["), std::string::npos) << msg;
}

TEST(ModelIoTest, EveryTruncationIsRejectedWithBytePosition) {
  const std::string valid = ValidSnapshotBytes();
  for (size_t len = 0; len < valid.size(); len += (len < 64 ? 1 : 13)) {
    auto result = LoadFromString(valid.substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_TRUE(result.status().IsInvalid()) << len;
    EXPECT_NE(result.status().message().find("byte"), std::string::npos)
        << "no stream position in: " << result.status().message();
  }
  // The full prefix minus one byte, specifically.
  auto result = LoadFromString(valid.substr(0, valid.size() - 1));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(ModelIoTest, EverySingleByteFlipIsRejected) {
  // Framing flips fail the structural pass (kInvalid); payload and
  // checksum-field flips fail the section CRC (kCorruption — CRC-32C
  // detects every single-byte error). Either way: rejected, never a
  // crash, never a silently altered model.
  const std::string valid = ValidSnapshotBytes();
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string mutated = valid;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    auto result = LoadFromString(mutated);
    ASSERT_FALSE(result.ok()) << "flip at byte " << pos << " decoded";
    EXPECT_TRUE(result.status().IsInvalid() || result.status().IsCorruption())
        << "flip at " << pos << ": " << result.status().ToString();
  }
}

// Walks the section frames of a valid snapshot and returns each section's
// [begin, end) byte range (frame included), so the fuzzer can target its
// mutations per section.
std::vector<std::pair<size_t, size_t>> SectionRanges(const std::string& bytes) {
  std::vector<std::pair<size_t, size_t>> ranges;
  size_t pos = 12;  // magic + version + section count
  for (int s = 0; s < 5; ++s) {
    const size_t begin = pos;
    uint64_t length = 0;
    for (int i = 7; i >= 0; --i) {
      length = (length << 8) | static_cast<unsigned char>(bytes[pos + 4 + i]);
    }
    pos += 4 + 8 + 4 + static_cast<size_t>(length);
    ranges.emplace_back(begin, pos);
  }
  EXPECT_EQ(pos, bytes.size());
  return ranges;
}

TEST(ModelIoTest, SeededCorruptionFuzzerNeverCrashesAndAlwaysRejects) {
  // Deterministic fuzz pass over every section: random byte mutations and
  // random truncations. Decode must reject each one (kInvalid or
  // kCorruption, with a byte position or section named in the message)
  // and never crash — this test runs in the sanitize CI job, so a stray
  // read past a buffer fails loudly. The seed is fixed and printed on
  // failure; to reproduce a report, rerun with the printed seed here.
  const uint64_t seed = 0x6d6c6e33u;  // "mln3"
  const std::string valid = ValidSnapshotBytes();
  const auto ranges = SectionRanges(valid);
  std::mt19937_64 rng(seed);

  auto check_rejected = [&](const std::string& mutated, const char* what,
                            size_t section, size_t detail) {
    auto result = LoadFromString(mutated);
    ASSERT_FALSE(result.ok())
        << what << " in section " << section + 1 << " (detail " << detail
        << ", fuzz seed " << seed << ") decoded";
    EXPECT_TRUE(result.status().IsInvalid() || result.status().IsCorruption())
        << what << " in section " << section + 1 << " (fuzz seed " << seed
        << "): " << result.status().ToString();
    const std::string& msg = result.status().message();
    EXPECT_TRUE(msg.find("byte") != std::string::npos ||
                msg.find("section") != std::string::npos)
        << what << " (fuzz seed " << seed << ") message lacks a position: "
        << msg;
  };

  constexpr int kMutationsPerSection = 48;
  constexpr int kTruncationsPerSection = 16;
  for (size_t s = 0; s < ranges.size(); ++s) {
    std::uniform_int_distribution<size_t> pos_dist(ranges[s].first,
                                                   ranges[s].second - 1);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    std::uniform_int_distribution<int> burst_dist(1, 8);
    for (int i = 0; i < kMutationsPerSection; ++i) {
      std::string mutated = valid;
      // A burst of 1..8 random bytes starting inside the section.
      const size_t at = pos_dist(rng);
      const int burst = burst_dist(rng);
      bool changed = false;
      for (int b = 0; b < burst && at + b < mutated.size(); ++b) {
        const char next = static_cast<char>(byte_dist(rng));
        changed |= next != mutated[at + b];
        mutated[at + b] = next;
      }
      if (!changed) continue;  // the draw reproduced the original bytes
      check_rejected(mutated, "byte burst", s, at);
    }
    for (int i = 0; i < kTruncationsPerSection; ++i) {
      // Cut the file inside this section: a torn write that lost the tail.
      const size_t cut = pos_dist(rng);
      check_rejected(valid.substr(0, cut), "truncation", s, cut);
    }
  }
}

// CRC-32C (Castagnoli), mirroring the codec's checksum so the fuzzer
// below can re-seal a deliberately corrupted payload.
uint32_t TestCrc32c(const char* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82f63b78u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

TEST(ModelIoTest, ResealedWeightsCorruptionReachesTheVarintDecoderSafely) {
  // The per-section CRC normally rejects payload damage before the parse,
  // so the v4 varint-block decoder never sees corrupt bytes through the
  // normal path. This fuzzer corrupts the weights payload and then
  // *re-seals the section CRC*, forcing the structural decoder (varint
  // blocks, arities, id streams) to face arbitrary bytes directly. Every
  // outcome must be decode-or-reject — kInvalid/kCorruption, never a
  // crash or over-read (this runs under the sanitize CI job too).
  const std::string valid = ValidSnapshotBytes();
  const auto ranges = SectionRanges(valid);
  const auto [frame_begin, frame_end] = ranges[3];  // weights section
  const size_t payload_begin = frame_begin + 16;    // tag[4] len[8] crc[4]
  ASSERT_LT(payload_begin, frame_end);
  std::mt19937_64 rng(0x76340d34u);
  std::uniform_int_distribution<size_t> pos_dist(payload_begin, frame_end - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<int> flip_dist(1, 6);
  int rejected = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutated = valid;
    for (int f = flip_dist(rng); f > 0; --f) {
      mutated[pos_dist(rng)] = static_cast<char>(byte_dist(rng));
    }
    PatchU32(&mutated, frame_begin + 12,
             TestCrc32c(mutated.data() + payload_begin,
                        frame_end - payload_begin));
    auto result = LoadFromString(mutated);
    if (!result.ok()) {
      ++rejected;
      EXPECT_TRUE(result.status().IsInvalid() || result.status().IsCorruption())
          << "trial " << trial << ": " << result.status().ToString();
    }
  }
  // Random damage to varint blocks should overwhelmingly fail structural
  // or semantic validation; a decode that happens to stay valid is fine.
  EXPECT_GT(rejected, kTrials / 2);
}

TEST(ModelIoTest, RetiredOptionsByteIsIgnoredOnLoad) {
  // The options section keeps one reserved u8 after num_threads (formerly
  // the distance-memo flag, see docs/snapshot_format.md). Builds that
  // still had the flag wrote 1 there when it was on; such a snapshot must
  // load and serve bit-identically to the 0 snapshot, and re-save as it.
  ServingFixture fx;
  CleanModel model = *CleaningEngine().Compile(fx.dirty.schema(), fx.rules);
  ASSERT_TRUE(model.Warm(fx.batches[0]).ok());
  const std::string zero = SaveToString(model);

  const auto [frame_begin, frame_end] = SectionRanges(zero)[2];  // options
  const size_t payload_begin = frame_begin + 16;  // tag[4] len[8] crc[4]
  // u64 agp, u32 metric, u32 iterations, 4 x f64 learner, 2 x u8 flags,
  // 3 x u64 fusion/thread caps; then the reserved byte, f64, u64.
  constexpr size_t kReservedOffset = 8 + 4 + 4 + 4 * 8 + 2 + 3 * 8;
  ASSERT_EQ(frame_end - payload_begin, kReservedOffset + 1 + 8 + 8);
  ASSERT_EQ(zero[payload_begin + kReservedOffset], 0);

  std::string one = zero;
  one[payload_begin + kReservedOffset] = 1;
  PatchU32(&one, frame_begin + 12,
           TestCrc32c(one.data() + payload_begin, frame_end - payload_begin));

  auto from_zero = LoadFromString(zero);
  auto from_one = LoadFromString(one);
  ASSERT_TRUE(from_zero.ok()) << from_zero.status().ToString();
  ASSERT_TRUE(from_one.ok()) << from_one.status().ToString();
  EXPECT_EQ(SaveToString(*from_one), zero);
  for (bool reuse : {false, true}) {
    EXPECT_EQ(ServeTranscript(*from_zero, fx.batches, reuse),
              ServeTranscript(*from_one, fx.batches, reuse))
        << "reuse_model_weights=" << reuse;
  }
}

TEST(ModelIoTest, NullValuesInWeightDictionariesRoundTrip) {
  // NULL (empty string) cells reach the weight store as id-0 values; the
  // dictionary's null rank travels as a fixed u64 sentinel on the wire.
  Schema schema = *Schema::Make({"CT", "ST"});
  Dataset data = *Dataset::Make(
      schema, {{"DOTHAN", "AL"}, {"DOTHAN", "AL"}, {"", "AL"}, {"BOAZ", ""}});
  RuleSet rules(schema);
  rules.Add(*Constraint::MakeFd(schema, {0}, {1}));
  CleaningEngine engine;
  CleanModel model = *engine.Compile(schema, rules);
  ASSERT_TRUE(model.Warm(data).ok());

  const std::string bytes = SaveToString(model);
  auto loaded = LoadFromString(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_stored_weights(), model.num_stored_weights());
  EXPECT_EQ(SaveToString(*loaded), bytes);  // null ranks survived exactly

  SessionOptions reuse;
  reuse.reuse_model_weights = true;
  CleanResult a = *model.Clean(data, reuse);
  CleanResult b = *loaded->Clean(data, reuse);
  EXPECT_TRUE(a.cleaned == b.cleaned);
  EXPECT_TRUE(a.deduped == b.deduped);
}

TEST(ModelIoTest, SaveRejectsRulesWhoseTextCannotRoundTrip) {
  // The DC grammar has no quoting, so a DC over an attribute name with an
  // operator character has no parseable canonical text. Save must fail on
  // the builder box, not ship a snapshot Load can never read.
  Schema schema = *Schema::Make({"Price>0", "PN"});
  RuleSet rules(schema);
  rules.Add(*Constraint::MakeDc(
      schema, {DcPredicate{0, PredOp::kEq, 0}, DcPredicate{1, PredOp::kNeq, 1}}));
  CleaningEngine engine;
  CleanModel model = *engine.Compile(schema, rules);
  std::ostringstream out;
  Status saved = model.Save(out);
  ASSERT_TRUE(saved.IsInvalid()) << saved.ToString();
  EXPECT_NE(saved.message().find("round-trip"), std::string::npos)
      << saved.message();

  // The same metacharacter name under an FD is quoted and saves fine.
  RuleSet fd_rules(schema);
  fd_rules.Add(*Constraint::MakeFd(schema, {0}, {1}));
  CleanModel fd_model = *engine.Compile(schema, fd_rules);
  std::ostringstream fd_out;
  ASSERT_TRUE(fd_model.Save(fd_out).ok());
  EXPECT_TRUE(LoadFromString(fd_out.str()).ok());
}

TEST(ModelIoTest, InspectSummarizesWithoutCompiling) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningEngine engine(NonDefaultOptions());
  CleanModel model = *engine.Compile(dirty.schema(), rules);
  ASSERT_TRUE(model.Warm(dirty).ok());

  std::istringstream in(SaveToString(model));
  auto info = InspectModelSnapshot(in);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kModelSnapshotVersion);
  EXPECT_EQ(info->attr_names, dirty.schema().names());
  ASSERT_EQ(info->rule_texts.size(), rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(info->rule_names[i], rules.rule(i).name());
    EXPECT_EQ(info->rule_texts[i], rules.rule(i).CanonicalText(dirty.schema()));
  }
  EXPECT_EQ(info->options.agp_threshold, NonDefaultOptions().agp_threshold);
  EXPECT_EQ(info->num_stored_weights, model.num_stored_weights());
  EXPECT_EQ(info->weight_dict_sizes.size(), dirty.schema().num_attrs());
}

}  // namespace
}  // namespace mlnclean
