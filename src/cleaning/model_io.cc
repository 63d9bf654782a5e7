// Snapshot codec for CleanModel (format: cleaning/model_io.h). The
// decoder trusts nothing: every read is bounds-checked against the buffer
// and the enclosing section's declared length, and every failure is a
// StatusCode::kInvalid carrying the byte position — corrupt input can
// reject, never crash.

#include "cleaning/model_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <utility>

#include "cleaning/model_state.h"
#include "common/failpoint.h"
#include "common/varint.h"
#include "index/mln_index.h"
#include "rules/rule_parser.h"

namespace mlnclean {

namespace {

// Wire encoding of ValueDict::kNoNullRank. Fixed at u64 max so the bytes
// do not depend on the writer's size_t width (kNoNullRank is ~size_t{0},
// which is a different value on a 32-bit host).
constexpr uint64_t kNoNullRankWire = ~uint64_t{0};

// CRC-32C (Castagnoli, reflected 0x82F63B78) over one section's payload.
// Structural decoding catches framing corruption with a precise byte
// position; the per-section checksum catches content corruption that
// stays structurally valid (a flipped value byte, a bit-rotted weight) —
// and is verified *before* the payload is parsed, so a torn section
// reports kCorruption instead of whatever framing error the garbage
// happens to produce.
uint32_t Crc32c(const char* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82f63b78u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

// Section tags, in the order they must appear.
enum SectionTag : uint32_t {
  kSchemaTag = 1,
  kRulesTag = 2,
  kOptionsTag = 3,
  kWeightsTag = 4,
  kIndexTag = 5,
};
constexpr uint32_t kNumSections = 5;

// ------------------------------------------------------------------ encode

class Encoder {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void F64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "f64 must be 8 bytes");
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  /// A u64 length followed by raw bytes — the framing of the v4
  /// group-varint blocks inside the weights section.
  void Blob(const uint8_t* data, size_t size) {
    U64(size);
    out_.append(reinterpret_cast<const char*>(data), size);
  }
  /// Appends a finished sub-encoder as one framed, checksummed section.
  void Section(uint32_t tag, const Encoder& payload) {
    U32(tag);
    U64(payload.out_.size());
    U32(Crc32c(payload.out_.data(), payload.out_.size()));
    out_.append(payload.out_);
  }
  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

// ------------------------------------------------------------------ decode

/// Cursor over the fully buffered snapshot. `limit_` fences reads inside
/// the current section so a corrupt payload cannot consume its neighbour.
class Decoder {
 public:
  explicit Decoder(std::string data) : data_(std::move(data)), limit_(data_.size()) {}

  size_t pos() const { return pos_; }
  size_t size() const { return data_.size(); }
  const char* data() const { return data_.data(); }

  Status Fail(const std::string& what) const {
    return Status::Invalid("invalid model snapshot: " + what + " at byte " +
                           std::to_string(pos_));
  }

  Status Bytes(void* out, size_t n, const char* what) {
    if (n > limit_ - pos_) {
      return Fail(std::string("truncated ") + what + " (need " + std::to_string(n) +
                  " bytes, " + std::to_string(limit_ - pos_) + " left)");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Result<uint8_t> U8(const char* what) {
    uint8_t v = 0;
    MLN_RETURN_NOT_OK(Bytes(&v, 1, what));
    return v;
  }
  Result<uint32_t> U32(const char* what) {
    unsigned char b[4];
    MLN_RETURN_NOT_OK(Bytes(b, 4, what));
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  Result<uint64_t> U64(const char* what) {
    unsigned char b[8];
    MLN_RETURN_NOT_OK(Bytes(b, 8, what));
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  Result<double> F64(const char* what) {
    MLN_ASSIGN_OR_RETURN(uint64_t bits, U64(what));
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<std::string> Str(const char* what) {
    MLN_ASSIGN_OR_RETURN(uint32_t len, U32(what));
    if (len > limit_ - pos_) {
      return Fail(std::string(what) + " length " + std::to_string(len) +
                  " overruns its section (" + std::to_string(limit_ - pos_) +
                  " bytes left)");
    }
    std::string s(data_.data() + pos_, len);
    pos_ += len;
    return s;
  }

  /// A u64-length-prefixed raw byte run (the v4 varint blocks). The
  /// returned pointer aliases the snapshot buffer; valid while the
  /// decoder lives.
  Result<std::pair<const uint8_t*, size_t>> Blob(const char* what) {
    MLN_ASSIGN_OR_RETURN(uint64_t len, U64(what));
    if (len > limit_ - pos_) {
      return Fail(std::string(what) + " blob length " + std::to_string(len) +
                  " overruns its section (" + std::to_string(limit_ - pos_) +
                  " bytes left)");
    }
    const uint8_t* ptr = reinterpret_cast<const uint8_t*>(data_.data() + pos_);
    pos_ += static_cast<size_t>(len);
    return std::make_pair(ptr, static_cast<size_t>(len));
  }

  /// Enters a section of `length` bytes starting at the cursor.
  Status EnterSection(uint64_t length, uint32_t tag) {
    if (length > data_.size() - pos_) {
      return Fail("section " + std::to_string(tag) + " declares " +
                  std::to_string(length) + " bytes but only " +
                  std::to_string(data_.size() - pos_) + " remain");
    }
    limit_ = pos_ + static_cast<size_t>(length);
    return Status::OK();
  }
  /// Leaves the current section; the payload must be fully consumed.
  Status ExitSection(uint32_t tag) {
    if (pos_ != limit_) {
      return Fail("section " + std::to_string(tag) + " has " +
                  std::to_string(limit_ - pos_) + " trailing bytes");
    }
    limit_ = data_.size();
    return Status::OK();
  }

 private:
  std::string data_;
  size_t pos_ = 0;
  size_t limit_ = 0;
};

// Everything a snapshot holds, decoded but not yet compiled.
struct DecodedSnapshot {
  uint32_t version = 0;
  std::vector<std::string> attr_names;
  std::vector<std::string> rule_names;
  std::vector<double> rule_weights;
  std::vector<std::string> rule_texts;
  CleaningOptions options;
  std::vector<ValueDict> dicts;  // weight-store interners, ids preserved
  std::vector<GlobalWeightTable::EntryView> entries;
  bool has_index = false;        // index section present flag
  uint64_t indexed_rows = 0;     // rows the saved index covers
  std::vector<Block> index_blocks;
};

void EncodeOptions(const CleaningOptions& o, Encoder* e) {
  e->U64(o.agp_threshold);
  e->U32(static_cast<uint32_t>(o.distance));
  e->U8(o.learn_weights ? 1 : 0);
  e->U64(o.num_threads);
  e->F64(o.fscr_minimality_discount);
}

Status DecodeOptions(Decoder* d, CleaningOptions* o) {
  MLN_ASSIGN_OR_RETURN(uint64_t agp, d->U64("agp_threshold"));
  o->agp_threshold = static_cast<size_t>(agp);
  MLN_ASSIGN_OR_RETURN(uint32_t metric, d->U32("distance metric"));
  if (metric > static_cast<uint32_t>(DistanceMetric::kDamerau)) {
    return d->Fail("unknown distance metric " + std::to_string(metric));
  }
  o->distance = static_cast<DistanceMetric>(metric);
  MLN_ASSIGN_OR_RETURN(uint8_t learn, d->U8("learn_weights"));
  if (learn > 1) return d->Fail("learn_weights byte is " + std::to_string(learn));
  o->learn_weights = learn != 0;
  MLN_ASSIGN_OR_RETURN(uint64_t threads, d->U64("num_threads"));
  o->num_threads = static_cast<size_t>(threads);
  MLN_ASSIGN_OR_RETURN(o->fscr_minimality_discount, d->F64("fscr_minimality_discount"));
  return Status::OK();
}

Status DecodeSchemaSection(Decoder* d, DecodedSnapshot* snap) {
  MLN_ASSIGN_OR_RETURN(uint32_t num_attrs, d->U32("attribute count"));
  snap->attr_names.clear();
  for (uint32_t i = 0; i < num_attrs; ++i) {
    MLN_ASSIGN_OR_RETURN(std::string name, d->Str("attribute name"));
    snap->attr_names.push_back(std::move(name));
  }
  return Status::OK();
}

Status DecodeRulesSection(Decoder* d, DecodedSnapshot* snap) {
  MLN_ASSIGN_OR_RETURN(uint32_t num_rules, d->U32("rule count"));
  for (uint32_t i = 0; i < num_rules; ++i) {
    MLN_ASSIGN_OR_RETURN(std::string name, d->Str("rule name"));
    MLN_ASSIGN_OR_RETURN(double weight, d->F64("rule weight"));
    MLN_ASSIGN_OR_RETURN(std::string text, d->Str("rule text"));
    snap->rule_names.push_back(std::move(name));
    snap->rule_weights.push_back(weight);
    snap->rule_texts.push_back(std::move(text));
  }
  return Status::OK();
}

Status DecodeWeightsSection(Decoder* d, DecodedSnapshot* snap) {
  MLN_ASSIGN_OR_RETURN(uint32_t num_dicts, d->U32("weight dictionary count"));
  for (uint32_t a = 0; a < num_dicts; ++a) {
    MLN_ASSIGN_OR_RETURN(uint64_t num_values, d->U64("dictionary size"));
    if (num_values == 0) {
      return d->Fail("dictionary " + std::to_string(a) +
                     " has zero values (id 0 is always present)");
    }
    ValueDict dict;  // id 0 (NULL) pre-interned by construction
    for (uint64_t id = 1; id < num_values; ++id) {
      MLN_ASSIGN_OR_RETURN(std::string value, d->Str("dictionary value"));
      if (dict.Intern(value) != static_cast<ValueId>(id)) {
        return d->Fail("dictionary " + std::to_string(a) +
                       " repeats a value (ids would shift)");
      }
    }
    MLN_ASSIGN_OR_RETURN(uint64_t null_rank, d->U64("dictionary null rank"));
    if (null_rank != kNoNullRankWire && null_rank >= num_values) {
      return d->Fail("dictionary " + std::to_string(a) + " null rank " +
                     std::to_string(null_rank) + " exceeds its value count");
    }
    dict.RestoreNullRank(null_rank == kNoNullRankWire
                             ? ValueDict::kNoNullRank
                             : static_cast<size_t>(null_rank));
    snap->dicts.push_back(std::move(dict));
  }
  MLN_ASSIGN_OR_RETURN(uint64_t num_entries, d->U64("weight entry count"));

  // Columnar entries: three group-varint blocks (rule indexes, arities,
  // the flat id stream) followed by the two raw float columns.
  // Every block's value count is bounds-checked against its byte length
  // before anything is allocated — a forged entry count cannot force a
  // huge allocation, it just fails the plausibility check.
  auto read_block = [&](uint64_t count, bool delta,
                        const char* what) -> Result<std::vector<uint32_t>> {
    MLN_ASSIGN_OR_RETURN(auto blob, d->Blob(what));
    // Four values cost at least one control byte.
    if (count > 0 && blob.second < (count + 3) / 4) {
      return d->Fail(std::string(what) + " block of " +
                     std::to_string(blob.second) + " bytes cannot hold " +
                     std::to_string(count) + " values");
    }
    std::vector<uint32_t> values(static_cast<size_t>(count));
    size_t consumed = 0;
    const bool ok =
        delta ? GroupVarintDecodeDelta(blob.first, blob.second,
                                       values.size(), values.data(), &consumed)
              : GroupVarintDecode(blob.first, blob.second, values.size(),
                                  values.data(), &consumed);
    if (!ok || consumed != blob.second) {
      return d->Fail(std::string(what) + " varint block is malformed");
    }
    return values;
  };
  MLN_ASSIGN_OR_RETURN(std::vector<uint32_t> rule_indexes,
                       read_block(num_entries, true, "weight entry rule index"));
  MLN_ASSIGN_OR_RETURN(std::vector<uint32_t> arities,
                       read_block(num_entries, false, "weight entry arity"));
  uint64_t total_ids = 0;
  for (uint32_t arity : arities) total_ids += arity;
  MLN_ASSIGN_OR_RETURN(std::vector<uint32_t> flat_ids,
                       read_block(total_ids, true, "weight entry value id"));

  snap->entries.resize(static_cast<size_t>(num_entries));
  size_t id_cursor = 0;
  for (size_t i = 0; i < snap->entries.size(); ++i) {
    GlobalWeightTable::EntryView& entry = snap->entries[i];
    entry.rule_index = rule_indexes[i];
    entry.ids.assign(flat_ids.begin() + id_cursor, flat_ids.begin() + id_cursor + arities[i]);
    id_cursor += arities[i];
  }
  for (uint64_t i = 0; i < num_entries; ++i) {
    MLN_ASSIGN_OR_RETURN(snap->entries[static_cast<size_t>(i)].weighted_sum,
                         d->F64("weight entry sum"));
  }
  for (uint64_t i = 0; i < num_entries; ++i) {
    MLN_ASSIGN_OR_RETURN(snap->entries[static_cast<size_t>(i)].support,
                         d->F64("weight entry support"));
  }
  return Status::OK();
}

// Index section: a serialized pre-AGP MlnIndex. Everything is written in
// index order (blocks, groups, γs, tuple lists), so encoding the same
// index twice yields identical bytes. A γ is its ids; the strings stay in
// the dataset the index is resumed over.
void EncodeIndexSection(const MlnIndex* index, size_t indexed_rows, Encoder* e) {
  if (index == nullptr) {
    e->U8(0);
    return;
  }
  e->U8(1);
  e->U64(indexed_rows);
  e->U32(static_cast<uint32_t>(index->num_blocks()));
  std::vector<uint32_t> tids;
  std::vector<uint8_t> packed;
  for (const Block& block : index->blocks()) {
    e->U64(block.rule_index);
    e->U64(block.groups.size());
    for (const Group& group : block.groups) {
      e->U64(group.pieces.size());
      for (const Piece& piece : group.pieces) {
        e->U32(static_cast<uint32_t>(piece.ids.size()));
        for (ValueId id : piece.ids) e->U32(id);
        e->F64(piece.weight);
        e->U64(piece.tuples.size());
        tids.assign(piece.tuples.begin(), piece.tuples.end());
        packed.resize(GroupVarintMaxSize(tids.size()));
        const size_t written =
            GroupVarintEncodeDelta(tids.data(), tids.size(), packed.data());
        e->Blob(packed.data(), written);
      }
    }
  }
}

Status DecodeIndexSection(Decoder* d, DecodedSnapshot* snap) {
  MLN_ASSIGN_OR_RETURN(uint8_t present, d->U8("index present flag"));
  if (present > 1) {
    return d->Fail("index present flag is " + std::to_string(present));
  }
  snap->has_index = present != 0;
  if (!snap->has_index) return Status::OK();
  MLN_ASSIGN_OR_RETURN(snap->indexed_rows, d->U64("indexed row count"));
  MLN_ASSIGN_OR_RETURN(uint32_t num_blocks, d->U32("index block count"));
  snap->index_blocks.reserve(num_blocks);
  for (uint32_t bi = 0; bi < num_blocks; ++bi) {
    Block block;
    MLN_ASSIGN_OR_RETURN(uint64_t rule_index, d->U64("block rule index"));
    block.rule_index = static_cast<size_t>(rule_index);
    MLN_ASSIGN_OR_RETURN(uint64_t num_groups, d->U64("block group count"));
    for (uint64_t gi = 0; gi < num_groups; ++gi) {
      Group group;
      MLN_ASSIGN_OR_RETURN(uint64_t num_pieces, d->U64("group γ count"));
      if (num_pieces == 0) {
        return d->Fail("index group with zero γs");
      }
      for (uint64_t pi = 0; pi < num_pieces; ++pi) {
        Piece piece;
        MLN_ASSIGN_OR_RETURN(uint32_t arity, d->U32("γ arity"));
        // Ids are read one at a time, so a forged arity runs out of bytes
        // before it can force a large allocation.
        for (uint32_t p = 0; p < arity; ++p) {
          MLN_ASSIGN_OR_RETURN(ValueId id, d->U32("γ id"));
          piece.ids.push_back(id);
        }
        MLN_ASSIGN_OR_RETURN(piece.weight, d->F64("γ weight"));
        MLN_ASSIGN_OR_RETURN(uint64_t num_tuples, d->U64("γ tuple count"));
        MLN_ASSIGN_OR_RETURN(auto blob, d->Blob("γ tuple ids"));
        // Plausibility before allocation: four values cost at least one
        // control byte, so a forged count cannot force a huge vector.
        if (num_tuples > 0 && blob.second < (num_tuples + 3) / 4) {
          return d->Fail("γ tuple blob of " + std::to_string(blob.second) +
                         " bytes cannot hold " + std::to_string(num_tuples) +
                         " ids");
        }
        std::vector<uint32_t> tids(static_cast<size_t>(num_tuples));
        size_t consumed = 0;
        if (!GroupVarintDecodeDelta(blob.first, blob.second, tids.size(),
                                    tids.data(), &consumed) ||
            consumed != blob.second) {
          return d->Fail("γ tuple varint block is malformed");
        }
        piece.tuples.assign(tids.begin(), tids.end());
        group.pieces.push_back(std::move(piece));
      }
      block.groups.push_back(std::move(group));
    }
    snap->index_blocks.push_back(std::move(block));
  }
  return Status::OK();
}

/// Buffers the stream and decodes the whole snapshot structure. Semantic
/// validation (schema build, rule parse, option consistency, id bounds)
/// happens in the callers, which have the context to do it.
Result<DecodedSnapshot> DecodeSnapshotBytes(std::string data) {
  Decoder d(std::move(data));
  char magic[4];
  MLN_RETURN_NOT_OK(d.Bytes(magic, 4, "magic"));
  if (std::memcmp(magic, kModelSnapshotMagic, 4) != 0) {
    return Status::Invalid(
        "invalid model snapshot: bad magic at byte 0 (not a CleanModel "
        "snapshot)");
  }
  DecodedSnapshot snap;
  MLN_ASSIGN_OR_RETURN(snap.version, d.U32("format version"));
  if (snap.version != kModelSnapshotVersion) {
    return Status::Invalid("invalid model snapshot: unsupported format version " +
                           std::to_string(snap.version) + " at byte 4 (this "
                           "reader understands version " +
                           std::to_string(kModelSnapshotVersion) + ")");
  }
  MLN_ASSIGN_OR_RETURN(uint32_t num_sections, d.U32("section count"));
  if (num_sections != kNumSections) {
    return d.Fail("expected " + std::to_string(kNumSections) + " sections, got " +
                  std::to_string(num_sections));
  }
  for (uint32_t expected_tag = kSchemaTag; expected_tag <= kIndexTag;
       ++expected_tag) {
    MLN_ASSIGN_OR_RETURN(uint32_t tag, d.U32("section tag"));
    if (tag != expected_tag) {
      return d.Fail("unexpected section tag " + std::to_string(tag) +
                    " (expected " + std::to_string(expected_tag) + ")");
    }
    MLN_ASSIGN_OR_RETURN(uint64_t length, d.U64("section length"));
    MLN_ASSIGN_OR_RETURN(uint32_t stored_crc, d.U32("section checksum"));
    MLN_RETURN_NOT_OK(d.EnterSection(length, tag));
    // Verified before the payload parse: torn/bit-rotted content is
    // kCorruption with the section named, not a downstream framing error.
    const size_t payload_begin = d.pos();
    const uint32_t computed_crc =
        Crc32c(d.data() + payload_begin, static_cast<size_t>(length));
    if (computed_crc != stored_crc) {
      return Status::Corruption(
          "model snapshot section " + std::to_string(tag) +
          " checksum mismatch (stored " + std::to_string(stored_crc) +
          ", computed " + std::to_string(computed_crc) + ") over bytes [" +
          std::to_string(payload_begin) + ", " +
          std::to_string(payload_begin + static_cast<size_t>(length)) +
          "): the snapshot is torn or bit-rotted — re-copy or regenerate it");
    }
    switch (tag) {
      case kSchemaTag:
        MLN_RETURN_NOT_OK(DecodeSchemaSection(&d, &snap));
        break;
      case kRulesTag:
        MLN_RETURN_NOT_OK(DecodeRulesSection(&d, &snap));
        break;
      case kOptionsTag:
        MLN_RETURN_NOT_OK(DecodeOptions(&d, &snap.options));
        break;
      case kWeightsTag:
        MLN_RETURN_NOT_OK(DecodeWeightsSection(&d, &snap));
        break;
      case kIndexTag:
        MLN_RETURN_NOT_OK(DecodeIndexSection(&d, &snap));
        break;
    }
    MLN_RETURN_NOT_OK(d.ExitSection(tag));
  }
  if (d.pos() != d.size()) {
    return d.Fail(std::to_string(d.size() - d.pos()) +
                  " trailing bytes after the last section");
  }
  return snap;
}

Result<DecodedSnapshot> DecodeSnapshot(std::istream& in) {
  try {
    MLN_FAILPOINT("snapshot/decode");
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (in.bad()) {
      return Status::IOError("failed to read model snapshot stream");
    }
    return DecodeSnapshotBytes(std::move(data));
  } catch (...) {
    return StatusFromCurrentException("snapshot decode failed");
  }
}

}  // namespace

// ---------------------------------------------------------------- Save

Result<std::string> CleanModel::EncodeSnapshotBytes(const MlnIndex* index,
                                                    size_t indexed_rows) const {
 try {
  MLN_FAILPOINT("snapshot/encode");
  const Schema& schema = state_->rules.schema();

  Encoder schema_section;
  schema_section.U32(static_cast<uint32_t>(schema.num_attrs()));
  for (const std::string& name : schema.names()) schema_section.Str(name);

  Encoder rules_section;
  rules_section.U32(static_cast<uint32_t>(state_->rules.size()));
  for (const Constraint& rule : state_->rules.rules()) {
    // Refuse to write a snapshot Load can never read: the DC grammar has
    // no quoting, so a DC over attribute names containing DSL
    // metacharacters has no round-trippable text. Catching it here keeps
    // the failure on the builder box instead of on N serving workers.
    const std::string canonical = rule.CanonicalText(schema);
    auto reparsed = ParseRule(schema, canonical);
    if (!reparsed.ok() || reparsed->CanonicalText(schema) != canonical) {
      return Status::Invalid("rule '" + rule.name() +
                             "' cannot be serialized: its canonical text does "
                             "not round-trip through the rule DSL: " +
                             canonical);
    }
    rules_section.Str(rule.name());
    rules_section.F64(rule.rule_weight());
    rules_section.Str(canonical);
  }

  Encoder options_section;
  EncodeOptions(state_->options, &options_section);

  Encoder weights_section;
  {
    std::shared_lock<std::shared_mutex> lock(state_->weights_mu);
    const GlobalWeightTable& table = state_->weights;
    weights_section.U32(static_cast<uint32_t>(table.num_attr_dicts()));
    for (size_t a = 0; a < table.num_attr_dicts(); ++a) {
      const ValueDict& dict = table.attr_dict(a);
      weights_section.U64(dict.size());
      for (ValueId id = 1; id < dict.size(); ++id) weights_section.Str(dict.value(id));
      weights_section.U64(dict.null_used() ? dict.null_rank() : kNoNullRankWire);
    }
    weights_section.U64(table.size());
    // Columnar entries. The integer columns (rule index, arity, the flat id
    // stream) are group-varint coded — entries come out of
    // ForEachEntrySorted ordered by rule and ids, so the zigzag+delta
    // streams are mostly one byte per value. The float columns stay raw
    // fixed-width.
    std::vector<uint32_t> rule_indexes, arities, flat_ids;
    std::vector<double> sums, supports;
    table.ForEachEntrySorted([&](const GlobalWeightTable::EntryView& entry) {
      rule_indexes.push_back(static_cast<uint32_t>(entry.rule_index));
      arities.push_back(static_cast<uint32_t>(entry.ids.size()));
      flat_ids.insert(flat_ids.end(), entry.ids.begin(), entry.ids.end());
      sums.push_back(entry.weighted_sum);
      supports.push_back(entry.support);
    });
    std::vector<uint8_t> packed;
    auto put_block = [&](const std::vector<uint32_t>& values, bool delta) {
      packed.resize(GroupVarintMaxSize(values.size()));
      const size_t written =
          delta ? GroupVarintEncodeDelta(values.data(), values.size(),
                                         packed.data())
                : GroupVarintEncode(values.data(), values.size(), packed.data());
      weights_section.Blob(packed.data(), written);
    };
    put_block(rule_indexes, /*delta=*/true);   // non-decreasing in sort order
    put_block(arities, /*delta=*/false);
    put_block(flat_ids, /*delta=*/true);
    for (double v : sums) weights_section.F64(v);
    for (double v : supports) weights_section.F64(v);
  }

  Encoder index_section;
  EncodeIndexSection(index, indexed_rows, &index_section);

  // Assemble: magic, version, section count, checksummed framed sections.
  Encoder sections;
  sections.Section(kSchemaTag, schema_section);
  sections.Section(kRulesTag, rules_section);
  sections.Section(kOptionsTag, options_section);
  sections.Section(kWeightsTag, weights_section);
  sections.Section(kIndexTag, index_section);
  std::string bytes;
  bytes.append(kModelSnapshotMagic, 4);
  Encoder header;
  header.U32(kModelSnapshotVersion);
  header.U32(kNumSections);
  bytes.append(header.bytes());
  bytes.append(sections.bytes());
  return bytes;
 } catch (...) {
  return StatusFromCurrentException("snapshot encode failed");
 }
}

namespace {

Status WriteSnapshotStream(const std::string& bytes, std::ostream& out) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    return Status::IOError("failed to write model snapshot stream");
  }
  return Status::OK();
}

Status WriteSnapshotBytesToFile(const std::string& bytes,
                                const std::string& path);

}  // namespace

Status CleanModel::Save(std::ostream& out) const {
  MLN_ASSIGN_OR_RETURN(std::string bytes, EncodeSnapshotBytes(nullptr, 0));
  return WriteSnapshotStream(bytes, out);
}

Status CleanModel::Save(std::ostream& out, const MlnIndex& index,
                        size_t indexed_rows) const {
  MLN_ASSIGN_OR_RETURN(std::string bytes,
                       EncodeSnapshotBytes(&index, indexed_rows));
  return WriteSnapshotStream(bytes, out);
}

Status CleanModel::SaveToFile(const std::string& path, const MlnIndex& index,
                              size_t indexed_rows) const {
  MLN_ASSIGN_OR_RETURN(std::string bytes,
                       EncodeSnapshotBytes(&index, indexed_rows));
  return WriteSnapshotBytesToFile(bytes, path);
}

Status CleanModel::SaveToFile(const std::string& path) const {
  MLN_ASSIGN_OR_RETURN(std::string bytes, EncodeSnapshotBytes(nullptr, 0));
  return WriteSnapshotBytesToFile(bytes, path);
}

namespace {

// Crash-safe temp + fsync + atomic-rename write of an encoded snapshot.
Status WriteSnapshotBytesToFile(const std::string& bytes,
                                const std::string& path) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());

  int fd = -1;
  try {
    MLN_FAILPOINT("snapshot/open-temp");
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } catch (...) {
    return StatusFromCurrentException("snapshot temp open failed");
  }
  if (fd < 0) {
    return Status::IOError("cannot create temp snapshot " + tmp + ": " +
                           std::strerror(errno));
  }

  // Write + fsync the temp file. Any failure (including an injected one)
  // must close the descriptor and unlink the temp so a failed Save leaves
  // no debris and never touches `path`.
  Status status = Status::OK();
  try {
    MLN_FAILPOINT("snapshot/write-temp");
    size_t off = 0;
    while (off < bytes.size() && status.ok()) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        status = Status::IOError("cannot write temp snapshot " + tmp + ": " +
                                 std::strerror(errno));
        break;
      }
      off += static_cast<size_t>(n);
    }
    if (status.ok()) {
      MLN_FAILPOINT("snapshot/fsync-temp");
      if (::fsync(fd) != 0) {
        status = Status::IOError("cannot fsync temp snapshot " + tmp + ": " +
                                 std::strerror(errno));
      }
    }
  } catch (...) {
    status = StatusFromCurrentException("snapshot write failed");
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IOError("cannot close temp snapshot " + tmp + ": " +
                             std::strerror(errno));
  }

  if (status.ok()) {
    try {
      // The crash-safety pivot: a durable, fully written temp replaces
      // `path` in one atomic step. Dying before this line leaves the old
      // snapshot untouched; after it, the new one is complete.
      MLN_FAILPOINT("snapshot/before-rename");
      if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        status = Status::IOError("cannot rename " + tmp + " over " + path +
                                 ": " + std::strerror(errno));
      }
    } catch (...) {
      status = StatusFromCurrentException("snapshot rename failed");
    }
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }

  // Make the rename itself durable. Best-effort: some filesystems refuse
  // directory fsync, and the data is already safe in the file.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- Load

Result<CleanModel> CleaningEngine::Load(std::istream& in) const {
  // The index section, if any, is decoded and dropped: Load's contract is
  // the model alone.
  MLN_ASSIGN_OR_RETURN(LoadedSnapshot loaded, LoadWithIndex(in));
  return std::move(loaded.model);
}

Result<LoadedSnapshot> CleaningEngine::LoadWithIndex(std::istream& in) const {
  MLN_ASSIGN_OR_RETURN(DecodedSnapshot snap, DecodeSnapshot(in));

  MLN_ASSIGN_OR_RETURN(Schema schema, Schema::Make(snap.attr_names));
  RuleSet rules(schema);
  for (size_t i = 0; i < snap.rule_texts.size(); ++i) {
    auto parsed = ParseRule(schema, snap.rule_texts[i]);
    if (!parsed.ok()) {
      return Status::Invalid("invalid model snapshot: rule " + std::to_string(i) +
                             " does not decode: " + parsed.status().message());
    }
    Constraint rule = std::move(parsed).ValueUnsafe();
    rule.set_name(snap.rule_names[i]);
    rule.set_rule_weight(snap.rule_weights[i]);
    rules.Add(std::move(rule));
  }

  // Compile re-runs the full model validation (options, schema match,
  // index-hostability), so a snapshot cannot smuggle in a model state the
  // engine would refuse to build directly.
  MLN_ASSIGN_OR_RETURN(CleanModel model, Compile(schema, rules, snap.options));

  if (!snap.dicts.empty() && snap.dicts.size() != schema.num_attrs()) {
    return Status::Invalid("invalid model snapshot: weight store has " +
                           std::to_string(snap.dicts.size()) +
                           " dictionaries for a " +
                           std::to_string(schema.num_attrs()) + "-attribute schema");
  }
  if (snap.dicts.empty() && !snap.entries.empty()) {
    return Status::Invalid(
        "invalid model snapshot: weight entries without dictionaries");
  }
  // Freshly compiled and unpublished: no lock needed yet.
  GlobalWeightTable& weights = model.state_->weights;
  weights.RestoreDicts(std::move(snap.dicts));
  for (const GlobalWeightTable::EntryView& entry : snap.entries) {
    Status st = weights.RestoreEntry(model.state_->rules, entry);
    if (!st.ok()) {
      return Status::Invalid("invalid model snapshot: " + st.message());
    }
  }

  LoadedSnapshot loaded{std::move(model), std::nullopt, 0};
  if (snap.has_index) {
    // Block/rule alignment and γ arity are the only semantic checks
    // possible without the accumulated dataset; ResumeIncrementalSession
    // runs the full MlnIndex::Validate once the caller rebuilds it.
    if (snap.index_blocks.size() != rules.size()) {
      return Status::Invalid("invalid model snapshot: index has " +
                             std::to_string(snap.index_blocks.size()) +
                             " blocks for a " + std::to_string(rules.size()) +
                             "-rule model");
    }
    for (size_t bi = 0; bi < snap.index_blocks.size(); ++bi) {
      const Block& block = snap.index_blocks[bi];
      if (block.rule_index != bi) {
        return Status::Invalid("invalid model snapshot: index block " +
                               std::to_string(bi) + " claims rule index " +
                               std::to_string(block.rule_index));
      }
      const size_t arity = rules.rule(bi).attrs().size();
      for (const Group& group : block.groups) {
        for (const Piece& piece : group.pieces) {
          if (piece.ids.size() != arity) {
            return Status::Invalid("invalid model snapshot: index block " +
                                   std::to_string(bi) + " has a γ of arity " +
                                   std::to_string(piece.ids.size()) + " for a rule of arity " +
                                   std::to_string(arity));
          }
        }
      }
    }
    loaded.index = MlnIndex::FromBlocks(std::move(snap.index_blocks));
    loaded.indexed_rows = static_cast<size_t>(snap.indexed_rows);
  }
  return loaded;
}

Result<CleanModel> CleaningEngine::LoadFromFile(const std::string& path) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open model snapshot: " + path);
  return Load(in);
}

Result<LoadedSnapshot> CleaningEngine::LoadWithIndexFromFile(
    const std::string& path) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open model snapshot: " + path);
  return LoadWithIndex(in);
}

// ---------------------------------------------------------------- Inspect

Result<ModelSnapshotInfo> InspectModelSnapshot(std::istream& in) {
  MLN_ASSIGN_OR_RETURN(DecodedSnapshot snap, DecodeSnapshot(in));
  ModelSnapshotInfo info;
  info.version = snap.version;
  info.attr_names = std::move(snap.attr_names);
  info.rule_names = std::move(snap.rule_names);
  info.rule_texts = std::move(snap.rule_texts);
  info.rule_weights = std::move(snap.rule_weights);
  info.options = snap.options;
  info.num_stored_weights = snap.entries.size();
  for (const ValueDict& dict : snap.dicts) {
    info.weight_dict_sizes.push_back(dict.size());
  }
  info.has_index = snap.has_index;
  info.indexed_rows = static_cast<size_t>(snap.indexed_rows);
  for (const Block& block : snap.index_blocks) {
    info.index_pieces += block.PieceCount();
  }
  return info;
}

}  // namespace mlnclean
