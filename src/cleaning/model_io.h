// CleanModel snapshots: a versioned binary format for handing a compiled
// model to another process (CleanModel::Save / CleaningEngine::Load,
// declared in cleaning/engine.h and implemented here). A builder box
// compiles and warms a model once; serving workers Load the snapshot and
// serve micro-batches bit-identically to the in-process original —
// including Eq. 6 stored weights, whose f64 bits round-trip exactly.
//
// Layout (all integers little-endian, f64 as IEEE-754 bits):
//
//   magic   "MLNM" (4 bytes)
//   u32     format version (kModelSnapshotVersion)
//   u32     section count (5)
//   5 x section, each: u32 tag, u64 payload length,
//           u32 CRC-32C (Castagnoli, reflected) of the payload, payload
//
//   tag 1 schema:   u32 #attrs, then each name as str (u32 len + bytes)
//   tag 2 rules:    u32 #rules, then per rule: str name, f64 rule weight,
//                   str canonical DSL text (Constraint::CanonicalText,
//                   decoded via ParseRule)
//   tag 3 options:  u64 agp_threshold, u32 distance, u8 learn_weights
//                   (0 or 1), u64 num_threads, f64
//                   fscr_minimality_discount (validated by
//                   CleaningOptions::Validate on load). num_threads is
//                   stored raw: 0 = "auto" resolves against the *serving*
//                   host, as it should. The executor pointer is never
//                   stored — the serving process wires its own.
//   tag 4 weights:  the Eq. 6 GlobalWeightTable — u32 #dicts (0 or
//                   #attrs), per dict the interned values in id order plus
//                   the NULL rank (so restored ids equal saved ids), then
//                   u64 #entries and the entries as columns: the γ keys
//                   (rule indexes, arities, the ids in each rule's
//                   attribute order; three group-varint blocks), then every f64
//                   weighted_sum, then every f64 support. Entries are
//                   written in sorted key order: saving the same model
//                   twice produces identical bytes.
//   tag 5 index:    an optional serialized pre-AGP MlnIndex — the base
//                   index of a row-incremental session, so another
//                   process can ResumeIncrementalSession without
//                   re-grounding history. u8 present flag; when present:
//                   u64 indexed row count, u32 #blocks, per block u64
//                   rule index + u64 #groups, per group u64 #γs, per γ
//                   u32 arity (its block's rule arity; Load rejects any
//                   other), the raw u32 value ids in the rule's attribute
//                   order, reason then result (ids of the dataset the
//                   index covers; no strings), the f64 weight, and the
//                   supporting tuple ids (u64 count + a group-varint
//                   delta blob — the lists are sorted, so most ids cost
//                   one byte). Blocks, groups, γs, and tuples are
//                   written in index order, so saving the same index
//                   twice produces identical bytes.
//
// Sections appear exactly once, in tag order. Decoding is strict and
// bounds-checked: truncated input, bad magic, an unsupported version, an
// unknown tag, a length prefix pointing past the buffer, a section with
// trailing bytes, or trailing bytes after the last section all return
// StatusCode::kInvalid naming the offending byte position — never
// undefined behaviour. Each section's CRC-32C is verified *before* its
// payload is parsed: torn or bit-rotted content (a flipped value byte, a
// truncating write that the framing survives) returns
// StatusCode::kCorruption naming the section and its byte range, distinct
// from the kInvalid of structurally malformed input — the caller can tell
// "re-copy the file" from "this is not a snapshot". Version policy
// (docs/snapshot_format.md): any layout change bumps
// kModelSnapshotVersion; readers reject versions they do not know;
// writers always write the current version.

#ifndef MLNCLEAN_CLEANING_MODEL_IO_H_
#define MLNCLEAN_CLEANING_MODEL_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cleaning/options.h"
#include "common/result.h"

namespace mlnclean {

/// First bytes of every snapshot.
inline constexpr char kModelSnapshotMagic[4] = {'M', 'L', 'N', 'M'};

/// Current snapshot format version. v2 added the weight-store decay
/// state (an options u64, a batch counter, per-entry batch stamps); v3
/// moved integrity from one global header CRC-32 to a per-section CRC-32C
/// verified before the payload is parsed (checksum mismatch =
/// kCorruption with the section named); v4 made the weight entries
/// columnar with the rule indexes, arities, and γ value ids group-varint
/// compressed; v5 added the optional index section (tag 5) carrying an
/// incremental session's pre-AGP base index; v6 stores only the five
/// options CleaningOptions has and drops every reserved field (the
/// retired options and the weight-decay counter and stamps); v7's index
/// section stores each γ as its ids only, without the value strings; v8
/// stores each γ (index section) and each weight entry as one arity and
/// one id tuple in its rule's attribute order instead of a reason and a
/// result part (docs/snapshot_format.md). Per the version policy, older
/// snapshots are rejected — regenerate from the builder.
inline constexpr uint32_t kModelSnapshotVersion = 8;

/// Summary of a snapshot, decoded without compiling a model — what
/// `mlnclean_model inspect` prints.
struct ModelSnapshotInfo {
  uint32_t version = 0;
  std::vector<std::string> attr_names;
  std::vector<std::string> rule_names;
  std::vector<std::string> rule_texts;   // canonical DSL
  std::vector<double> rule_weights;
  CleaningOptions options;
  size_t num_stored_weights = 0;         // γ entries in the weight store
  std::vector<size_t> weight_dict_sizes; // per-attribute interner sizes
  bool has_index = false;                // snapshot carries a base index
  size_t indexed_rows = 0;               // rows the saved index covers
  size_t index_pieces = 0;               // γs across the saved index
};

/// Fully decodes and validates a snapshot's framing without constructing a
/// CleanModel (rule texts stay text; use CleaningEngine::Load to serve).
Result<ModelSnapshotInfo> InspectModelSnapshot(std::istream& in);

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_MODEL_IO_H_
