// ValueDict: the per-attribute dictionary of a columnar Dataset. Each
// distinct cell value of one attribute is interned once and addressed by a
// dense ValueId; NULL (the empty string) is always id 0. Cleaning layers
// compare and hash ValueIds instead of raw value bytes: id equality is
// value equality within one dictionary, and a (min, max) id pair is a
// perfect memo key for symmetric distances.
//
// The lookup table is flat open addressing (hash + short linear probe, no
// per-node allocation); id -> value storage is a deque so references
// returned by value() stay valid while the dictionary grows.

#ifndef MLNCLEAN_DATASET_VALUE_DICT_H_
#define MLNCLEAN_DATASET_VALUE_DICT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace mlnclean {

/// A cell value. Empty string represents NULL.
using Value = std::string;

/// Dense id of a distinct value inside one attribute's dictionary.
using ValueId = uint32_t;

/// The id NULL (empty string) always interns to.
inline constexpr ValueId kNullValueId = 0;

/// Sentinel returned by ValueDict::Find for values not in the dictionary.
inline constexpr ValueId kInvalidValueId = ~ValueId{0};

/// Seed for MixValueIdHash chains.
inline constexpr uint64_t kValueIdHashSeed = 0x9e3779b97f4a7c15ull;

/// Order-sensitive 64-bit mixer for hashing id tuples (splitmix-style
/// finalizer per element). Shared by every layer that keys a hash table on
/// ValueId sequences: grounding's binding dedup, the index's group
/// buckets, duplicate elimination's row keys, and violation grouping.
inline uint64_t MixValueIdHash(uint64_t h, ValueId id) {
  uint64_t x = h ^ (static_cast<uint64_t>(id) + kValueIdHashSeed);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

/// MixValueIdHash folded over ids[0, n).
inline uint64_t HashValueIds(const ValueId* ids, size_t n) {
  uint64_t h = kValueIdHashSeed;
  for (size_t i = 0; i < n; ++i) h = MixValueIdHash(h, ids[i]);
  return h;
}

/// MixValueIdHash folded over a whole id vector.
inline uint64_t HashValueIds(const std::vector<ValueId>& ids) {
  return HashValueIds(ids.data(), ids.size());
}

/// String <-> dense id dictionary for one attribute.
class ValueDict {
 public:
  ValueDict();

  /// Returns the id of `v`, interning it on first sight. The first intern
  /// of "" records its first-appearance rank for Domain ordering.
  ValueId Intern(std::string_view v);

  /// Returns the id of `v` without inserting; kInvalidValueId if absent.
  ValueId Find(std::string_view v) const;

  /// The value behind an id. References stay valid across Intern calls.
  const Value& value(ValueId id) const { return values_[id]; }

  /// Number of ids, including the always-present NULL id 0.
  size_t size() const { return values_.size(); }

  /// True once some cell actually held NULL (id 0 exists regardless).
  bool null_used() const { return null_rank_ != kNeverUsed; }

  /// Rank NULL first appeared at in the Domain ordering, or kNoNullRank
  /// when no cell ever held NULL. With the values in id order, this is the
  /// one extra datum a snapshot needs to reproduce a dictionary exactly:
  /// re-interning values 1..size-1 in id order and restoring the null rank
  /// yields a dictionary with identical ids and an identical Domain.
  static constexpr size_t kNoNullRank = ~size_t{0};
  size_t null_rank() const { return null_rank_; }

  /// Snapshot decode support: overwrites the null rank recorded by Intern.
  /// `rank` must be kNoNullRank or <= the number of non-null values.
  void RestoreNullRank(size_t rank) { null_rank_ = rank; }

  /// Distinct values ever written through this dictionary in
  /// first-appearance order. NULL appears at the rank it was first used at
  /// and is omitted entirely when no cell ever held it.
  std::vector<Value> FirstAppearanceDomain() const;

 private:
  static constexpr size_t kNeverUsed = kNoNullRank;

  // Slots store (value hash, id + 1); id_plus_one == 0 marks empty.
  struct Slot {
    uint32_t hash = 0;
    uint32_t id_plus_one = 0;
  };

  void Grow();

  std::deque<Value> values_;    // id -> value (stable references)
  std::vector<uint32_t> hashes_;  // id -> full hash, for rehashing
  std::vector<Slot> slots_;     // power-of-two open addressing
  size_t null_rank_ = kNeverUsed;  // non-null values interned before first ""
};

}  // namespace mlnclean

#endif  // MLNCLEAN_DATASET_VALUE_DICT_H_
