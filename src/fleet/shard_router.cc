#include "fleet/shard_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "distributed/partitioner.h"
#include "distributed/shard_merge.h"

namespace mlnclean {

namespace {

constexpr uint8_t kMagic[4] = {'M', 'L', 'R', 'T'};
constexpr uint32_t kVersion = 1;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Strict little-endian reader: every Get checks the remaining length and
/// fails with the byte position, never reading past `size`.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  Status Need(size_t n) {
    if (size - pos < n) {
      return Status::Invalid("shard router image truncated at byte " +
                             std::to_string(pos));
    }
    return Status::OK();
  }
  Result<uint32_t> GetU32() {
    MLN_RETURN_NOT_OK(Need(4));
    uint32_t v = static_cast<uint32_t>(data[pos]) |
                 static_cast<uint32_t>(data[pos + 1]) << 8 |
                 static_cast<uint32_t>(data[pos + 2]) << 16 |
                 static_cast<uint32_t>(data[pos + 3]) << 24;
    pos += 4;
    return v;
  }
  Result<uint64_t> GetU64() {
    MLN_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
    MLN_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
    return static_cast<uint64_t>(hi) << 32 | lo;
  }
  Result<std::string> GetString() {
    MLN_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    MLN_RETURN_NOT_OK(Need(len));
    std::string s(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return s;
  }
};

}  // namespace

Result<ShardRouter> ShardRouter::Build(const Dataset& reference,
                                       ShardRouterOptions options) {
  if (options.num_shards == 0) {
    return Status::Invalid("num_shards must be > 0");
  }
  // Reuse Algorithm 3's seeded centroid draw (and its spread heuristics)
  // rather than inventing a second sampling scheme; only the centroids
  // are kept — the capacity-bounded parts are a batch-composition
  // artifact the router must not depend on.
  PartitionOptions popts;
  popts.num_parts = options.num_shards;
  popts.distance = options.distance;
  popts.seed = options.seed;
  MLN_ASSIGN_OR_RETURN(Partition partition, PartitionDataset(reference, popts));

  ShardRouter router;
  router.schema_ = reference.schema();
  router.metric_ = options.distance;
  router.seed_ = options.seed;
  router.centroids_.reserve(partition.centroids.size());
  for (TupleId tid : partition.centroids) {
    router.centroids_.push_back(reference.row(tid));
  }
  return router;
}

Result<std::vector<size_t>> ShardRouter::RouteRows(const Dataset& batch) const {
  if (!(batch.schema() == schema_)) {
    return Status::Invalid("batch schema does not match the shard router's");
  }
  const size_t n = batch.num_rows();
  const size_t k = centroids_.size();
  std::vector<size_t> shard_of(n, 0);
  if (k <= 1) return shard_of;

  // The partitioner's distance table over the captured centroid values:
  // ids only key its per-value cache, so the routing depends on values.
  const std::vector<double> matrix =
      CentroidDistances(batch, centroids_, MakeNormalizedDistanceFn(metric_));
  for (size_t r = 0; r < n; ++r) {
    const double* row = &matrix[r * k];
    for (size_t s = 1; s < k; ++s) {
      if (row[s] < row[shard_of[r]]) shard_of[r] = s;  // ties keep the lowest
    }
  }
  return shard_of;
}

Result<ShardedBatch> ShardRouter::Shard(const Dataset& batch) const {
  MLN_ASSIGN_OR_RETURN(std::vector<size_t> shard_of, RouteRows(batch));
  ShardedBatch out;
  out.mapping.resize(num_shards());
  for (size_t r = 0; r < shard_of.size(); ++r) {
    out.mapping[shard_of[r]].push_back(static_cast<TupleId>(r));
  }
  out.shards = MaterializeShards(batch, out.mapping);
  return out;
}

std::vector<uint8_t> ShardRouter::Encode() const {
  std::vector<uint8_t> out(kMagic, kMagic + 4);
  PutU32(&out, kVersion);
  PutU32(&out, static_cast<uint32_t>(metric_));
  PutU64(&out, seed_);
  PutU32(&out, static_cast<uint32_t>(schema_.num_attrs()));
  for (const std::string& name : schema_.names()) PutString(&out, name);
  PutU32(&out, static_cast<uint32_t>(centroids_.size()));
  for (const std::vector<Value>& row : centroids_) {
    for (const Value& v : row) PutString(&out, v);
  }
  return out;
}

Result<ShardRouter> ShardRouter::Decode(const uint8_t* data, size_t size) {
  Reader in{data, size};
  MLN_RETURN_NOT_OK(in.Need(4));
  if (!std::equal(kMagic, kMagic + 4, data)) {
    return Status::Invalid("not a shard router image (bad magic)");
  }
  in.pos = 4;
  MLN_ASSIGN_OR_RETURN(uint32_t version, in.GetU32());
  if (version != kVersion) {
    return Status::Invalid("unsupported shard router version " +
                           std::to_string(version));
  }
  MLN_ASSIGN_OR_RETURN(uint32_t metric, in.GetU32());
  if (metric > static_cast<uint32_t>(DistanceMetric::kDamerau)) {
    return Status::Invalid("unknown distance metric " + std::to_string(metric) +
                           " at byte " + std::to_string(in.pos - 4));
  }
  MLN_ASSIGN_OR_RETURN(uint64_t seed, in.GetU64());
  MLN_ASSIGN_OR_RETURN(uint32_t num_attrs, in.GetU32());
  std::vector<std::string> names;
  names.reserve(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    MLN_ASSIGN_OR_RETURN(std::string name, in.GetString());
    names.push_back(std::move(name));
  }
  MLN_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(names)));
  MLN_ASSIGN_OR_RETURN(uint32_t num_shards, in.GetU32());
  if (num_shards == 0) {
    return Status::Invalid("shard router image declares zero shards");
  }
  std::vector<std::vector<Value>> centroids;
  centroids.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<Value> row;
    row.reserve(num_attrs);
    for (uint32_t a = 0; a < num_attrs; ++a) {
      MLN_ASSIGN_OR_RETURN(Value v, in.GetString());
      row.push_back(std::move(v));
    }
    centroids.push_back(std::move(row));
  }
  if (in.pos != size) {
    return Status::Invalid(std::to_string(size - in.pos) +
                           " trailing bytes after the shard router image");
  }
  ShardRouter router;
  router.schema_ = std::move(schema);
  router.metric_ = static_cast<DistanceMetric>(metric);
  router.seed_ = seed;
  router.centroids_ = std::move(centroids);
  return router;
}

Result<ShardRouter> ShardRouter::Decode(const std::vector<uint8_t>& bytes) {
  return Decode(bytes.data(), bytes.size());
}

}  // namespace mlnclean
