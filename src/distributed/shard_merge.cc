#include "distributed/shard_merge.h"

namespace mlnclean {

std::vector<size_t> ShippedDictSizes(const Dataset& source) {
  const auto num_attrs = static_cast<AttrId>(source.num_attrs());
  std::vector<size_t> sizes(static_cast<size_t>(num_attrs));
  for (AttrId a = 0; a < num_attrs; ++a) {
    sizes[static_cast<size_t>(a)] = source.dict(a).size();
  }
  return sizes;
}

std::vector<Dataset> MaterializeShards(
    const Dataset& source, const std::vector<std::vector<TupleId>>& groups) {
  std::vector<Dataset> shards;
  shards.reserve(groups.size());
  for (const std::vector<TupleId>& group : groups) {
    shards.push_back(Dataset::EmptyLike(source));
    shards.back().Reserve(group.size());
    for (TupleId gtid : group) {
      shards.back().AppendRowFrom(source, gtid);
    }
  }
  return shards;
}

void MergeShardRows(const Dataset& shard_clean,
                    const std::vector<TupleId>& mapping,
                    const std::vector<size_t>& shipped_sizes, Dataset* global) {
  const auto num_attrs = static_cast<AttrId>(global->num_attrs());
  for (size_t local = 0; local < mapping.size(); ++local) {
    for (AttrId a = 0; a < num_attrs; ++a) {
      const ValueId id = shard_clean.id_at(static_cast<TupleId>(local), a);
      if (id < shipped_sizes[static_cast<size_t>(a)]) {
        global->set_id(mapping[local], a, id);
      } else {
        global->set(mapping[local], a, shard_clean.dict(a).value(id));
      }
    }
  }
}

}  // namespace mlnclean
