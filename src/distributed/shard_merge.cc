#include "distributed/shard_merge.h"

#include <utility>

#include "cleaning/dedup.h"

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
    shards.push_back(source.Gather(group));
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

namespace {

/// Splices one leg session's decision trace into the protocol's report,
/// rewriting shard-local tuple ids to input rows. The AGP and RSC records'
/// value ids pass through unchanged: a shard is a Dataset::Gather of the
/// input and keeps a copy of its dictionaries, and a γ's ids are dirty ids,
/// all below the shipped watermark, so they resolve through the input or
/// the assembled result alike.
void SpliceShardReport(const CleaningReport& shard,
                       const std::vector<TupleId>& mapping,
                       CleaningReport* into) {
  for (AgpMergeRecord rec : shard.agp) {
    for (TupleId& t : rec.abnormal_tuples) t = mapping[static_cast<size_t>(t)];
    into->agp.push_back(std::move(rec));
  }
  for (RscRepairRecord rec : shard.rsc) {
    for (TupleId& t : rec.affected_tuples) t = mapping[static_cast<size_t>(t)];
    into->rsc.push_back(std::move(rec));
  }
  for (FscrRecord rec : shard.fscr) {
    rec.tuple = mapping[static_cast<size_t>(rec.tuple)];
    into->fscr.push_back(std::move(rec));
  }
  into->timings += shard.timings;
  into->learn_capped_groups += shard.learn_capped_groups;
  into->fscr_greedy_tuples += shard.fscr_greedy_tuples;
}

}  // namespace

void AbortShardLegs(std::vector<CleanTicket>* legs) {
  for (CleanTicket& t : *legs) t.Cancel();
  for (CleanTicket& t : *legs) {
    if (t.WaitPaused().ok()) {
      t.ResumeJob();  // a cancelled resume leg dies at its first boundary
    }
  }
  for (CleanTicket& t : *legs) t.Wait();
}

Result<ShardProtocolResult> RunShardProtocol(
    const CleanModel& model, std::vector<CleanTicket>* legs,
    const std::vector<std::vector<TupleId>>& mappings, Dataset assembled,
    bool collect_report) {
  const size_t k = legs->size();
  ShardProtocolResult out;

  // Barrier 1: every leg parked at kLearn (or terminal-failed).
  Status first_bad;
  for (CleanTicket& t : *legs) {
    Status st = t.WaitPaused();
    if (!st.ok() && first_bad.ok()) first_bad = st;
  }
  if (!first_bad.ok()) {
    AbortShardLegs(legs);
    return first_bad;
  }

  // Eq. 6 cross-shard weight merge. Skipped at one leg: merging a single
  // session is semantically the identity, and skipping it keeps a
  // 1-shard run bit-identical to a plain server (the (1·w)/1 round trip
  // is not an FP no-op).
  if (k > 1) {
    std::vector<CleanSession*> sessions;
    sessions.reserve(k);
    for (CleanTicket& t : *legs) sessions.push_back(t.session());
    Result<size_t> merged = model.AdjustWeightsAcross(sessions);
    if (!merged.ok()) {
      AbortShardLegs(legs);
      return merged.status();
    }
    out.global_weights = *merged;
  }

  // Resume every leg to kFscr; a leg that cannot re-enqueue is the only
  // one we must not Wait on (it never reaches a terminal state).
  std::vector<bool> resumed(k, false);
  Status resume_bad;
  for (size_t i = 0; i < k; ++i) {
    Status st = (*legs)[i].ResumeJob();
    resumed[i] = st.ok();
    if (!st.ok() && resume_bad.ok()) resume_bad = st;
  }
  if (!resume_bad.ok()) {
    for (CleanTicket& t : *legs) t.Cancel();
  }
  for (size_t i = 0; i < k; ++i) {
    if (!resumed[i]) continue;
    Status st = (*legs)[i].Wait();
    if (!st.ok() && first_bad.ok()) first_bad = st;
  }
  if (!resume_bad.ok()) return resume_bad;
  if (!first_bad.ok()) {
    AbortShardLegs(legs);
    return first_bad;
  }

  // Reassembly: id-remap merge in leg order (deterministic — merging
  // interns shard-local repairs, so order is part of the contract), then
  // report splicing and the global dedup the legs stopped short of.
  const std::vector<size_t> shipped_sizes = ShippedDictSizes(assembled);
  CleanResult& result = out.result;
  for (size_t i = 0; i < k; ++i) {
    const CleanSession* session = (*legs)[i].session();
    MergeShardRows(session->cleaned(), mappings[i], shipped_sizes, &assembled);
    if (collect_report) {
      SpliceShardReport(session->report(), mappings[i], &result.report);
    }
  }
  result.cleaned = std::move(assembled);
  result.deduped = RemoveDuplicates(
      result.cleaned, collect_report ? &result.report.duplicates : nullptr);
  return out;
}

}  // namespace mlnclean
